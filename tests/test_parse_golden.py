"""Golden output of the clause parser under strict and lenient options.

Inputs are the bundled corpus, a seeded sample of the benchmark document's
sentences and a few hand-written sentences, each as is and with one seeded
edit (a particle, punctuation mark, proper noun or unknown word inserted,
deleted or swapped in).  For each input and option set the file records the
text the parse walks back to, the diagnostics and every clause's
``to_dict()`` and ``pretty()``, or the ``GrammarError`` text; a lenient
record equal to the strict one is written as ``as strict``.  The test also
checks that every message the parser can emit occurs in the file.

Regenerate ``data/parse_golden.txt`` after an intended output change:

    PYTHONPATH=src python tests/test_parse_golden.py
"""

import ast
import json
import random
import re
from importlib import resources
from pathlib import Path

from tokipona import grammar
from tokipona.grammar import LENIENT, GrammarError, ParseOptions, parse_text, tokenize

GOLDEN = Path(__file__).parent / "data" / "parse_golden.txt"
DOCUMENT = Path(__file__).parent.parent / "perfbench" / "data" / "document.txt"

SEED = 8
SAMPLE = 200
EDIT_TOKENS = ("la", "o", "li", "e", "pi", "en", "anu", "a", "mu", "seme", ",", ":", "Mali", "xq")

#: Sentences that reach messages the corpus and the sample do not, a text
#: whose unknown word must be reported before its earlier broken sentence, and
#: pi groups nested one deeper than the parser allows.
HANDWRITTEN = (
    "jan li pi mi.",
    "jan e o, o moku.",
    "mi li moku.",
    "sina moku la.",
    "la mi moku.",
    "e moku. mi xq.",
    "o moku, pona.",
    "jan li moku, e kili, lon tomo.",
    "mi moku, a!",
    "jan" + " pi ma suli" * (grammar.MAX_NESTING + 1) + " li moku.",
)


def sentences() -> list[str]:
    corpus = resources.files("tokipona").joinpath("data/corpus.txt").read_text("utf-8")
    document = [l for l in DOCUMENT.read_text("utf-8").splitlines() if l.strip()]
    return (
        [l for l in corpus.splitlines() if l.strip() and not l.startswith("#")]
        + random.Random(SEED).sample(document, SAMPLE)
        + list(HANDWRITTEN)
    )


def edited(text: str, rng: random.Random) -> str:
    """``text`` with one token inserted, deleted or swapped for an edit token."""
    words = [t.surface for t in tokenize(text)]
    edit = rng.choice(("insert", "delete", "swap"))
    if edit == "insert":
        words.insert(rng.randint(0, len(words)), rng.choice(EDIT_TOKENS))
    elif edit == "delete":
        del words[rng.randrange(len(words))]
    else:
        words[rng.randrange(len(words))] = rng.choice(EDIT_TOKENS)
    return " ".join(words)


def inputs() -> list[str]:
    rng = random.Random(SEED)
    out = []
    for text in sentences():
        out += [text, edited(text, rng)]
    return out


def record(text: str, opts: ParseOptions) -> str:
    try:
        result = parse_text(text, opts)
    except GrammarError as exc:
        return f"GrammarError: {exc}\n"
    lines = [f"text: {result.text()}"] + [str(d) for d in result.diagnostics]
    for clause in result.clauses:
        lines.append(json.dumps(clause.to_dict(), separators=(",", ":")))
        lines.append(clause.pretty())
    return "".join(line + "\n" for line in lines)


def render() -> str:
    parts = []
    for text in inputs():
        parts.append(f"$ {text}\n")
        strict, lenient = (record(text, opts) for opts in (ParseOptions(), LENIENT))
        parts.append(f"--- strict\n{strict}--- lenient")
        parts.append(" as strict\n" if lenient == strict else f"\n{lenient}")
    return "".join(parts)


def parser_messages() -> list[re.Pattern]:
    """Every message literal the parser passes to ``GrammarError``, ``note``
    or ``warn``, as a pattern in which each f-string field matches a word."""
    tree = ast.parse(Path(grammar.__file__).read_text("utf-8"))
    scopes = [
        node for node in tree.body
        if isinstance(node, (ast.ClassDef, ast.FunctionDef))
        and node.name in ("_ClauseParser", "parse")
    ]
    patterns = []
    for scope in scopes:
        for call in ast.walk(scope):
            if not isinstance(call, ast.Call) or not call.args:
                continue
            func = call.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name not in ("GrammarError", "note", "warn"):
                continue
            message = call.args[0]
            if isinstance(message, ast.Constant) and isinstance(message.value, str):
                patterns.append(re.compile(re.escape(message.value)))
            elif isinstance(message, ast.JoinedStr):
                patterns.append(re.compile("".join(
                    re.escape(part.value) if isinstance(part, ast.Constant) else r"\S+"
                    for part in message.values
                )))
    return patterns


def test_parse_golden():
    assert render() == GOLDEN.read_text("utf-8")


def test_golden_holds_every_parser_message():
    golden = GOLDEN.read_text("utf-8")
    patterns = parser_messages()
    assert len(patterns) >= 25
    missing = [p.pattern for p in patterns if not p.search(golden)]
    assert not missing


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(render(), "utf-8")
