"""The package's modules import one another without a cycle, the package
and each CLI call load only the modules they use, and the package exports
the same names as when it imported every module up front."""

import ast
import importlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import tokipona
from conftest import write_wndb

PACKAGE = Path(__file__).parents[1] / "src" / "tokipona"


def _relative_imports(path: Path) -> set[str]:
    """The sibling modules ``path`` imports, at module level or deferred into
    a function: a deferred import still needs the module it names."""
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text("utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                names.add(node.module.split(".")[0])
            else:  # from . import a, b
                names.update(alias.name for alias in node.names)
    return names


def _cycle(graph: dict[str, set[str]]) -> list[str]:
    """One cycle of ``graph`` as the modules along it, or [] if there is none."""
    done: set[str] = set()

    def visit(module: str, path: list[str]) -> list[str]:
        if module in path:
            return path[path.index(module):] + [module]
        if module in done:
            return []
        for imported in sorted(graph.get(module, ())):
            found = visit(imported, path + [module])
            if found:
                return found
        done.add(module)
        return []

    for module in sorted(graph):
        found = visit(module, [])
        if found:
            return found
    return []


def test_cycle_finder():
    assert _cycle({"a": {"b"}, "b": {"c"}, "c": set()}) == []
    assert _cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]


def test_relative_imports_form_no_cycle():
    graph = {p.stem: _relative_imports(p) for p in sorted(PACKAGE.glob("*.py"))}
    assert graph["cli"] >= {"grammar", "synth"}  # the walk finds imports at all
    assert "synth" not in graph["counting"]
    assert "grammar" not in graph["synth"]  # synthesis returns text, not trees
    assert "grammar" not in graph["highlight"]  # the scheme alone groups words
    assert _cycle(graph) == []


#: Run in a fresh interpreter: import the package (and, given "load_lexicon",
#: load the lexicon), import one module by its dotted name, or run one CLI
#: call, and print the modules then loaded.
_PROBE = """
import contextlib, io, json, sys
argv = json.loads(sys.argv[1])
if argv is None or argv == "load_lexicon":
    import tokipona
    if argv:
        tokipona.load_lexicon()
elif isinstance(argv, str):
    __import__(argv)
else:
    from tokipona.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        main(argv)
print(json.dumps(sorted(sys.modules)))
"""


def _loaded(argv) -> list[str]:
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-c", _PROBE, json.dumps(argv)], env=env,
                          stdin=subprocess.DEVNULL, capture_output=True, text=True,
                          timeout=60, check=True)
    return json.loads(proc.stdout)


_CLI = ["cli", "lexicon", "phonotactics"]


_CALLS = [
    (None, []),
    (["syllabify", "toki"], _CLI),
    (["validate", "toki"], _CLI),
    (["count", "--syllables", "2"], _CLI),
    (["parse", "mi moku."], _CLI + ["grammar"]),
    (["tag", "mi moku."], _CLI + ["grammar"]),
    (["wordnet", "relations"], _CLI + ["wordnet"]),
    (["synth", "--count", "2"], _CLI + ["synth"]),
    (["synth", "--kind", "phrase"], _CLI + ["synth"]),
    (["synth", "--kind", "poem"], _CLI + ["counting", "synth"]),
    (["synth", "--kind", "paragraph"], _CLI + ["counting", "synth"]),
    (["compose"], _CLI + ["synth"]),
    (["stats"], _CLI + ["stats"]),
    (["highlight", "render", "mi moku"], _CLI + ["highlight"]),
]


@pytest.mark.parametrize("argv, modules", _CALLS)
def test_modules_loaded(argv, modules):
    loaded = [m.removeprefix("tokipona.") for m in _loaded(argv) if m.startswith("tokipona.")]
    assert loaded == sorted(modules)


def test_wordnet_relations_loads_no_hashlib():
    """Only a database load digests or maps files; the static relations need neither."""
    loaded = _loaded(["wordnet", "relations"])
    assert "hashlib" not in loaded and "mmap" not in loaded


#: One ``wordnet build`` call in a fresh interpreter that imports nothing else
#: (``_PROBE`` imports ``json``), then the modules it loaded.
_BUILD_PROBE = """
import contextlib, io, sys
from tokipona.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    status = main(sys.argv[1:])
print(status, *sorted(sys.modules))
"""


def test_a_wordnet_stamp_hit_loads_neither_hashlib_nor_json(tmp_path):
    """No load path loads ``json``: a full check, a digest hit (the identity
    stamp deleted) and an identity hit, which alone loads no ``hashlib``."""
    root = write_wndb(tmp_path / "dict")
    seconds = int(time.time()) - 60  # older than the stamp: not the racy case
    for path in root.iterdir():
        os.utime(path, (seconds, seconds))
    cache = tmp_path / "cache"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent), XDG_CACHE_HOME=str(cache))
    argv = [sys.executable, "-c", _BUILD_PROBE, "wordnet", "build", "--db", str(root)]

    def build() -> list[str]:
        return subprocess.run(argv, env=env, stdin=subprocess.DEVNULL, capture_output=True,
                              text=True, timeout=60, check=True).stdout.split()

    first = build()
    [identity] = (cache / "tokipona").glob("*.id")
    identity.unlink()
    digest_hit, hit = build(), build()
    assert first[0] == digest_hit[0] == hit[0] == "0"
    assert "hashlib" in first and "hashlib" in digest_hit
    assert "json" not in first and "json" not in digest_hit
    assert "hashlib" not in hit and "json" not in hit
    assert "mmap" in hit


@pytest.mark.parametrize("argv", ["load_lexicon", "tokipona.grammar"] + [
    argv for argv, _ in _CALLS
], ids=lambda argv: " ".join(argv) if isinstance(argv, list) else str(argv))
def test_light_calls_load_no_dataclasses(argv):
    """No call loads ``dataclasses``, ``parse`` and ``tag`` included: it
    brings ``inspect`` (with ``ast``, ``dis`` and ``tokenize``) along."""
    loaded = _loaded(argv)
    assert "dataclasses" not in loaded and "inspect" not in loaded


def test_no_module_imports_dataclasses():
    """The records are named tuples and slotted classes, in every module."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            assert "dataclasses" not in [name.split(".")[0] for name in names], path.name


#: Every name the package exports, by the module that defines it.
PUBLIC = {
    "lexicon": ["Lemma", "Lexicon", "LexiconError", "PosTag", "Sense", "load_lexicon"],
    "phonotactics": ["CountingMode", "PhonotacticsError", "Syllable", "count_possible_words",
                     "syllabify", "validate_proper_noun", "validate_word"],
    "grammar": ["Clause", "Diagnostic", "GrammarError", "ParseOptions", "ParseResult",
                "PhraseNode", "PiGroup", "Token", "iter_pi_readings", "parse", "parse_text",
                "pi_reading_count", "pi_readings", "pos_tag", "tokenize"],
    "synth": ["ComposeUnit", "ContextTracker", "ParagraphSpec", "PoemSpec", "SynthConfig",
              "SynthError", "Synthesizer"],
    "highlight": ["HighlightGroup", "MergeMode", "build_scheme", "emit_filetype_detect",
                  "emit_vim_syntax", "render_ansi", "render_html"],
    "wordnet": ["MappingMode", "RelationTable", "SynsetRef", "TPWordnet", "WordNetError",
                "build_mapping", "load_wordnet_db", "relations"],
}


def test_public_names():
    names = [name for exported in PUBLIC.values() for name in exported]
    for module, exported in PUBLIC.items():
        defining = importlib.import_module(f"tokipona.{module}")
        for name in exported:
            assert getattr(tokipona, name) is getattr(defining, name)
    assert sorted(tokipona.__all__) == sorted(names)
    assert set(dir(tokipona)) >= set(names)
    with pytest.raises(AttributeError, match="no_such_name"):
        tokipona.no_such_name
    from tokipona import parse, wordnet  # a name, and a module that is not one

    assert parse is tokipona.grammar.parse
    assert wordnet is importlib.import_module("tokipona.wordnet")
