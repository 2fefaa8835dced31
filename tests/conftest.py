"""Shared fixtures: the bundled lexicon, corpus lines, a small WordNet
database directory written in the standard WNDB file format, a cache
directory of the session's own, a classifier for the lines of an
emitted Vim syntax file, and the paper's letter count of a text."""

import os
import sys
from importlib import resources
from importlib.util import find_spec
from pathlib import Path

import pytest

# A tokipona on the path, as from PYTHONPATH, is the one tested; the
# checkout's own src only stands in when there is none.
if find_spec("tokipona") is None:
    sys.path.append(str(Path(__file__).resolve().parent.parent / "src"))

from tokipona.lexicon import load_lexicon

_HEADER = (
    "  1 This software and database is being provided to you, the LICENSEE.\n"
    "  2 WordNet 3.0 Copyright 2006 by Princeton University.  All rights reserved.\n"
    "  3 \n"
)

#: (lemma, pos) -> synset offsets for the fixture database.  Offsets are
#: arbitrary but unique per (pos, offset).
FIXTURE_INDEX = {
    # nouns
    ("person", "n"): [10000001, 10000002],
    ("human", "n"): [10000001],
    ("people", "n"): [10000003],
    ("fish", "n"): [10000010],
    ("water", "n"): [10000020, 10000021],
    ("animal", "n"): [10000030],
    ("mammal", "n"): [10000031],
    ("food", "n"): [10000040],
    ("meal", "n"): [10000041],
    ("drink", "n"): [10000042],
    ("tool", "n"): [10000050],
    ("house", "n"): [10000060],
    ("sound", "n"): [10000070],
    ("eye", "n"): [10000080],
    ("hand", "n"): [10000090],
    ("moon", "n"): [10000100],
    ("sun", "n"): [10000110],
    ("head", "n"): [10000120, 10000121],
    ("language", "n"): [10000130],
    ("use", "n"): [10000140],
    ("existence", "n"): [10000150],
    ("origin", "n"): [10000160],
    ("movement", "n"): [10000170],
    ("side", "n"): [10000180],
    ("sea_creature", "n"): [10000190],
    # verbs
    ("eat", "v"): [20000001, 20000002],
    ("drink", "v"): [20000003],
    ("see", "v"): [20000010],
    ("know", "v"): [20000020],
    ("give", "v"): [20000030],
    ("sleep", "v"): [20000040],
    ("talk", "v"): [20000050],
    ("be", "v"): [20000060],
    ("exist", "v"): [20000061],
    ("use", "v"): [20000070],
    ("correct", "v"): [20000080],
    # adjectives
    ("good", "a"): [30000001, 30000002],
    ("simple", "a"): [30000003],
    ("correct", "a"): [30000004],
    ("two", "a"): [30000005],
    ("big", "a"): [30000010],
    ("small", "a"): [30000011],
    ("new", "a"): [30000012],
    ("red", "a"): [30000013],
    ("black", "a"): [30000014],
    ("same", "a"): [30000015],
    ("moving", "a"): [30000016],
    ("real", "a"): [30000017],
    ("female", "a"): [30000018],
    ("male", "a"): [30000019],
    # adverbs
    ("good", "r"): [40000001],
    ("also", "r"): [40000002],
    ("too", "r"): [40000003],
    ("away", "r"): [40000004],
    ("even", "r"): [40000005],
}

_SUFFIX = {"n": "noun", "v": "verb", "a": "adj", "r": "adv"}


def write_wndb(root: Path, index=None, skip_files=()) -> Path:
    """Write a WNDB-format directory; returns its path."""
    index = FIXTURE_INDEX if index is None else index
    root.mkdir(parents=True, exist_ok=True)
    by_pos: dict[str, dict[str, list[int]]] = {p: {} for p in _SUFFIX}
    for (lemma, pos), offsets in index.items():
        by_pos[pos][lemma] = list(offsets)
    for pos, suffix in _SUFFIX.items():
        offsets = sorted({o for offs in by_pos[pos].values() for o in offs})
        data_name = f"data.{suffix}"
        if data_name not in skip_files:
            with open(root / data_name, "w", encoding="utf-8") as fh:
                fh.write(_HEADER)
                for off in offsets:
                    words = sorted(l for l, offs in by_pos[pos].items() if off in offs)
                    fh.write(
                        f"{off:08d} 03 {pos} {len(words):02x} "
                        + " ".join(f"{w} 0" for w in words)
                        + " 000 | a fixture synset\n"
                    )
        index_name = f"index.{suffix}"
        if index_name not in skip_files:
            with open(root / index_name, "w", encoding="utf-8") as fh:
                fh.write(_HEADER.replace("  1 ", "  1 ").replace("  2 ", "  2 "))
                for lemma in sorted(by_pos[pos]):
                    offs = by_pos[pos][lemma]
                    n = len(offs)
                    fh.write(
                        f"{lemma} {pos} {n} 1 @ {n} {n} "
                        + " ".join(f"{o:08d}" for o in offs)
                        + "\n"
                    )
    return root


def letter_count(text: str) -> int:
    """Letters only, as the paper counts a verse: spaces and punctuation do not
    count.  The tests' own count, so that they do not trust the synthesizer's."""
    return sum(ch.isalpha() for ch in text)


#: The kinds of line an emitted Vim syntax file may contain.
_LINE_KINDS = (
    ("comment", lambda s: s.startswith('"')),
    ("guard", lambda s: s in ('if exists("b:current_syntax")', "  finish", "endif")
        or s.startswith("let b:current_syntax")),
    ("setting", lambda s: s.startswith("syn iskeyword ")),
    ("keyword", lambda s: s.startswith("syn keyword tp")),
    ("pattern", lambda s: s.startswith("syn match tp")),
    ("link", lambda s: s.startswith("hi def link tp")),
    ("blank", lambda s: s == ""),
)


def classify_syntax_lines(content: str) -> list[tuple[str, str]]:
    """(kind, line) per line; kind is 'unknown' for anything unexpected."""
    out = []
    for line in content.splitlines():
        for kind, pred in _LINE_KINDS:
            if pred(line):
                out.append((kind, line))
                break
        else:
            out.append(("unknown", line))
    return out


@pytest.fixture(scope="session", autouse=True)
def _cache_home(tmp_path_factory):
    """Stamps of checked WordNet databases go to a directory of this session,
    also from the CLI calls it starts, never to the user's own cache."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg-cache")))
        yield


@pytest.fixture(scope="session")
def lexicon():
    return load_lexicon()


@pytest.fixture(scope="session")
def corpus_lines():
    text = resources.files("tokipona").joinpath("data/corpus.txt").read_text("utf-8")
    return [l for l in text.splitlines() if l.strip() and not l.startswith("#")]


@pytest.fixture(scope="session")
def wndb_dir(tmp_path_factory) -> Path:
    return write_wndb(tmp_path_factory.mktemp("wndb") / "dict")


def find_real_wordnet() -> Path | None:
    """A real WordNet 3.x database, if one is installed on this machine."""
    candidates = []
    for var in ("WNDB_DIR", "WNSEARCHDIR"):
        if os.environ.get(var):
            candidates.append(Path(os.environ[var]))
    if os.environ.get("WNHOME"):
        candidates.append(Path(os.environ["WNHOME"]) / "dict")
    candidates += [
        Path("/usr/share/wordnet"),
        Path("/usr/local/WordNet-3.0/dict"),
        Path.home() / "nltk_data" / "corpora" / "wordnet",
    ]
    for path in candidates:
        if (path / "data.noun").is_file() and (path / "index.noun").is_file():
            # The fixture database also satisfies the layout; require the
            # real thing by size (data.noun alone is ~15 MB in 3.0).
            if (path / "data.noun").stat().st_size > 1_000_000:
                return path
    return None
