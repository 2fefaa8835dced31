"""The emitted Vim syntax file, loaded by Vim itself, gives each token the
group that the renderers give it.

Headless Vim reads the syntax and filetype files from a temporary runtime
directory, edits a ``.tp`` file, and reports the syntax group at the first
column of each token.  Skips only when no ``vim`` is on ``PATH``.
"""

import random
import re
import shutil
import subprocess
from pathlib import Path

import pytest

from tokipona.grammar import _TOKEN_RE
from tokipona.highlight import (
    MergeMode,
    build_scheme,
    emit_filetype_detect,
    emit_vim_syntax,
    render_html,
)
from tokipona.phonotactics import ALPHABET

pytestmark = pytest.mark.skipif(shutil.which("vim") is None, reason="no vim on PATH")

DOCUMENT = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "document.txt"

INVALID_WORDS = [
    "Xq li pona.", "Ti en Wu li lon.", "Ann o, Nka li xyz.",
    "moku1 jan_pona Mali2 é (jan) Anna Anan Kenm Jin Tonsi Oan mAli MALI",
    'mi moku; sina "toki" 3 x...',
]

SEED = 14
LETTERS = "".join(sorted(ALPHABET))

_PROBE = """\
let &rtp = {root} . ',' . &rtp
syntax on
filetype on
execute 'edit ' . fnameescape({sample})
let s:names = []
for s:pos in readfile({positions})
  let [s:l, s:c] = split(s:pos)
  call add(s:names, synIDattr(synID(str2nr(s:l), str2nr(s:c), 1), 'name'))
endfor
call writefile(s:names, {names})
qall!
"""


def _vim_string(path: Path) -> str:
    return "'" + str(path).replace("'", "''") + "'"


def _token_starts(lines):
    """(line, byte column), both from 1, of each token, and its text."""
    for l, line in enumerate(lines, 1):
        for m in _TOKEN_RE.finditer(line):
            yield l, len(line[: m.start()].encode()) + 1, m.group()


def _vim_and_renderer_groups(tmp_path: Path, mode: MergeMode, lexicon, lines):
    """The group Vim gives each token and the one ``render_html`` gives it
    (its span's class, or "" when it has no span)."""
    root = tmp_path / mode.value
    (root / "syntax").mkdir(parents=True)
    (root / "ftdetect").mkdir()
    scheme = build_scheme(lexicon, mode)
    (root / "syntax" / "tokipona.vim").write_text(emit_vim_syntax(scheme), "utf-8")
    (root / "ftdetect" / "tokipona.vim").write_text(emit_filetype_detect(), "utf-8")
    sample = root / "sample.tp"
    sample.write_text("\n".join(lines) + "\n", "utf-8")
    tokens = list(_token_starts(lines))
    positions = root / "positions.txt"
    positions.write_text("".join(f"{l} {c}\n" for l, c, _ in tokens), "utf-8")
    names = root / "names.txt"
    probe = root / "probe.vim"
    probe.write_text(_PROBE.format(
        root=_vim_string(root), sample=_vim_string(sample),
        positions=_vim_string(positions), names=_vim_string(names),
    ), "utf-8")
    subprocess.run(
        ["vim", "-Nu", "NONE", "-i", "NONE", "-es", "-S", str(probe)],
        stdin=subprocess.DEVNULL, capture_output=True, timeout=60, check=True,
    )
    vim = names.read_text("utf-8").splitlines()
    assert len(vim) == len(tokens)

    surfaces = [surface for _, _, surface in tokens]
    rendered = {}
    for surface in surfaces:
        if surface not in rendered:
            span = re.search(r'<span class="(\w+)"', render_html(surface, scheme, lexicon))
            rendered[surface] = span.group(1) if span else ""
    return list(zip(surfaces, vim)), [(s, rendered[s]) for s in surfaces]


@pytest.mark.parametrize("mode", list(MergeMode))
def test_vim_agrees_with_the_renderers(tmp_path, lexicon, corpus_lines, mode):
    """The bundled corpus and the first 400 lines of the benchmark document."""
    document = [l for l in DOCUMENT.read_text("utf-8").splitlines() if l.strip()][:400]
    vim, rendered = _vim_and_renderer_groups(tmp_path, mode, lexicon, corpus_lines + document)
    assert len(vim) > 3000
    assert vim == rendered


def test_vim_agrees_with_the_renderers_on_invalid_words(tmp_path, lexicon):
    for mode in MergeMode:
        vim, rendered = _vim_and_renderer_groups(tmp_path, mode, lexicon, INVALID_WORDS)
        assert vim == rendered


def test_vim_agrees_with_the_renderers_on_random_strings(tmp_path, lexicon):
    """Capitalized strings over the 14 letters, some of them valid names, and
    short strings that mix in other letters, a digit, punctuation and space."""
    rng = random.Random(SEED)
    names = [
        "".join(rng.choices(LETTERS, k=rng.randint(1, 9))).capitalize() for _ in range(4000)
    ]
    mixed = [
        "".join(rng.choices(LETTERS + "AKPTXxqé0.,!: ", k=rng.randint(1, 6)))
        for _ in range(1000)
    ]
    vim, rendered = _vim_and_renderer_groups(tmp_path, MergeMode.FULL, lexicon, names + mixed)
    groups = [group for _, group in rendered]
    assert len(vim) > 5000
    assert groups.count("tpPROPER") > 300 and groups.count("tpERROR") > 3000
    assert vim == rendered
