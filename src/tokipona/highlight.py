"""Highlight schemes from chosen POS tags, with Vim / HTML / ANSI emission.

Every distinct word belongs to exactly one keyword group (synonym pairs
always travel together); proper nouns and errors are matched by patterns.
Emission is byte-deterministic so regenerated files can be diffed.
"""

from __future__ import annotations

import html as _html
import re
from dataclasses import dataclass
from enum import Enum
from functools import cache
from itertools import groupby
from typing import Callable, Optional

from .grammar import _TOKEN_RE, TokenKind, classify
from .lexicon import Lexicon, PosTag, default_lexicon
from .phonotactics import CONSONANTS, CountingMode, _boundary_fault, _syllable_inventory

#: :func:`classify`'s ERROR in Vim: a run of letters that no keyword or name
#: claims, or a character that is not a letter, punctuation or space.
_ERROR_PATTERN = r"/\v\a+|[^A-Za-z.!?,:[:space:]]/"

FILETYPE_NAME = "tokipona"


class MergeMode(Enum):
    FULL = "full"
    PARTICLES_VS_REST = "particles"
    PARTICLES_PREPS_VS_REST = "particles-preps"


#: Default style per highlight group: the editor group it links to, its
#: CSS color (readable on a dark background), its SGR code for 16-color
#: terminals and its 256-color index.  Links are chosen for contrast on
#: both dark and light schemes: most words (nouns) keep the normal text
#: color, structure words stand out the most.
_STYLES = {
    "tpNOUN": ("Normal", "#d8d8d8", "37", 252),
    "tpADJECTIVE": ("Identifier", "#8ec07c", "32", 108),
    "tpVERB": ("Function", "#fabd2f", "33", 214),
    "tpPARTICLE": ("Statement", "#fb4934", "31", 167),
    "tpPRE": ("Special", "#d3869b", "35", 175),
    "tpPREPOSITION": ("PreProc", "#83a598", "36", 109),
    "tpNUMBER": ("Number", "#fe8019", "91", 208),
    "tpPROPER": ("Constant", "#b8bb26", "92", 142),
    "tpCONTENT": ("Normal", "#d8d8d8", "37", 252),
    "tpERROR": ("Error", "#ff0000", "41", 196),
}

DEFAULT_LINKS = {name: link for name, (link, _, _, _) in _STYLES.items()}
_HTML_COLORS = {name: color for name, (_, color, _, _) in _STYLES.items()}
_SGR = {
    16: {name: sgr for name, (_, _, sgr, _) in _STYLES.items()},
    256: {name: f"38;5;{index}" for name, (_, _, _, index) in _STYLES.items()},
}
_KIND_GROUPS = {TokenKind.PROPER: "tpPROPER", TokenKind.ERROR: "tpERROR"}


@dataclass(frozen=True)
class HighlightGroup:
    name: str
    members: frozenset[str]
    pattern: Optional[str] = None

    def distinct_size(self, lex: Lexicon) -> int:
        """Member count with synonym pairs collapsed."""
        primaries = set()
        for surface in self.members:
            entry = lex.lookup(surface)
            primaries.add(entry.synonym_group or surface)
        return len(primaries)


#: The tags that each merge mode keeps apart; the others go to tpCONTENT.
_KEPT_APART = {
    MergeMode.FULL: frozenset(PosTag),
    MergeMode.PARTICLES_VS_REST: frozenset({PosTag.PARTICLE}),
    MergeMode.PARTICLES_PREPS_VS_REST: frozenset({PosTag.PARTICLE, PosTag.PREPOSITION}),
}


@cache
def _proper_pattern() -> str:
    """:func:`validate_proper_noun` as a Vim pattern over a whole run of
    letters, built on first use from the strict syllable inventory and the
    consonants that may not follow a coda n."""
    mode = CountingMode.STRICT
    barred = "".join(c for c in sorted(CONSONANTS) if _boundary_fault(True, c, mode))

    def syllable(initial: bool) -> str:
        cap = str.upper if initial else str
        pairs = sorted({(s.onset or "", s.nucleus) for s in _syllable_inventory(initial, mode)})
        alternatives = []
        for onset, group in groupby(pairs, key=lambda pair: pair[0]):
            nuclei = "".join(nucleus for _, nucleus in group)
            # Only a first syllable lacks an onset; then its vowel is the capital.
            alternatives.append(cap(onset) + f"[{nuclei}]" if onset else f"[{cap(nuclei)}]")
        return f"%(%({'|'.join(alternatives)})%(n[{barred}]@!)?)"

    return rf"/\v\a@<!{syllable(True)}{syllable(False)}*\a@!/"


def build_scheme(lex: Lexicon, mode: MergeMode = MergeMode.FULL) -> list[HighlightGroup]:
    """Partition the vocabulary into highlight groups by chosen tag.

    Group membership follows the synonym pair's primary entry so that a
    pair is never split, and the merge mode coalesces groups.  The error
    and proper-noun groups come last, in the order Vim needs, with patterns.
    """
    members: dict[str, set[str]] = {}
    for entry in lex:
        tag = lex.lookup(entry.synonym_group or entry.surface).chosen
        name = f"tp{tag.value}" if tag in _KEPT_APART[mode] else "tpCONTENT"
        members.setdefault(name, set()).add(entry.surface)

    groups = [HighlightGroup(name, frozenset(words)) for name, words in sorted(members.items())]
    groups.append(HighlightGroup("tpERROR", frozenset(), pattern=_ERROR_PATTERN))
    groups.append(HighlightGroup("tpPROPER", frozenset(), pattern=_proper_pattern()))
    return groups


# --- Vim emission ----------------------------------------------------------

def emit_vim_syntax(scheme: list[HighlightGroup]) -> str:
    """The syntax file: guard, ``syn iskeyword``, a keyword or match line per
    group in scheme order (of two matches at a column the later wins), links."""
    lines = [
        '" Vim syntax file for Toki Pona (generated; edit the generator, not this file)',
        'if exists("b:current_syntax")',
        "  finish",
        "endif",
        "syn iskeyword a-z,A-Z",  # keywords end where tokens do: moku1 holds moku
    ]
    for group in scheme:
        if group.pattern is None:
            lines.append(f"syn keyword {group.name} {' '.join(sorted(group.members))}")
        else:
            lines.append(f"syn match {group.name} {group.pattern}")
    for group in scheme:
        lines.append(f"hi def link {group.name} {DEFAULT_LINKS[group.name]}")
    lines.append(f'let b:current_syntax = "{FILETYPE_NAME}"')
    return "\n".join(lines) + "\n"


def emit_filetype_detect() -> str:
    """Detection rules binding *.tp and *.tokipona to the filetype."""
    return (
        '" Filetype detection for Toki Pona (generated)\n'
        f"au BufRead,BufNewFile *.tp set filetype={FILETYPE_NAME}\n"
        f"au BufRead,BufNewFile *.tokipona set filetype={FILETYPE_NAME}\n"
    )


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


# --- rendering -------------------------------------------------------------

def _render(
    text: str,
    scheme: Optional[list[HighlightGroup]],
    lex: Optional[Lexicon],
    escape: Callable[[str], str],
    paint: Callable[[str, str], str],
) -> str:
    """Replace each token of ``text`` by its escaped text, passed to ``paint``
    with its group; punctuation is only escaped.  Each distinct surface is
    classified, escaped and painted once per call.  The text between tokens
    is whitespace, which ``escape`` leaves alone, so it passes through as it
    is."""
    lex = lex or default_lexicon()
    scheme = scheme if scheme is not None else build_scheme(lex)
    # Reversed, so that the first group listing a word wins.
    group_of = {w: g.name for g in reversed(scheme) for w in g.members}
    chunks: dict[str, str] = {}

    def chunk(m: re.Match) -> str:
        s = m.group()
        out = chunks.get(s)
        if out is None:
            kind, _ = classify(s, lex)
            # Punctuation keeps the default color.
            group = group_of.get(s, "") if kind is TokenKind.WORD else _KIND_GROUPS.get(kind, "")
            out = chunks[s] = paint(group, escape(s)) if group else escape(s)
        return out

    return _TOKEN_RE.sub(chunk, text)


def render_html(
    text: str,
    scheme: Optional[list[HighlightGroup]] = None,
    lex: Optional[Lexicon] = None,
) -> str:
    """A standalone HTML document with one colored span per token."""
    def paint(group: str, chunk: str) -> str:
        color = _HTML_COLORS.get(group, "#d8d8d8")
        return f'<span class="{group}" style="color:{color}">{chunk}</span>'

    return (
        "<!DOCTYPE html>\n"
        '<html><head><meta charset="utf-8"><title>toki pona</title></head>\n'
        '<body style="background:#1d2021;color:#d8d8d8"><pre>'
        + _render(text, scheme, lex, _html.escape, paint)
        + "</pre></body></html>\n"
    )


def render_ansi(
    text: str,
    scheme: Optional[list[HighlightGroup]] = None,
    lex: Optional[Lexicon] = None,
    color_depth: int = 16,
) -> str:
    """The same coloring as terminal SGR escapes (16- or 256-color)."""
    sgr = _SGR.get(color_depth)
    if sgr is None:
        raise ValueError("color_depth must be 16 or 256")

    def paint(group: str, chunk: str) -> str:
        return f"\x1b[{sgr[group]}m{chunk}\x1b[0m" if group in sgr else chunk

    return _render(text, scheme, lex, str, paint)
