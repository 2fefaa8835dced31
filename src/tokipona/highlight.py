"""Highlight schemes from chosen POS tags, with Vim / HTML / ANSI emission.

Every distinct word belongs to exactly one keyword group (synonym pairs
always travel together); proper nouns are matched by a pattern.  Emission
is byte-deterministic so regenerated files can be diffed.
"""

from __future__ import annotations

import html as _html
import re
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

from .grammar import _TOKEN_RE, TokenKind, classify
from .lexicon import Lexicon, PosTag, default_lexicon

PROPER_PATTERN = r"/\v<[A-Z][a-z]*>/"

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


def _merged_name(tag: PosTag, mode: MergeMode) -> str:
    if mode is MergeMode.FULL:
        return f"tp{tag.value}"
    if mode is MergeMode.PARTICLES_VS_REST:
        return "tpPARTICLE" if tag is PosTag.PARTICLE else "tpCONTENT"
    if tag is PosTag.PARTICLE:
        return "tpPARTICLE"
    if tag is PosTag.PREPOSITION:
        return "tpPREPOSITION"
    return "tpCONTENT"


def build_scheme(lex: Lexicon, mode: MergeMode = MergeMode.FULL) -> list[HighlightGroup]:
    """Partition the vocabulary into highlight groups by chosen tag.

    Group membership follows the synonym pair's primary entry so that a
    pair is never split, and the merge mode coalesces groups.  The
    proper-noun group carries a pattern instead of members.
    """
    members: dict[str, set[str]] = {}
    for entry in lex:
        primary_surface = entry.synonym_group or entry.surface
        primary = lex.lookup(primary_surface)
        name = _merged_name(primary.chosen, mode)
        members.setdefault(name, set()).add(entry.surface)

    groups = [HighlightGroup(name, frozenset(words)) for name, words in sorted(members.items())]
    groups.append(HighlightGroup("tpPROPER", frozenset(), pattern=PROPER_PATTERN))
    return groups


# --- Vim emission ----------------------------------------------------------

def emit_vim_syntax(scheme: list[HighlightGroup]) -> str:
    """The syntax file: guard, keyword lines, proper-noun pattern, links."""
    lines = [
        '" Vim syntax file for Toki Pona (generated; edit the generator, not this file)',
        'if exists("b:current_syntax")',
        "  finish",
        "endif",
    ]
    for group in scheme:
        if group.pattern is None:
            words = " ".join(sorted(group.members))
            lines.append(f"syn keyword {group.name} {words}")
    for group in scheme:
        if group.pattern is not None:
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
            if kind is TokenKind.WORD:
                group = group_of.get(s, "")
            elif kind is TokenKind.PROPER:
                group = "tpPROPER"
            elif kind is TokenKind.ERROR:
                group = "tpERROR"
            else:
                group = ""  # punctuation keeps the default color
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
