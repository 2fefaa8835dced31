"""Highlight schemes from chosen POS tags, with Vim / HTML / ANSI emission.

Every distinct word belongs to exactly one keyword group (synonym pairs
always travel together); proper nouns are matched by a pattern.  Emission
is byte-deterministic so regenerated files can be diffed.
"""

from __future__ import annotations

import html as _html
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional

from .grammar import TokenKind, default_lexicon, tokenize
from .lexicon import Lexicon, PosTag

PROPER_PATTERN = r"/\v<[A-Z][a-z]*>/"

FILETYPE_NAME = "tokipona"


class MergeMode(Enum):
    FULL = "full"
    PARTICLES_VS_REST = "particles"
    PARTICLES_PREPS_VS_REST = "particles-preps"


#: Editor groups each highlight group links to by default.  Chosen for
#: contrast on both dark and light schemes: most words (nouns) keep the
#: normal text color, structure words stand out the most.
DEFAULT_LINKS = {
    "tpNOUN": "Normal",
    "tpADJECTIVE": "Identifier",
    "tpVERB": "Function",
    "tpPARTICLE": "Statement",
    "tpPRE": "Special",
    "tpPREPOSITION": "PreProc",
    "tpNUMBER": "Number",
    "tpPROPER": "Constant",
    "tpCONTENT": "Normal",
    "tpERROR": "Error",
}


@dataclass(frozen=True)
class HighlightGroup:
    name: str
    members: frozenset[str]
    link_target: str
    pattern: Optional[str] = None

    def distinct_size(self, lex: Lexicon) -> int:
        """Member count with synonym pairs collapsed."""
        primaries = set()
        for surface in self.members:
            entry = lex.lookup(surface)
            primaries.add(entry.synonym_group or surface)
        return len(primaries)


@dataclass(frozen=True)
class SchemeConfig:
    merge_mode: MergeMode = MergeMode.FULL
    link_map: dict[str, str] = field(default_factory=dict)


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


def build_scheme(lex: Lexicon, cfg: SchemeConfig = SchemeConfig()) -> list[HighlightGroup]:
    """Partition the vocabulary into highlight groups by chosen tag.

    Group membership follows the synonym pair's primary entry so that a
    pair is never split, and the merge mode coalesces groups.  The
    proper-noun group carries a pattern instead of members.
    """
    members: dict[str, set[str]] = {}
    for entry in lex:
        primary_surface = entry.synonym_group or entry.surface
        primary = lex.lookup(primary_surface)
        name = _merged_name(primary.chosen, cfg.merge_mode)
        members.setdefault(name, set()).add(entry.surface)

    for name in cfg.link_map:
        if name not in members and name != "tpPROPER":
            raise ValueError(f"link_map references unknown group {name!r}")

    def link(name: str) -> str:
        return cfg.link_map.get(name, DEFAULT_LINKS[name])

    groups = [
        HighlightGroup(name, frozenset(words), link(name))
        for name, words in sorted(members.items())
    ]
    groups.append(
        HighlightGroup("tpPROPER", frozenset(), link("tpPROPER"), pattern=PROPER_PATTERN)
    )
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
        lines.append(f"hi def link {group.name} {group.link_target}")
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

#: CSS colors per group, readable on a dark background.
DEFAULT_HTML_PALETTE = {
    "tpNOUN": "#d8d8d8",
    "tpADJECTIVE": "#8ec07c",
    "tpVERB": "#fabd2f",
    "tpPARTICLE": "#fb4934",
    "tpPRE": "#d3869b",
    "tpPREPOSITION": "#83a598",
    "tpNUMBER": "#fe8019",
    "tpPROPER": "#b8bb26",
    "tpCONTENT": "#d8d8d8",
    "tpERROR": "#ff0000",
}

#: SGR codes per group for 16-color terminals.
DEFAULT_ANSI_PALETTE = {
    "tpNOUN": "37",
    "tpADJECTIVE": "32",
    "tpVERB": "33",
    "tpPARTICLE": "31",
    "tpPRE": "35",
    "tpPREPOSITION": "36",
    "tpNUMBER": "91",
    "tpPROPER": "92",
    "tpCONTENT": "37",
    "tpERROR": "41",
}

#: 256-color variants (used as "38;5;<n>").
DEFAULT_ANSI256_PALETTE = {
    "tpNOUN": "252",
    "tpADJECTIVE": "108",
    "tpVERB": "214",
    "tpPARTICLE": "167",
    "tpPRE": "175",
    "tpPREPOSITION": "109",
    "tpNUMBER": "208",
    "tpPROPER": "142",
    "tpCONTENT": "252",
    "tpERROR": "196",
}


def _render(
    text: str,
    scheme: Optional[list[HighlightGroup]],
    lex: Optional[Lexicon],
    escape: Callable[[str], str],
    paint: Callable[[str, str], str],
) -> str:
    """Tokenize ``text`` and pass each token's group and escaped text to
    ``paint``; punctuation and the text between tokens are only escaped."""
    lex = lex or default_lexicon()
    scheme = scheme if scheme is not None else build_scheme(lex)
    # Reversed, so that the first group listing a word wins.
    group_of = {w: g.name for g in reversed(scheme) for w in g.members}
    out: list[str] = []
    pos = 0
    for tok in tokenize(text, lex):
        if tok.start > pos:
            out.append(escape(text[pos:tok.start]))
        chunk = escape(text[tok.start:tok.end])
        if tok.kind is TokenKind.WORD:
            group = group_of.get(tok.surface, "")
        elif tok.kind is TokenKind.PROPER:
            group = "tpPROPER"
        elif tok.kind is TokenKind.ERROR:
            group = "tpERROR"
        else:
            group = ""  # punctuation keeps the default color
        out.append(paint(group, chunk) if group else chunk)
        pos = tok.end
    out.append(escape(text[pos:]))
    return "".join(out)


def render_html(
    text: str,
    scheme: Optional[list[HighlightGroup]] = None,
    lex: Optional[Lexicon] = None,
) -> str:
    """A standalone HTML document with one colored span per token."""
    def paint(group: str, chunk: str) -> str:
        color = DEFAULT_HTML_PALETTE.get(group, "#d8d8d8")
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
    if color_depth == 16:
        sgr = DEFAULT_ANSI_PALETTE
    elif color_depth == 256:
        sgr = {g: f"38;5;{code}" for g, code in DEFAULT_ANSI256_PALETTE.items()}
    else:
        raise ValueError("color_depth must be 16 or 256")

    def paint(group: str, chunk: str) -> str:
        return f"\x1b[{sgr[group]}m{chunk}\x1b[0m" if group in sgr else chunk

    return _render(text, scheme, lex, str, paint)
