"""Highlight schemes from chosen POS tags, with Vim / HTML / ANSI emission.

Every distinct word belongs to exactly one keyword group (synonym pairs
always travel together); proper nouns and errors are matched by patterns.
Emission is byte-deterministic so regenerated files can be diffed.
"""

from __future__ import annotations

import html as _html
import re
from enum import Enum
from functools import cache, lru_cache
from itertools import groupby
from typing import NamedTuple, Optional, Union

from .lexicon import Lexicon, PosTag, default_lexicon
from .phonotactics import (
    CONSONANTS, PUNCTUATION, TOKEN_PATTERN, CountingMode, _boundary_fault, _syllable_inventory,
    validate_proper_noun,
)

#: An error in Vim: a run of letters that no keyword or name claims, or a
#: character that is not a letter, punctuation or space.
_ERROR_PATTERN = rf"/\v\a+|[^A-Za-z{PUNCTUATION}[:space:]]/"

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
#: The tokenizer's pattern as one capturing group: ``split`` keeps the tokens.
_PIECE_RE = re.compile(f"({TOKEN_PATTERN})")


class HighlightGroup(NamedTuple):
    name: str
    members: frozenset[str]
    pattern: Optional[str] = None

    def distinct_size(self, lex: Lexicon) -> int:
        """Member count with synonym pairs collapsed.  Only the tests call it:
        they check the paper's group sizes with it."""
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


# --- rendering -------------------------------------------------------------

@lru_cache(maxsize=1)
def _scheme_of(lex: Lexicon) -> list[HighlightGroup]:
    """The scheme of the last lexicon given without one, or of the bundled
    lexicon when neither was given.  A lexicon is immutable and hashed by
    identity, so one slot builds a caller's scheme once however many texts
    it renders."""
    return build_scheme(lex)


@lru_cache(maxsize=16)
def _painted(groups: tuple[HighlightGroup, ...],
             style: Union[str, int]) -> tuple[dict[str, str], dict[str, str]]:
    """A scheme's ``{word: group}`` map and the chunks of its words and punctuation
    kept in ``style`` ("html", 16 or 256).  The key is the groups, which hash by
    content, so a scheme list changed in place is a new key."""
    # Reversed, so that the first group listing a word wins.
    return {w: g.name for g in reversed(groups) for w in g.members}, {}


def _paint(s: str, group: str, style: Union[str, int]) -> str:
    """``s`` escaped for ``style`` and, when it has a group, colored."""
    if style != "html":
        return f"\x1b[{_SGR[style][group]}m{s}\x1b[0m" if group in _SGR[style] else s
    color = _HTML_COLORS.get(group, "#d8d8d8")
    s = _html.escape(s)
    return f'<span class="{group}" style="color:{color}">{s}</span>' if group else s


def _render(text: str, scheme: Optional[list[HighlightGroup]], lex: Optional[Lexicon],
            style: Union[str, int]) -> str:
    """Replace each token of ``text`` by its escaped text painted with its
    group in ``style`` (see :func:`render_html`); punctuation is only escaped.
    The text is split once into gaps (whitespace, which escaping leaves alone)
    and tokens.  Scheme words and punctuation are painted once per scheme and
    style; any other surface is painted once per call and not kept."""
    if scheme is None:
        scheme = _scheme_of(default_lexicon() if lex is None else lex)
    group_of, chunks = _painted(tuple(scheme), style)
    parts = _PIECE_RE.split(text)  # gap, token, gap, ..., gap
    fresh = {}
    for s in set(parts[1::2]).difference(chunks):
        group = group_of.get(s)
        kept = group is not None or s in PUNCTUATION  # a token is one mark or has none
        if group is None:  # the patterns
            group = "" if kept else "tpPROPER" if validate_proper_noun(s) else "tpERROR"
        (chunks if kept else fresh)[s] = _paint(s, group, style)
    if fresh:
        chunks = {**chunks, **fresh}
    parts[1::2] = map(chunks.__getitem__, parts[1::2])
    return "".join(parts)


def render_html(
    text: str,
    scheme: Optional[list[HighlightGroup]] = None,
    lex: Optional[Lexicon] = None,
) -> str:
    """A standalone HTML document with one colored span per token.

    A token's group is the one the scheme's Vim file gives it: a word of the
    scheme has its keyword group, a punctuation mark none, a valid name
    tpPROPER and anything else tpERROR.  ``lex`` is read only to build a
    scheme when none is given; with neither, the bundled lexicon's is used."""
    return (
        "<!DOCTYPE html>\n"
        '<html><head><meta charset="utf-8"><title>toki pona</title></head>\n'
        '<body style="background:#1d2021;color:#d8d8d8"><pre>'
        + _render(text, scheme, lex, "html")
        + "</pre></body></html>\n"
    )


def render_ansi(
    text: str,
    scheme: Optional[list[HighlightGroup]] = None,
    lex: Optional[Lexicon] = None,
    color_depth: int = 16,
) -> str:
    """The coloring of :func:`render_html` as terminal SGR escapes (16- or
    256-color); ``lex`` only builds a scheme when none is given."""
    if color_depth not in _SGR:
        raise ValueError("color_depth must be 16 or 256")
    return _render(text, scheme, lex, color_depth)
