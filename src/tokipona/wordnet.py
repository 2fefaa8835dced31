"""Toki Pona to WordNet synset mapping, plus static hyponym/antonym relations.

Consumes a Princeton WordNet 3.x database directory in the standard WNDB
layout (index.noun/verb/adj/adv and data.* files, space-delimited fields,
8-digit decimal synset offsets).  Loading checks every data line and every
index offset (its count, and that its data file defines it) and names the
file and line of a failure.  Three mappings are built from the lexicon's
English glosses: every reachable synset, the same without
preposition-tagged words, and only synsets whose part of speech matches a
dictionary tag.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Optional

from .lexicon import PURE_PARTICLES, Lexicon, PosTag


class WNPos(str, Enum):
    NOUN = "n"
    VERB = "v"
    ADJ = "a"
    ADV = "r"


_FILE_SUFFIX = {
    WNPos.NOUN: "noun",
    WNPos.VERB: "verb",
    WNPos.ADJ: "adj",
    WNPos.ADV: "adv",
}

_VERSION_RE = re.compile(r"Word[nN]et (\d+\.\d+|\d+) Copyright")


class WordNetError(ValueError):
    """Missing or corrupt database files."""


@dataclass(frozen=True, order=True)
class SynsetRef:
    pos: WNPos
    offset: int

    def key(self) -> str:
        return f"{self.pos.value}{self.offset:08d}"

    def __str__(self) -> str:
        return self.key()


class WordNetDatabase:
    """In-memory index over a WNDB directory: per POS, a lemma -> offsets map."""

    def __init__(self, root: Path):
        self.root = Path(root)
        self._index: dict[WNPos, dict[str, tuple[int, ...]]] = {pos: {} for pos in WNPos}
        self._synsets: dict[WNPos, set[int]] = {pos: set() for pos in WNPos}
        self.version: Optional[str] = None
        self.warnings: list[str] = []
        self._load()

    def _load(self):
        if not self.root.is_dir():
            raise WordNetError(f"{self.root} is not a directory")
        for pos, suffix in _FILE_SUFFIX.items():
            self._load_data(pos, self.root / f"data.{suffix}")
        for pos, suffix in _FILE_SUFFIX.items():
            self._load_index(pos, self.root / f"index.{suffix}")
        if self.version is None:
            self.warnings.append("no version line found in the data files")
        elif self.version != "3.0":
            self.warnings.append(f"database reports version {self.version}, not 3.0")

    def _load_data(self, pos: WNPos, path: Path):
        seen = self._synsets[pos]
        for lineno, line in enumerate(_read_lines(path), 1):
            if line.startswith("  "):  # license header
                m = self.version is None and _VERSION_RE.search(line)
                if m:
                    self.version = m.group(1)
                continue
            fields = line.split(None, 3)
            if len(fields) < 3:
                raise WordNetError(f"{path.name}:{lineno}: truncated synset line")
            try:
                seen.add(int(fields[0]))
            except ValueError:
                raise WordNetError(
                    f"{path.name}:{lineno}: bad synset offset {fields[0]!r}"
                ) from None

    def _load_index(self, pos: WNPos, path: Path):
        synsets, index = self._synsets[pos], self._index[pos]
        for lineno, line in enumerate(_read_lines(path), 1):
            if line.startswith(" "):
                continue
            fields = line.split()
            try:  # a line without a lemma fails at fields[2] alike
                n_synsets = int(fields[2])
                offsets = tuple(map(int, fields[6 + int(fields[3]):]))
            except (IndexError, ValueError) as exc:
                raise WordNetError(f"{path.name}:{lineno}: {exc}") from None
            if len(offsets) != n_synsets:
                raise WordNetError(
                    f"{path.name}:{lineno}: expected {n_synsets} offsets, got {len(offsets)}"
                )
            if not synsets.issuperset(offsets):
                bad = next(o for o in offsets if o not in synsets)
                raise WordNetError(
                    f"{path.name}:{lineno}: offset {bad:08d} not in data.{_FILE_SUFFIX[pos]}"
                )
            index[fields[0]] = offsets

    @property
    def total_synsets(self) -> int:
        return sum(len(s) for s in self._synsets.values())

    def lookup(self, lemma: str, pos: WNPos) -> tuple[int, ...]:
        """Synset offsets for an English lemma; multiword keys use underscores."""
        return self._index[pos].get(lemma.replace(" ", "_"), ())

    def has_lemma(self, lemma: str) -> bool:
        key = lemma.replace(" ", "_")
        return any(key in index for index in self._index.values())


def _read_lines(path: Path) -> list[str]:
    """A file's lines, split only where iterating over it would (not ``splitlines``)."""
    if not path.is_file():
        raise WordNetError(f"missing database file {path.name}")
    with open(path, encoding="utf-8", errors="replace") as fh:
        lines = fh.read().split("\n")
    if not lines[-1]:
        lines.pop()
    return lines


def load_wordnet_db(path: str | Path) -> WordNetDatabase:
    return WordNetDatabase(Path(path))


# --- mapping construction ----------------------------------------------------

class MappingMode(Enum):
    ALL = "all"
    NO_PREPOSITIONS = "noprep"
    MATCHED_POS = "matched"


ALL_POS = frozenset(WNPos)

#: Lookup classes per dictionary tag: adjectives double as adverbs,
#: numbers count as adjectives, prepositions range over every class.
EXPANSION: dict[PosTag, frozenset[WNPos]] = {
    PosTag.NOUN: frozenset({WNPos.NOUN}),
    PosTag.VERB: frozenset({WNPos.VERB}),
    PosTag.ADJECTIVE: frozenset({WNPos.ADJ, WNPos.ADV}),
    PosTag.NUMBER: frozenset({WNPos.ADJ}),
    PosTag.PREPOSITION: ALL_POS,
    PosTag.PARTICLE: frozenset(),
    PosTag.PRE: frozenset(),
}

#: Classes that count as "the same POS" for the matched-POS mapping:
#: the expansion, except that adjectives do not double as adverbs.
MATCHED: dict[PosTag, frozenset[WNPos]] = {**EXPANSION, PosTag.ADJECTIVE: frozenset({WNPos.ADJ})}


@dataclass(frozen=True)
class CoverageGap:
    lemma: str
    gloss: str


@dataclass
class TPWordnet:
    mode: MappingMode
    map: dict[str, frozenset[SynsetRef]]
    coverage_gaps: tuple[CoverageGap, ...]

    @property
    def total_synsets(self) -> int:
        """Distinct synsets across all lemmas."""
        seen: set[SynsetRef] = set()
        for refs in self.map.values():
            seen |= refs
        return len(seen)

    def synsets_of(self, word: str) -> frozenset[SynsetRef]:
        return self.map.get(word, frozenset())


def build_mapping(lex: Lexicon, db: WordNetDatabase, mode: MappingMode) -> TPWordnet:
    """Relate every non-particle lemma to synsets through its English glosses.

    ALL collects everything reachable under the expanded classes;
    NO_PREPOSITIONS additionally drops preposition-tagged lemmas;
    MATCHED_POS keeps only synsets whose class matches a dictionary tag.
    """
    mapping: dict[str, frozenset[SynsetRef]] = {}
    gaps: list[CoverageGap] = []
    for entry in lex:
        if entry.surface in PURE_PARTICLES:
            continue
        if mode is MappingMode.NO_PREPOSITIONS and PosTag.PREPOSITION in entry.tags:
            continue
        classes: frozenset[WNPos] = frozenset().union(
            *(EXPANSION[t] for t in entry.tags)
        )
        matched_classes: frozenset[WNPos] = frozenset().union(
            *(MATCHED[t] for t in entry.tags)
        )
        refs: set[SynsetRef] = set()
        for gloss in entry.glosses:
            hit = False
            for pos in classes:
                for offset in db.lookup(gloss, pos):
                    hit = True
                    refs.add(SynsetRef(pos, offset))
            if not hit:
                gaps.append(CoverageGap(entry.surface, gloss))
        if mode is MappingMode.MATCHED_POS:
            refs = {r for r in refs if r.pos in matched_classes}
        mapping[entry.surface] = frozenset(refs)
    return TPWordnet(mode, mapping, tuple(gaps))


def dump_tsv(tpw: TPWordnet) -> str:
    """One row per (lemma, synset): lemma, mode, pos, 8-digit offset."""
    lines = ["lemma\tmode\tpos\tsynset"]
    for lemma in sorted(tpw.map):
        for ref in sorted(tpw.map[lemma]):
            lines.append(f"{lemma}\t{tpw.mode.value}\t{ref.pos.value}\t{ref.offset:08d}")
    return "\n".join(lines) + "\n"


def coverage_report(tpw: TPWordnet) -> str:
    """Every (lemma, gloss) pair that resolved to zero synsets."""
    if not tpw.coverage_gaps:
        return "all glosses resolved\n"
    lines = [f"{g.lemma}\t{g.gloss}" for g in tpw.coverage_gaps]
    return "\n".join(lines) + "\n"


# --- static relations ---------------------------------------------------------

HYPONYM_PAIRS: tuple[tuple[str, str], ...] = (
    ("jan", "soweli"),
    ("kili", "kasi"),
    ("walo", "kule"),
    ("pimeja", "kule"),
    ("jelo", "kule"),
    ("loje", "kule"),
    ("laso", "kule"),
)

ANTONYM_PAIRS: tuple[tuple[str, str], ...] = (
    ("suno", "mun"),
    ("pona", "jaki"),
    ("pona", "ike"),
    ("sinpin", "monsi"),
    ("lawa", "noka"),
    ("mije", "meli"),
    ("sike", "palisa"),
    ("pana", "kama jo"),
    ("pimeja", "walo"),
    ("weka", "poka"),
    ("sama", "ante"),
    ("ali", "ala"),
    ("anu", "e"),
    ("selo", "insa"),
)


@dataclass(frozen=True)
class RelationTable:
    hyponym_pairs: tuple[tuple[str, str], ...] = HYPONYM_PAIRS
    antonym_pairs: tuple[tuple[str, str], ...] = ANTONYM_PAIRS

    def is_hyponym(self, child: str, parent: str) -> bool:
        return (child, parent) in self.hyponym_pairs

    def is_antonym(self, a: str, b: str) -> bool:
        return (a, b) in self.antonym_pairs or (b, a) in self.antonym_pairs

    def antonyms_of(self, word: str) -> tuple[str, ...]:
        """Single-lemma antonyms; multi-word phrase entries are excluded."""
        out = []
        for a, b in self.antonym_pairs:
            if a == word and " " not in b:
                out.append(b)
            elif b == word and " " not in a:
                out.append(a)
        return tuple(out)


def relations() -> RelationTable:
    return RelationTable()
