"""Vocabulary statistics: POS histograms, syllable and letter frequencies,
word-length distribution, and the sentence-space size formula.

Counts are the source of truth; percentages are exact rationals rendered
with round-half-up at two decimals.  Frequency tables sort by descending
count with alphabetical tie-breaks.
"""

from __future__ import annotations

from collections import Counter
from enum import Enum
from fractions import Fraction
from typing import NamedTuple

from .lexicon import PREPOSITIONS, CheckedRecord, Lexicon, PosTag
from .phonotactics import VOWELS, syllabify

PARTICLE_SLOT_CHOICES = 9 ** 4   # one of 8 particles or none, in each of 4 phrase slots


class Scope(Enum):
    ALL = "all"
    FIRST = "first"
    LAST = "last"
    MIDDLE = "middle"


#: The part of a word's syllables or letters each scope counts.
_SCOPE_SLICE = {
    Scope.ALL: slice(None),
    Scope.FIRST: slice(0, 1),
    Scope.LAST: slice(-1, None),
    Scope.MIDDLE: slice(1, -1),
}


class LetterRestrict(Enum):
    ALL = "all"
    VOWELS = "vowels"
    CONSONANTS = "consonants"


def round_half_up(x: Fraction, digits: int = 2) -> float:
    """Round an exact rational half-up to ``digits`` decimals."""
    scale = 10 ** digits
    return float((x * scale + Fraction(1, 2)).__floor__()) / scale


class FrequencyRow(NamedTuple):
    item: str
    count: int
    percent: float        # display value, round-half-up at 2 decimals
    exact: Fraction       # exact percentage; rows of a scope sum to 100


class PositionalFrequencyTable(NamedTuple):
    scope: Scope
    total: int
    rows: tuple[FrequencyRow, ...]

    def row(self, item: str) -> FrequencyRow:
        """The row of ``item``, or a zero row.  Only the tests call it: they
        check the paper's letter tables with it."""
        for r in self.rows:
            if r.item == item:
                return r
        return FrequencyRow(item, 0, 0.0, Fraction(0))


def _table(counts: Counter, total: int, scope: Scope) -> PositionalFrequencyTable:
    rows = tuple(
        FrequencyRow(
            item, c, round_half_up(Fraction(c * 100, total)), Fraction(c * 100, total)
        )
        for item, c in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    )
    return PositionalFrequencyTable(scope, total, rows)


def pos_histogram(lex: Lexicon) -> list[tuple[PosTag, int, int]]:
    """(tag, incidence over all lemmas, chosen count over the distinct
    ones) per tag, ordered by descending incidence."""
    incidence = lex.tag_incidence()
    chosen = lex.chosen_counts()
    rows = [(tag, incidence[tag], chosen[tag]) for tag in PosTag]
    rows.sort(key=lambda r: (-r[1], r[0].value))
    return rows


def pos_totals(lex: Lexicon) -> tuple[int, int]:
    incidence = lex.tag_incidence()
    chosen = lex.chosen_counts()
    return sum(incidence.values()), sum(chosen.values())


def syllable_frequency(lex: Lexicon, scope: Scope) -> PositionalFrequencyTable:
    """Syllable frequencies over the vocabulary, restricted to ``scope``.

    A one-syllable word counts as both FIRST and LAST, so those scopes
    count every lemma once; MIDDLE covers interior syllables only.
    """
    part = _SCOPE_SLICE[scope]
    counts: Counter = Counter()
    for entry in lex:
        counts.update(s.text for s in syllabify(entry.surface)[part])
    return _table(counts, sum(counts.values()), scope)


def letter_frequency(
    lex: Lexicon,
    scope: Scope,
    restrict: LetterRestrict = LetterRestrict.ALL,
) -> PositionalFrequencyTable:
    """Letter frequencies over all lemmas; scope picks first/last/interior
    letters of each word; restrict renormalizes within vowels or consonants."""
    part = _SCOPE_SLICE[scope]
    counts: Counter = Counter()
    for entry in lex:
        counts.update(entry.surface[part])
    if restrict is LetterRestrict.VOWELS:
        counts = Counter({l: c for l, c in counts.items() if l in VOWELS})
    elif restrict is LetterRestrict.CONSONANTS:
        counts = Counter({l: c for l, c in counts.items() if l not in VOWELS})
    return _table(counts, sum(counts.values()), scope)


def word_length_report(lex: Lexicon) -> dict[int, tuple[int, float]]:
    """Syllable-count distribution over the lemmas: {n: (count, percent)}."""
    counts = Counter(len(syllabify(e.surface)) for e in lex)
    total = len(lex)
    return {
        n: (c, round_half_up(Fraction(c * 100, total)))
        for n, c in sorted(counts.items())
    }


class SentenceSpaceQuery(CheckedRecord, NamedTuple("SentenceSpaceQuery", [
    ("n", int),  # words in the subject phrase
    ("v", int),  # words in the predicate phrase
    ("o", int),  # words in the object phrase
    ("p", int),  # words in the prepositional phrase
    ("with_particles", bool),
])):
    __slots__ = ()

    def __new__(cls, n: int, v: int, o: int, p: int, with_particles: bool = True):
        for name, size in zip("nvop", (n, v, o, p)):
            if size < 0:
                raise ValueError(f"phrase size {name} must be >= 0")
        if n == v == o == p == 0:
            raise ValueError("at least one phrase must be non-empty")
        return super().__new__(cls, n, v, o, p, with_particles)


def sentence_space(lex: Lexicon, q: SentenceSpaceQuery) -> int:
    """Count sentence skeletons with the given phrase sizes, exactly.

    Each phrase word ranges over the lexicon's content words (107 in the
    paper's), the preposition over the 5 prepositions, and (optionally)
    each of the four phrase slots carries one of 8 particles or none.
    Pure integer arithmetic.
    """
    words = q.n + q.v + q.o + q.p
    delta = len(lex.content_words()) ** words * len(PREPOSITIONS)
    if q.with_particles:
        delta *= PARTICLE_SLOT_CHOICES
    return delta


# --- rendering -----------------------------------------------------------

def format_percent(value: float) -> str:
    return f"{value:.2f}"
