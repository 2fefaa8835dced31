"""The vocabulary: loading, lookup, and derived word sets.

The official 124 lemmas live in ``data/lexicon.tsv`` (surface, POS
tags, synonym group, glosses).  Loading checks the structure the other
modules rely on, and holds the bundled file to the paper's figures as
well; it fails loudly on any mismatch.
"""

from __future__ import annotations

from collections import Counter
from enum import Enum
from functools import cache
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Optional

from .phonotactics import CountingMode, validate_word


class PosTag(Enum):
    NOUN = "NOUN"
    ADJECTIVE = "ADJECTIVE"
    VERB = "VERB"
    PARTICLE = "PARTICLE"
    PRE = "PRE"
    PREPOSITION = "PREPOSITION"
    NUMBER = "NUMBER"


#: Order used to pick a single preferential tag out of a lemma's tag set.
CHOSEN_PRECEDENCE = (
    PosTag.PRE,
    PosTag.VERB,
    PosTag.PREPOSITION,
    PosTag.PARTICLE,
    PosTag.ADJECTIVE,
    PosTag.NOUN,
    PosTag.NUMBER,
)

#: Words tagged only PARTICLE: they structure sentences and never carry content.
PURE_PARTICLES = frozenset({"li", "e", "la", "pi", "a", "o", "anu", "en", "seme", "mu"})

#: Words tagged only PREPOSITION.
SOLE_PREPOSITIONS = frozenset({"kepeken", "lon", "tan"})

#: All five prepositions.
PREPOSITIONS = frozenset({"kepeken", "lon", "sama", "tan", "tawa"})

#: The six pre-verbs.
PREVERBS = frozenset({"wile", "ken", "awen", "kama", "lukin", "sona"})

#: Subjects that take no li when they stand alone: the parser and synthesis read them.
LI_LESS_SUBJECTS = ("mi", "sina")

# --- the paper's figures, checked by check_paper_figures ------------------

#: The four synonym pairs, keyed by the pair's primary surface.
SYNONYM_GROUPS = {
    "a": ("a", "kin"),
    "lukin": ("lukin", "oko"),
    "sin": ("sin", "namako"),
    "ale": ("ale", "ali"),
}

LEMMA_COUNT = 124
DISTINCT_COUNT = 120
CONTENT_COUNT = 107

EXPECTED_TAG_INCIDENCE = {
    PosTag.NOUN: 58,
    PosTag.ADJECTIVE: 40,
    PosTag.VERB: 15,
    PosTag.PARTICLE: 12,
    PosTag.PRE: 6,
    PosTag.PREPOSITION: 5,
    PosTag.NUMBER: 4,
}

EXPECTED_CHOSEN_COUNTS = {
    PosTag.NOUN: 49,
    PosTag.ADJECTIVE: 34,
    PosTag.VERB: 13,
    PosTag.PARTICLE: 12,
    PosTag.PRE: 6,
    PosTag.PREPOSITION: 5,
    PosTag.NUMBER: 1,
}


class LexiconError(ValueError):
    """Raised when the lexicon file is malformed or violates an invariant."""


class CheckedRecord:
    """A named tuple base: ``_make``, and so ``_replace``, runs the constructor's checks."""

    __slots__ = ()
    _make = classmethod(lambda cls, it: cls(*it))


class Sense(CheckedRecord, NamedTuple("Sense", [("english_lemmas", tuple[str, ...])])):
    """One dictionary sense: the English glosses it groups together."""

    __slots__ = ()

    def __new__(cls, english_lemmas: tuple[str, ...]):
        if not english_lemmas:
            raise LexiconError("empty sense")
        for g in english_lemmas:
            if not g or g != g.lower().strip():
                raise LexiconError(f"bad gloss {g!r}")
        return super().__new__(cls, english_lemmas)


class Lemma(NamedTuple):
    surface: str
    tags: tuple[PosTag, ...]
    senses: tuple[Sense, ...]
    synonym_group: Optional[str] = None

    @property
    def chosen(self) -> PosTag:
        """The single preferential tag (first precedence hit in ``tags``)."""
        return choose_tag(self.tags)

    @property
    def glosses(self) -> tuple[str, ...]:
        return tuple(g for s in self.senses for g in s.english_lemmas)

    def __str__(self) -> str:
        return self.surface


def choose_tag(tags: Iterable[PosTag]) -> PosTag:
    tags = set(tags)
    for tag in CHOSEN_PRECEDENCE:
        if tag in tags:
            return tag
    raise LexiconError(f"no chosen tag for {tags}")


class Lexicon:
    """Immutable view over the lemmas, with synonym-aware helpers."""

    def __init__(self, entries: Iterable[Lemma]):
        self._entries = tuple(entries)
        self._by_surface = {e.surface: e for e in self._entries}
        self._check_invariants()

    def __iter__(self) -> Iterator[Lemma]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, surface: str) -> bool:
        return surface in self._by_surface

    @property
    def synonym_groups(self) -> dict[str, tuple[str, ...]]:
        groups: dict[str, list[str]] = {}
        for e in self._entries:
            if e.synonym_group:
                groups.setdefault(e.synonym_group, []).append(e.surface)
        return {k: tuple(sorted(v, key=lambda s: (s != k, s))) for k, v in groups.items()}

    def lookup(self, surface: str) -> Optional[Lemma]:
        """Exact lookup.  Every surface passed the strict word rules, which
        allow lowercase letters only, so a capitalized form never matches."""
        return self._by_surface.get(surface)

    def distinct_entries(self) -> tuple[Lemma, ...]:
        """The lemmas left after collapsing each synonym group to its primary."""
        return tuple(
            e for e in self._entries
            if e.synonym_group is None or e.synonym_group == e.surface
        )

    def content_words(self) -> tuple[Lemma, ...]:
        """The distinct words usable inside noun and verb phrases.

        Everything except the ten pure particles and the three words
        that are nothing but prepositions, synonyms collapsed.
        """
        return tuple(
            e for e in self.distinct_entries()
            if e.surface not in PURE_PARTICLES and e.surface not in SOLE_PREPOSITIONS
        )

    def tag_incidence(self) -> dict[PosTag, int]:
        """How many lemmas carry each tag."""
        counts = Counter(t for e in self._entries for t in e.tags)
        return {tag: counts.get(tag, 0) for tag in PosTag}

    def chosen_counts(self) -> dict[PosTag, int]:
        """Chosen-tag histogram over the distinct lemmas."""
        counts = Counter(e.chosen for e in self.distinct_entries())
        return {tag: counts.get(tag, 0) for tag in PosTag}

    def _check_invariants(self) -> None:
        if len(self._by_surface) != len(self._entries):
            dupes = [s for s, c in Counter(e.surface for e in self._entries).items() if c > 1]
            raise LexiconError(f"duplicate lemmas: {dupes}")

        for e in self._entries:
            if not e.tags:
                raise LexiconError(f"{e.surface}: no tags")
            if len(set(e.tags)) != len(e.tags):
                raise LexiconError(f"{e.surface}: duplicate tags")
            check = validate_word(e.surface, CountingMode.STRICT)
            if not check:
                raise LexiconError(f"{e.surface}: {check.reason}")

        for group in self.synonym_groups:
            primary = self._by_surface.get(group)
            if primary is None or primary.synonym_group != group:
                raise LexiconError(f"synonym group {group!r} is not named after one of its members")

        pure = {e.surface for e in self._entries if set(e.tags) == {PosTag.PARTICLE}}
        if pure != PURE_PARTICLES:
            raise LexiconError(f"pure-particle set {sorted(pure)} != {sorted(PURE_PARTICLES)}")
        preps = {e.surface for e in self._entries if set(e.tags) == {PosTag.PREPOSITION}}
        if preps != SOLE_PREPOSITIONS:
            raise LexiconError(f"sole-preposition set {sorted(preps)} != {sorted(SOLE_PREPOSITIONS)}")
        preverbs = {e.surface for e in self._entries if PosTag.PRE in e.tags}
        if preverbs != PREVERBS:
            raise LexiconError(f"pre-verb set {sorted(preverbs)} != {sorted(PREVERBS)}")
        all_preps = {e.surface for e in self._entries if PosTag.PREPOSITION in e.tags}
        if all_preps != PREPOSITIONS:
            raise LexiconError(f"preposition set {sorted(all_preps)} != {sorted(PREPOSITIONS)}")


def check_paper_figures(lex: Lexicon) -> None:
    """Raise ``LexiconError`` unless ``lex`` has the paper's figures: 124
    lemmas, 120 distinct, 107 content words, both tag histograms and the
    four synonym pairs."""
    n = len(lex)
    if n != LEMMA_COUNT:
        raise LexiconError(f"lemma count {n} != {LEMMA_COUNT}")
    d = len(lex.distinct_entries())
    if d != DISTINCT_COUNT:
        raise LexiconError(f"distinct lemma count {d} != {DISTINCT_COUNT}")

    if lex.synonym_groups != SYNONYM_GROUPS:
        raise LexiconError(f"synonym groups {lex.synonym_groups} != {SYNONYM_GROUPS}")

    incidence = lex.tag_incidence()
    for tag, want in EXPECTED_TAG_INCIDENCE.items():
        if incidence[tag] != want:
            raise LexiconError(f"tag incidence for {tag.value}: {incidence[tag]} != {want}")
    chosen = lex.chosen_counts()
    for tag, want in EXPECTED_CHOSEN_COUNTS.items():
        if chosen[tag] != want:
            raise LexiconError(f"chosen count for {tag.value}: {chosen[tag]} != {want}")
    content = len(lex.content_words())
    if content != CONTENT_COUNT:
        raise LexiconError(f"content word count {content} != {CONTENT_COUNT}")


def _parse_senses(field: str) -> tuple[Sense, ...]:
    senses = []
    for chunk in field.split("|"):
        glosses = tuple(g.strip() for g in chunk.split(";") if g.strip())
        if not glosses:
            raise LexiconError(f"empty sense in {field!r}")
        senses.append(Sense(glosses))
    return tuple(senses)


def _parse_row(line: str, lineno: int) -> Lemma:
    cols = line.split("\t")
    if len(cols) != 4:
        raise LexiconError(f"line {lineno}: expected 4 columns, got {len(cols)}")
    surface, tag_field, group, senses_field = (c.strip() for c in cols)
    try:
        tags = tuple(PosTag(t.strip()) for t in tag_field.split(","))
    except ValueError as exc:
        raise LexiconError(f"line {lineno}: {exc}") from None
    return Lemma(
        surface=surface,
        tags=tags,
        senses=_parse_senses(senses_field),
        synonym_group=None if group == "-" else group,
    )


def load_lexicon(path: Optional[str | Path] = None) -> Lexicon:
    """Load and verify the lexicon, from ``path`` or the bundled data file.

    Only the bundled file is held to the paper's figures."""
    bundled = Path(__file__).parent / "data" / "lexicon.tsv"
    text = Path(bundled if path is None else path).read_text("utf-8-sig")

    lines = [
        (i + 1, ln) for i, ln in enumerate(text.splitlines())
        if ln.strip() and not ln.lstrip().startswith("#")
    ]
    if not lines:
        raise LexiconError("empty lexicon file")
    header_no, header = lines[0]
    if header.split("\t")[0].strip() != "surface":
        raise LexiconError(f"line {header_no}: missing header row")
    lex = Lexicon(_parse_row(ln, no) for no, ln in lines[1:])
    if path is None:
        check_paper_figures(lex)
    return lex


@cache
def default_lexicon() -> Lexicon:
    """The bundled lexicon, loaded once."""
    return load_lexicon()
