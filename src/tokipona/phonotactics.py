"""Syllable grammar of Toki Pona: validation, syllabification, word-space counting.

Words are built from 14 letters (5 vowels, 9 consonants).  A syllable is
(C)V(n): an optional consonant onset, a vowel nucleus, and an optional
coda ``n``.  Every syllable after the first must have an onset.  The
sequences ji, wu, wo, ti, nn and nm are forbidden; two counting modes
interpret that list differently (see :class:`CountingMode`).
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from typing import NamedTuple, Optional

VOWELS = frozenset("aeiou")
CONSONANTS = frozenset("jklmnpstw")
ALPHABET = VOWELS | CONSONANTS

#: Onset/nucleus pairs that are never legal in strict mode, with or
#: without a coda.  In paper-compatible counting only the codaless
#: syllables are rejected.
FORBIDDEN_PAIRS = frozenset({("j", "i"), ("w", "u"), ("w", "o"), ("t", "i")})

MAX_SYLLABLES = 6

#: Every punctuation mark the tokenizer reads: the terminators, comma and colon.
PUNCTUATION = ".!?,:"
#: The tokenizer's pattern: a run of letters, a punctuation mark, or any
#: other character that is not a space.
TOKEN_PATTERN = rf"[A-Za-z]+|[{PUNCTUATION}]|\S"


class CountingMode(Enum):
    """How the forbidden-sequence list is applied.

    PAPER_COMPATIBLE rejects exactly the four codaless syllables ji, wu,
    wo, ti and ignores syllable boundaries (so e.g. "jin" and "anna"
    pass).  STRICT rejects the four onset/nucleus pairs with or without
    a coda and additionally the cross-boundary sequences nn and nm.
    """

    PAPER_COMPATIBLE = "paper"
    STRICT = "strict"


class PhonotacticsError(ValueError):
    """Raised when a word cannot be parsed as (C)V(n) syllables."""


class Syllable(NamedTuple):
    onset: Optional[str]
    nucleus: str
    coda_n: bool = False

    @property
    def text(self) -> str:
        return (self.onset or "") + self.nucleus + ("n" if self.coda_n else "")

    def __str__(self) -> str:
        return self.text


class ValidationResult(NamedTuple):
    ok: bool
    reason: Optional[str] = None

    def __bool__(self) -> bool:
        return self.ok


def syllabify(word: str) -> tuple[Syllable, ...]:
    """Parse ``word`` into (C)V(n) syllables.

    The parse is deterministic: a consonant before a vowel is an onset,
    and ``n`` is a coda exactly when it is word-final or followed by a
    consonant.  Non-initial syllables must have an onset.  Raises
    :class:`PhonotacticsError` when no parse exists (adjacent
    consonants other than n+C, a trailing non-n consonant, or a letter
    outside the alphabet).  Forbidden-sequence checks are left to
    :func:`validate_word`.
    """
    if not word:
        raise PhonotacticsError("empty word")
    bad = set(word) - ALPHABET
    if bad:
        raise PhonotacticsError(f"illegal letter {sorted(bad)[0]!r} in {word!r}")

    syllables: list[Syllable] = []
    i = 0
    while i < len(word):
        onset: Optional[str] = None
        if word[i] in CONSONANTS:
            onset = word[i]
            i += 1
        elif syllables:
            raise PhonotacticsError(
                f"{word!r}: syllable {len(syllables) + 1} lacks an onset"
            )
        if i >= len(word) or word[i] not in VOWELS:
            got = word[i] if i < len(word) else "end of word"
            raise PhonotacticsError(f"{word!r}: expected a vowel, got {got!r}")
        nucleus = word[i]
        i += 1
        coda_n = False
        if i < len(word) and word[i] == "n" and (i + 1 == len(word) or word[i + 1] in CONSONANTS):
            coda_n = True
            i += 1
        syllables.append(Syllable(onset, nucleus, coda_n))
    return tuple(syllables)


def _syllable_fault(syl: Syllable, mode: CountingMode) -> Optional[str]:
    """Why ``syl`` is forbidden under ``mode``, or None when it is allowed."""
    if (syl.onset, syl.nucleus) not in FORBIDDEN_PAIRS:
        return None
    if mode is CountingMode.STRICT:
        return f"forbidden sequence {syl.onset}{syl.nucleus}"
    return None if syl.coda_n else f"forbidden syllable {syl.text}"


def _boundary_fault(prev_coda: bool, onset: Optional[str], mode: CountingMode) -> Optional[str]:
    """Why ``onset`` may not follow a syllable (with a coda n when
    ``prev_coda``) under ``mode``, or None when it may."""
    if mode is CountingMode.STRICT and prev_coda and onset in ("n", "m"):
        return f"forbidden sequence n{onset}"
    return None


def validate_word(word: str, mode: CountingMode = CountingMode.STRICT) -> ValidationResult:
    """Check ``word`` against the syllable grammar under ``mode``.

    Never raises; a failure carries a human-readable reason.
    """
    try:
        parsed = syllabify(word)
    except PhonotacticsError as exc:
        return ValidationResult(False, str(exc))

    pairs = zip(parsed, parsed[1:])
    faults = [_syllable_fault(syl, mode) for syl in parsed]
    faults += [_boundary_fault(prev.coda_n, nxt.onset, mode) for prev, nxt in pairs]
    reason = next(filter(None, faults), None)
    return ValidationResult(reason is None, reason)


def validate_proper_noun(word: str) -> bool:
    """True for a transliterated name: one leading capital, strict-valid body."""
    if len(word) < 1 or not word[0].isupper() or not word[0].lower() in ALPHABET:
        return False
    if word[1:] and not word[1:].islower():
        return False
    return bool(validate_word(word.lower(), CountingMode.STRICT))


def _syllable_inventory(initial: bool, mode: CountingMode) -> list[Syllable]:
    onsets: list[Optional[str]] = ([None] if initial else []) + sorted(CONSONANTS)
    syllables = (
        Syllable(onset, nucleus, coda_n)
        for onset in onsets
        for nucleus in sorted(VOWELS)
        for coda_n in (False, True)
    )
    return [syl for syl in syllables if _syllable_fault(syl, mode) is None]


@lru_cache(maxsize=None)
def _tail_counts(mode: CountingMode, prev_coda: bool, remaining: int) -> int:
    if remaining == 0:
        return 1
    return sum(
        _tail_counts(mode, syl.coda_n, remaining - 1)
        for syl in _syllable_inventory(False, mode)
        if _boundary_fault(prev_coda, syl.onset, mode) is None
    )


def count_possible_words(n_syllables: int, mode: CountingMode) -> int:
    """Exact count of distinct valid words with exactly ``n_syllables`` syllables.

    Each word has a unique syllable decomposition (a non-initial
    syllable always owns the consonant before its vowel, and ``n``
    before a consonant can only be a coda), so counting syllable
    sequences counts strings.  The test suite re-derives these values
    by brute-force string enumeration.
    """
    if not 1 <= n_syllables <= MAX_SYLLABLES:
        raise ValueError(f"syllable count must be in 1..{MAX_SYLLABLES}, got {n_syllables}")
    return sum(
        _tail_counts(mode, first.coda_n, n_syllables - 1)
        for first in _syllable_inventory(True, mode)
    )
