"""Syllable grammar: parsing, validation, and word-space counting.

The counting operation is checked against an independent brute-force
enumeration that assembles candidate strings from scratch and filters
them with regex/substring rules written straight from the constraints.
"""

import re

import pytest
from hypothesis import given, settings, strategies as hst

from tokipona.phonotactics import (
    CONSONANTS,
    VOWELS,
    CountingMode,
    PhonotacticsError,
    count_possible_words,
    syllabify,
    validate_proper_noun,
    validate_word,
)

PAPER = CountingMode.PAPER_COMPATIBLE
STRICT = CountingMode.STRICT


# --- syllabify -------------------------------------------------------------

@pytest.mark.parametrize(
    "word,expected",
    [
        ("toki", ["to", "ki"]),
        ("sitelen", ["si", "te", "len"]),
        ("kepeken", ["ke", "pe", "ken"]),
        ("anpa", ["an", "pa"]),
        ("linja", ["lin", "ja"]),
        ("esun", ["e", "sun"]),
        ("a", ["a"]),
        ("kalama", ["ka", "la", "ma"]),
        ("nanpa", ["nan", "pa"]),
    ],
)
def test_syllabify_known_words(word, expected):
    assert [s.text for s in syllabify(word)] == expected


@pytest.mark.parametrize("word", ["nnama", "tki", "tok", "x", "", "opn", "aet"])
def test_syllabify_rejects_unparseable(word):
    with pytest.raises(PhonotacticsError):
        syllabify(word)


def test_syllabify_structure_only():
    # Cross-boundary nn parses; the forbidden-sequence rule is a mode concern.
    assert [s.text for s in syllabify("anna")] == ["an", "na"]
    assert not validate_word("anna", STRICT)
    assert validate_word("anna", PAPER)


def test_roundtrip_over_lexicon(lexicon):
    for entry in lexicon:
        assert "".join(s.text for s in syllabify(entry.surface)) == entry.surface


def test_lexicon_words_strict_valid(lexicon):
    for entry in lexicon:
        assert validate_word(entry.surface, STRICT), entry.surface


# --- validate_word ----------------------------------------------------------

def test_validate_examples():
    assert validate_word("pona", STRICT)
    res = validate_word("wuta", STRICT)
    assert not res and "wu" in res.reason
    # "jin" separates the two modes: its syllable is jin, not ji.
    assert validate_word("jin", PAPER)
    assert not validate_word("jin", STRICT)


@pytest.mark.parametrize("bad", ["ji", "wu", "wo", "ti", "jita", "pawu", "lawo", "mati"])
def test_forbidden_pairs_both_modes(bad):
    assert not validate_word(bad, STRICT)
    assert not validate_word(bad, PAPER)


def test_validate_proper_noun():
    assert validate_proper_noun("Pije")
    assert validate_proper_noun("Sonja")
    assert not validate_proper_noun("pije")
    assert not validate_proper_noun("Xena")
    assert not validate_proper_noun("PIje")
    assert not validate_proper_noun("Wu")


# --- counting ----------------------------------------------------------------

def _brute_force_count(n_syllables: int, mode: CountingMode) -> int:
    """Assemble all candidate strings syllable by syllable and filter them
    with rules written independently of the parser."""
    first = [
        c + v + n
        for c in [""] + sorted(CONSONANTS)
        for v in sorted(VOWELS)
        for n in ("", "n")
    ]
    rest = [
        c + v + n
        for c in sorted(CONSONANTS)
        for v in sorted(VOWELS)
        for n in ("", "n")
    ]
    forbidden_pair = re.compile(r"ji|wu|wo|ti")

    def paper_ok(text: str) -> bool:
        # Only the codaless forbidden syllables are rejected.  A trailing n
        # is a coda exactly when followed by a consonant or the word end;
        # an n before a vowel belongs to the next syllable.
        for m in forbidden_pair.finditer(text):
            end = m.end()
            has_coda = (
                end < len(text)
                and text[end] == "n"
                and (end + 1 == len(text) or text[end + 1] not in VOWELS)
            )
            if not has_coda:
                return False
        return True

    def strict_ok(text: str) -> bool:
        return (
            not forbidden_pair.search(text)
            and "nn" not in text
            and "nm" not in text
        )

    accept = paper_ok if mode is PAPER else strict_ok
    words = set()
    stack = [(s, 1) for s in first]
    while stack:
        text, k = stack.pop()
        if k == n_syllables:
            if accept(text):
                words.add(text)
            continue
        for s in rest:
            stack.append((text + s, k + 1))
    return len(words)


@pytest.mark.parametrize(
    "n,mode,expected",
    [
        (1, PAPER, 96),
        (2, PAPER, 8256),
        (3, PAPER, 710016),
        (2, STRICT, 6624),
    ],
)
def test_counts_match_known_values(n, mode, expected):
    assert count_possible_words(n, mode) == expected


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("mode", [PAPER, STRICT])
def test_counts_match_brute_force(n, mode):
    assert count_possible_words(n, mode) == _brute_force_count(n, mode)


def test_count_monotonicity():
    for n in range(1, 5):
        assert count_possible_words(n, STRICT) <= count_possible_words(n, PAPER)


def test_count_range():
    with pytest.raises(ValueError):
        count_possible_words(0, PAPER)
    with pytest.raises(ValueError):
        count_possible_words(7, STRICT)


# --- properties ----------------------------------------------------------------

_first_syllable = hst.tuples(
    hst.sampled_from([""] + sorted(CONSONANTS)),
    hst.sampled_from(sorted(VOWELS)),
    hst.sampled_from(["", "n"]),
).map("".join)

_rest_syllable = hst.tuples(
    hst.sampled_from(sorted(CONSONANTS)),
    hst.sampled_from(sorted(VOWELS)),
    hst.sampled_from(["", "n"]),
).map("".join)


@given(
    first=_first_syllable,
    rest=hst.lists(_rest_syllable, max_size=4),
)
@settings(max_examples=200)
def test_grammatical_words_always_parse(first, rest):
    word = first + "".join(rest)
    parsed = syllabify(word)
    assert "".join(s.text for s in parsed) == word
    assert len(parsed) == 1 + len(rest)
    for syl in parsed[1:]:
        assert syl.onset is not None


@given(hst.text(alphabet="aeioujklmnpstw", min_size=1, max_size=10))
@settings(max_examples=300)
def test_validate_never_raises(word):
    for mode in (PAPER, STRICT):
        result = validate_word(word, mode)
        assert isinstance(result.ok, bool)
        if not result.ok:
            assert result.reason
    # strict acceptance implies paper acceptance outside the coda cases
    if validate_word(word, STRICT):
        stripped_ok = validate_word(word, PAPER)
        assert stripped_ok
