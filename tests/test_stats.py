"""Vocabulary statistics against the known reference values, plus the
sentence-space formula with an independent arithmetic oracle."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as hst

from tokipona.stats import (
    LetterRestrict,
    Scope,
    SentenceSpaceQuery,
    letter_frequency,
    pos_histogram,
    pos_totals,
    round_half_up,
    sentence_space,
    syllable_frequency,
    word_length_report,
)
from tokipona.lexicon import (
    PREPOSITIONS,
    PREVERBS,
    PURE_PARTICLES,
    SOLE_PREPOSITIONS,
    Lexicon,
    PosTag,
)


def test_round_half_up():
    assert round_half_up(Fraction(6855, 10000) * 100) == 68.55
    assert round_half_up(Fraction(1, 3) * 100) == 33.33
    assert round_half_up(Fraction(25, 1000) * 100) == 2.5
    # exact halves round up, unlike banker's rounding
    assert round_half_up(Fraction(125, 1000)) == 0.13
    assert round_half_up(Fraction(85, 124) * 100) == 68.55


# --- POS histogram ------------------------------------------------------------

def test_pos_histogram_cells(lexicon):
    rows = {tag: (a, c) for tag, a, c in pos_histogram(lexicon)}
    assert rows[PosTag.NOUN] == (58, 49)
    assert rows[PosTag.ADJECTIVE] == (40, 34)
    assert rows[PosTag.VERB] == (15, 13)
    assert rows[PosTag.PARTICLE] == (12, 12)
    assert rows[PosTag.PRE] == (6, 6)
    assert rows[PosTag.PREPOSITION] == (5, 5)
    assert rows[PosTag.NUMBER] == (4, 1)
    assert pos_totals(lexicon) == (140, 120)


# --- syllable tables ------------------------------------------------------------

def test_syllable_table_all(lexicon):
    table = syllable_frequency(lexicon, Scope.ALL)
    assert table.total == 235
    assert len(table.rows) == 68
    top = [(r.item, r.count, r.percent) for r in table.top(10)]
    assert top == [
        ("li", 13, 5.53), ("la", 10, 4.26), ("ka", 9, 3.83), ("na", 9, 3.83),
        ("pa", 9, 3.83), ("a", 8, 3.40), ("ma", 8, 3.40), ("si", 8, 3.40),
        ("lo", 7, 2.98), ("pi", 6, 2.55),
    ]


def test_syllable_table_first(lexicon):
    table = syllable_frequency(lexicon, Scope.FIRST)
    assert table.total == 124
    top = [(r.item, r.count, r.percent) for r in table.top(10)]
    assert top == [
        ("a", 8, 6.45), ("o", 5, 4.03), ("pi", 5, 4.03), ("ka", 4, 3.23),
        ("la", 4, 3.23), ("pa", 4, 3.23), ("se", 4, 3.23), ("si", 4, 3.23),
        ("su", 4, 3.23), ("i", 3, 2.42),
    ]


def test_syllable_table_last(lexicon):
    table = syllable_frequency(lexicon, Scope.LAST)
    assert table.total == 124
    top = [(r.item, r.count, r.percent) for r in table.top(10)]
    assert top == [
        ("li", 10, 8.06), ("lo", 6, 4.84), ("na", 6, 4.84), ("la", 5, 4.03),
        ("ma", 5, 4.03), ("pa", 5, 4.03), ("ka", 4, 3.23), ("sa", 4, 3.23),
        ("si", 4, 3.23), ("te", 4, 3.23),
    ]


def test_syllable_table_middle(lexicon):
    table = syllable_frequency(lexicon, Scope.MIDDLE)
    assert table.total == 13
    assert table.rows[0] == table.row("la")
    assert (table.rows[0].item, table.rows[0].count, table.rows[0].percent) == ("la", 2, 15.38)
    assert all(r.count == 1 for r in table.rows[1:])
    assert [r.item for r in table.top(10)[1:]] == [
        "je", "ka", "ke", "li", "lu", "ma", "me", "pe", "ta"
    ]


def test_percentages_sum_to_100(lexicon):
    for scope in Scope:
        table = syllable_frequency(lexicon, scope)
        assert sum(r.exact for r in table.rows) == 100


def test_tables_permutation_invariant(lexicon):
    from tokipona.lexicon import Lexicon
    reversed_lex = Lexicon(tuple(reversed(lexicon.entries)))
    for scope in Scope:
        assert syllable_frequency(reversed_lex, scope) == syllable_frequency(lexicon, scope)


# --- letter tables ------------------------------------------------------------

def test_letter_table_all(lexicon):
    table = letter_frequency(lexicon, Scope.ALL)
    assert table.row("a").percent == 16.35
    assert table.row("e").percent == 8.60
    assert table.row("i").percent == 11.53
    assert table.row("n").percent == 10.48
    vowels = letter_frequency(lexicon, Scope.ALL, LetterRestrict.VOWELS)
    assert vowels.row("a").percent == 33.19
    consonants = letter_frequency(lexicon, Scope.ALL, LetterRestrict.CONSONANTS)
    assert consonants.row("n").percent == 20.66
    assert consonants.row("l").percent == 18.18


def test_letter_table_positions(lexicon):
    first = letter_frequency(lexicon, Scope.FIRST)
    assert first.row("a").percent == 8.06
    assert first.row("s").percent == 13.71
    last = letter_frequency(lexicon, Scope.LAST)
    assert last.row("a").percent == 29.03
    assert last.row("i").percent == 20.97
    assert last.row("n").percent == 18.55
    for letter in "jklmpstw":
        assert last.row(letter).count == 0
    last_c = letter_frequency(lexicon, Scope.LAST, LetterRestrict.CONSONANTS)
    assert last_c.row("n").percent == 100.00
    middle = letter_frequency(lexicon, Scope.MIDDLE, LetterRestrict.CONSONANTS)
    assert middle.row("l").percent == 24.17


# --- word lengths ------------------------------------------------------------

def test_word_length_report(lexicon):
    dist = word_length_report(lexicon)
    assert dist == {1: (26, 20.97), 2: (85, 68.55), 3: (13, 10.48)}
    assert sum(c for c, _ in dist.values()) == 124
    assert 4 not in dist


def test_no_middle_syllable_ends_in_n(lexicon):
    from tokipona.phonotactics import syllabify
    for entry in lexicon:
        for syl in syllabify(entry.surface)[1:-1]:
            assert not syl.coda_n, entry.surface


# --- sentence space ------------------------------------------------------------

def test_sentence_space_reference_value(lexicon):
    q = SentenceSpaceQuery(1, 1, 1, 1, with_particles=True)
    assert sentence_space(lexicon, q) == 4_300_066_310_805
    # independent arithmetic: ((107**4) * 5) * (9**4)
    assert sentence_space(lexicon, q) == 107 * 107 * 107 * 5 * 107 * 6561


def test_sentence_space_small_cases(lexicon):
    assert sentence_space(lexicon, SentenceSpaceQuery(1, 0, 0, 0, with_particles=False)) == 535
    assert sentence_space(lexicon, SentenceSpaceQuery(0, 1, 0, 0, with_particles=False)) == 535
    assert sentence_space(lexicon, SentenceSpaceQuery(1, 1, 0, 0, with_particles=False)) == 107 * 107 * 5


def test_sentence_space_empty_disallowed():
    with pytest.raises(ValueError):
        SentenceSpaceQuery(0, 0, 0, 0)
    with pytest.raises(ValueError):
        SentenceSpaceQuery(-1, 1, 0, 0)


def test_sentence_space_no_overflow_wide(lexicon):
    q = SentenceSpaceQuery(4, 4, 4, 4, with_particles=True)
    value = sentence_space(lexicon, q)
    assert value == (107 ** 16) * 5 * (9 ** 4)
    assert value > 10 ** 33  # far beyond 64-bit range, still exact


@given(
    n=hst.integers(0, 6), v=hst.integers(0, 6),
    o=hst.integers(0, 6), p=hst.integers(0, 6),
)
@settings(max_examples=100)
def test_sentence_space_multiplicative(lexicon, n, v, o, p):
    if n + v + o + p == 0:
        return
    base = sentence_space(lexicon, SentenceSpaceQuery(n, v, o, p, with_particles=False))
    doubled = sentence_space(lexicon, SentenceSpaceQuery(2 * n, v, o, p, with_particles=False))
    assert doubled == base * 107 ** n
    with_particles = sentence_space(lexicon, SentenceSpaceQuery(n, v, o, p, with_particles=True))
    assert with_particles == base * 9 ** 4


_CLOSED = PURE_PARTICLES | SOLE_PREPOSITIONS | PREPOSITIONS | PREVERBS


@given(data=hst.data(), q=hst.tuples(*[hst.integers(0, 3)] * 4))
@settings(max_examples=60, deadline=None)
def test_sentence_space_follows_the_loaded_lexicon(lexicon, data, q):
    """Dropping content words outside the closed classes and the synonym
    groups shrinks the sentence space with the content-word count."""
    if sum(q) == 0:
        return
    removable = sorted(
        e.surface for e in lexicon.content_words()
        if e.surface not in _CLOSED and e.synonym_group is None
    )
    dropped = set(data.draw(hst.lists(hst.sampled_from(removable), unique=True)))
    smaller = Lexicon(e for e in lexicon if e.surface not in dropped)
    content = len(smaller.content_words())
    assert content == 107 - len(dropped)
    query = SentenceSpaceQuery(*q, with_particles=False)
    assert sentence_space(smaller, query) == content ** sum(q) * 5

