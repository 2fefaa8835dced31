"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see one line per
criterion.  Criterion 11's exact-total checks need a real WordNet 3.0
database (pointed to by WNDB_DIR or an installed copy); without one they
skip and report why, while the subset laws still run against a database
fixture in the genuine WNDB format.
"""

import time

import pytest

from tokipona.grammar import LENIENT, parse_text, pi_readings, render_grouping, tokenize
from tokipona.highlight import (
    MergeMode,
    build_scheme,
    emit_vim_syntax,
)
from tokipona.lexicon import PosTag
from tokipona.phonotactics import CountingMode, count_possible_words
from tokipona.stats import (
    LetterRestrict,
    Scope,
    SentenceSpaceQuery,
    letter_frequency,
    pos_histogram,
    pos_totals,
    sentence_space,
    syllable_frequency,
    word_length_report,
)
from tokipona.synth import PoemSpec, SynthConfig, Synthesizer
from tokipona.wordnet import MappingMode, build_mapping, load_wordnet_db

from conftest import classify_syntax_lines, find_real_wordnet, letter_count
from test_phonotactics import _brute_force_count
from test_grammar import brute_force_groupings, _shapes

_T0 = time.monotonic()


def report(criterion: str, detail: str):
    print(f"PASS {criterion}: {detail}")


def test_criterion_01_word_space_counts():
    paper = CountingMode.PAPER_COMPATIBLE
    strict = CountingMode.STRICT
    assert count_possible_words(1, paper) == 96
    assert count_possible_words(2, paper) == 8256
    assert count_possible_words(3, paper) == 710016
    t0 = time.monotonic()
    strict_counts = []
    for n in (1, 2, 3):
        got = count_possible_words(n, strict)
        oracle = _brute_force_count(n, strict)
        assert got == oracle, (n, got, oracle)
        strict_counts.append(got)
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    report(
        "criterion 1",
        f"paper counts 96/8256/710016; strict {strict_counts} match brute force in {elapsed:.1f}s",
    )


def test_criterion_02_sentence_space(lexicon):
    value = sentence_space(lexicon, SentenceSpaceQuery(1, 1, 1, 1, with_particles=True))
    assert value == 4_300_066_310_805  # exact integer, zero tolerance
    assert isinstance(value, int)
    report("criterion 2", f"sentence space (1,1,1,1 with particles) = {value}")


def test_criterion_03_pos_histogram(lexicon):
    cells = {tag: (a, c) for tag, a, c in pos_histogram(lexicon)}
    expected = {
        PosTag.NOUN: (58, 49),
        PosTag.ADJECTIVE: (40, 34),
        PosTag.VERB: (15, 13),
        PosTag.PARTICLE: (12, 12),
        PosTag.PRE: (6, 6),
        PosTag.PREPOSITION: (5, 5),
        PosTag.NUMBER: (4, 1),
    }
    assert cells == expected
    assert pos_totals(lexicon) == (140, 120)
    report("criterion 3", "all 16 POS histogram cells reproduced, totals 140/120")


def test_criterion_04_syllable_tables(lexicon):
    table = syllable_frequency(lexicon, Scope.ALL)
    assert table.total == 235
    assert len(table.rows) == 68
    rank1 = table.rows[0]
    assert (rank1.item, rank1.count) == ("li", 13)
    assert abs(rank1.percent - 5.53) <= 0.01
    middle = syllable_frequency(lexicon, Scope.MIDDLE)
    assert middle.total == 13
    m1 = middle.rows[0]
    assert (m1.item, m1.count) == ("la", 2)
    assert abs(m1.percent - 15.38) <= 0.01
    report("criterion 4", "syllable tables: li(13, 5.53%), la(2, 15.38%), 235/68/13")


def test_criterion_05_letter_tables(lexicon):
    assert abs(letter_frequency(lexicon, Scope.ALL).row("a").percent - 16.35) <= 0.01
    last_c = letter_frequency(lexicon, Scope.LAST, LetterRestrict.CONSONANTS)
    assert abs(last_c.row("n").percent - 100.00) <= 0.01
    last = letter_frequency(lexicon, Scope.LAST)
    assert abs(last.row("i").percent - 20.97) <= 0.01
    for letter in "jklmpstw":
        assert last.row(letter).percent == 0.00
    report("criterion 5", "letter tables: a 16.35% all, n 100% last-consonant, i 20.97% last")


def test_criterion_06_word_lengths(lexicon):
    dist = word_length_report(lexicon)
    assert {n: c for n, (c, _) in dist.items()} == {1: 26, 2: 85, 3: 13}
    for n, want in ((1, 20.97), (2, 68.55), (3, 10.48)):
        assert abs(dist[n][1] - want) <= 0.01
    report("criterion 6", "word lengths 26/85/13 at 20.97/68.55/10.48%")


def test_criterion_07_corpus_roundtrip(corpus_lines):
    assert corpus_lines
    for line in corpus_lines:
        result = parse_text(line, LENIENT)  # raises on any hard error
        assert [t.surface for t in result.tokens()] == [
            t.surface for t in tokenize(line)
        ]
        assert result.text() == line
    report("criterion 7", f"{len(corpus_lines)} corpus sentences parse and round-trip")


def test_criterion_08_pi_readings():
    checked = 0
    for shape in _shapes(max_tokens=9, max_groups=3):
        words, n = [], 0
        for i, seg in enumerate(shape):
            if i:
                words.append("pi")
            for _ in range(seg):
                words.append(f"w{n}")
                n += 1
        got = {render_grouping(r) for r in pi_readings(words)}
        assert got == brute_force_groupings(words), words
        checked += 1
    two = pi_readings("w1 pi w2 w3 w4 pi w5 w6".split())
    assert len(two) == 2
    report("criterion 8", f"{checked} phrase shapes match brute-force bracketing; two-pi = 2")


def test_criterion_09_synthesis_closure():
    def run(seed):
        s = Synthesizer(SynthConfig(seed=seed))
        return [s.sentence_text() for _ in range(1000)]

    first = run(2024)
    second = run(2024)
    assert first == second  # byte-identical across runs
    for text in first:
        result = parse_text(text)
        assert result.problems() == [], (text, [str(d) for d in result.problems()])

    poem = Synthesizer(SynthConfig(seed=5)).synth_poem(PoemSpec(2, 4, 11))
    for verse in (l for l in poem.splitlines() if l):
        assert letter_count(verse) == 11
    report("criterion 9", "1000 seeded sentences re-parse strictly; poems hit 11 letters/verse")


def test_criterion_10_highlight(lexicon):
    for mode in MergeMode:
        scheme = build_scheme(lexicon, mode)
        keyword_groups = [g for g in scheme if g.pattern is None]
        members = [w for g in keyword_groups for w in g.members]
        assert len(members) == len(set(members)) == 124
        assert sum(g.distinct_size(lexicon) for g in keyword_groups) == 120
        content = emit_vim_syntax(scheme)
        assert content == emit_vim_syntax(build_scheme(lexicon, mode))
        assert all(kind != "unknown" for kind, _ in classify_syntax_lines(content))
    full = build_scheme(lexicon, MergeMode.FULL)
    sizes = {g.name: g.distinct_size(lexicon) for g in full if g.pattern is None}
    assert sizes == {
        "tpNOUN": 49, "tpADJECTIVE": 34, "tpVERB": 13, "tpPARTICLE": 12,
        "tpPRE": 6, "tpPREPOSITION": 5, "tpNUMBER": 1,
    }
    report("criterion 10", "all merge modes partition 120 words; emission deterministic and well-formed")


def test_criterion_11_wordnet_subset_laws(lexicon, wndb_dir):
    db = load_wordnet_db(wndb_dir)
    maps = {mode: build_mapping(lexicon, db, mode) for mode in MappingMode}
    exceptions = 0
    for word, refs in maps[MappingMode.NO_PREPOSITIONS].map.items():
        if not refs <= maps[MappingMode.ALL].map[word]:
            exceptions += 1
    for word, refs in maps[MappingMode.MATCHED_POS].map.items():
        if not refs <= maps[MappingMode.ALL].map[word]:
            exceptions += 1
    assert exceptions == 0
    report("criterion 11 (subset laws)", "NO_PREPOSITIONS and MATCHED_POS are subsets for every lemma")


def test_criterion_11_wordnet_reference_database(lexicon):
    wndb = find_real_wordnet()
    if wndb is None:
        pytest.skip(
            "no WordNet 3.0 database available on this machine "
            "(set WNDB_DIR to a WNdb-3.0 dict directory to run the "
            "117,659-synset and mapping-total checks)"
        )
    db = load_wordnet_db(wndb)
    assert db.total_synsets == 117_659
    targets = {
        MappingMode.ALL: 4027,
        MappingMode.NO_PREPOSITIONS: 3929,
        MappingMode.MATCHED_POS: 2462,
    }
    totals = {}
    for mode, want in targets.items():
        tpw = build_mapping(lexicon, db, mode)
        totals[mode] = tpw.total_synsets
        assert abs(tpw.total_synsets - want) <= 0.10 * want, (mode, tpw.total_synsets)
    report(
        "criterion 11 (reference database)",
        f"117,659 synsets; totals {totals} within 10% of 4027/3929/2462",
    )


def test_criterion_12_runtime_budget():
    elapsed = time.monotonic() - _T0
    assert elapsed < 120.0
    report("criterion 12", f"acceptance module finished in {elapsed:.1f}s (< 120s)")
