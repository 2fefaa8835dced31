"""Synthesis: determinism, structural constraints, tracker weighting,
and the closed loop through the strict parser."""

import math
import random
from bisect import bisect_left, bisect_right
from collections import Counter
from importlib import resources
from itertools import accumulate, cycle
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as hst

from tokipona.grammar import PiGroup, parse_text, pi_readings
from tokipona.counting import CountTables, Letters, _Draw
from tokipona import synth
from tokipona.lexicon import (
    PREPOSITIONS,
    PREVERBS,
    PURE_PARTICLES,
    SOLE_PREPOSITIONS,
    Lexicon,
    load_lexicon,
)
from tokipona.stats import SentenceSpaceQuery, sentence_space
from tokipona.synth import (
    ComposeUnit,
    ParagraphSpec,
    PoemSpec,
    SynthConfig,
    SynthError,
    Synthesizer,
)

from conftest import letter_count


def test_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(phrase_len_weights={1: 0.5, 2: 0.4})  # does not sum to 1
    with pytest.raises(ValueError):
        SynthConfig(phrase_len_weights={1: 0.5, 5: 0.5})  # out of range
    with pytest.raises(ValueError):
        SynthConfig(prep_probability=1.5)
    with pytest.raises(ValueError):
        SynthConfig(reuse_bias=-0.1)
    with pytest.raises(ValueError, match="^phrase_len_weights is empty$"):
        SynthConfig(phrase_len_weights={})
    with pytest.raises(ValueError, match="^object_count_weights has negative weights$"):
        SynthConfig(object_count_weights={0: 1.5, 1: -0.5})
    with pytest.raises(ValueError, match=r"^object counts must lie in 0\.\.2$"):
        SynthConfig(object_count_weights={0: 0.5, 3: 0.5})


def test_each_default_session_has_its_own_config():
    """A session made without a config gets a fresh default one, so a change
    to one session's weight tables reaches no later session."""
    first = Synthesizer()
    first.cfg.phrase_len_weights[4] = 5.0
    second = Synthesizer()
    assert second.cfg is not first.cfg and second.cfg == SynthConfig()
    assert second._phrase[1][2][-1] == pytest.approx(1.0)  # the running sums of the shapes


def test_phrase_determinism():
    a = Synthesizer(SynthConfig(seed=123))
    b = Synthesizer(SynthConfig(seed=123))
    assert str(pi_readings(a.phrase_words())[0]) == str(pi_readings(b.phrase_words())[0])
    single = Synthesizer(SynthConfig(seed=5, phrase_len_weights={1: 1.0}))
    phrase = pi_readings(single.phrase_words())[0]
    assert len(phrase.words()) == 1


def test_phrase_pi_forced():
    cfg = SynthConfig(seed=9, phrase_len_weights={3: 0.5, 4: 0.5}, pi_probability=1.0)
    s = Synthesizer(cfg)
    for _ in range(20):
        phrase = pi_readings(s.phrase_words())[0]
        groups = [m for m in phrase.modifiers if isinstance(m, PiGroup)]
        assert groups, phrase.words()
        assert len(list(groups[0].inner.tokens())) >= 2
    # Verses of both readers: at chance 1 one pi, before the last two words; at 0 none.
    for pi in (1.0, 0.0):
        s = Synthesizer(cfg._replace(pi_probability=pi))
        letters = s._tables.verse_support[len(s._tables.verse_support) // 2]
        poem = s.synth_poem(PoemSpec(1, 20, letters))
        for verse in [s.verse_text() for _ in range(40)] + poem.split("\n"):
            words = verse.split()
            assert words.count("pi") == pi and (not pi or words[-3] == "pi"), verse


def test_phrase_text_is_its_one_reading():
    """``synth --kind phrase`` prints the words: they hold at most one
    interior pi, so they have one reading, and it prints as they do."""
    s = Synthesizer(SynthConfig(seed=3, phrase_len_weights={3: 0.5, 4: 0.5}, pi_probability=0.5))
    for _ in range(200):
        words = s.phrase_words()
        (reading,) = pi_readings(words)
        assert str(reading) == " ".join(words)


def test_a_roll_at_the_total_takes_no_option_of_weight_zero():
    """These length weights sum to just under 1, so the largest roll equals
    the total; it takes the last length that has weight, never 4."""
    cfg = SynthConfig(phrase_len_weights={1: 0.7, 2: 0.2, 3: 0.1, 4: 0.0}, pi_probability=0.0)
    s = Synthesizer(cfg)
    s.rng = SimpleNamespace(random=lambda: 1 - 2**-53)  # every roll the largest
    assert s._phrase[1][2][-1] == 1 - 2**-53  # the running sums
    assert len(s.phrase_words()) == 3


def test_phrase_heads_are_content_words():
    s = Synthesizer(SynthConfig(seed=11))
    for _ in range(100):
        words = s.phrase_words()
        for w in words:
            assert w not in PURE_PARTICLES or w == "pi"
            assert w not in SOLE_PREPOSITIONS


def test_tracker_weighting_statistics():
    # With reuse_bias=1 and one word seen 100 times, that word's weight is
    # 101 against 1 for each of the other 106 content words.
    cfg = SynthConfig(seed=31, reuse_bias=1.0)
    s = Synthesizer(cfg)
    for _ in range(100):
        s.tracker.observe("moku")
    n = 10_000
    hits = sum(s._unit(s._read_word)[0][0] == "moku" for _ in range(n))
    p = 101 / (101 + 106)
    sigma = math.sqrt(n * p * (1 - p))
    assert abs(hits - n * p) <= 3 * sigma, (hits, n * p, sigma)


def _linear_scan_draw(pool, counts, bias, rng):
    """The draw as a rebuild of every weight from ``counts`` and a linear
    scan.  The total is a running sum too, as the draw's is: from Python 3.12
    on, ``sum`` of floats is compensated, so it can differ from the running
    sum in the last bit."""
    if bias == 0.0 or not counts:
        return pool[int(rng.random() * len(pool)) % len(pool)]
    weights = [1.0 + bias * counts[w] for w in pool]
    total = 0.0
    for weight in weights:
        total += weight
    roll = rng.random() * total
    acc = 0.0
    for word, weight in zip(pool, weights):
        acc += weight
        if roll < acc:
            return word
    return pool[-1]


_POOL = sorted(e.surface for e in load_lexicon().content_words())
#: A lexicon of the closed classes alone: its pool is the 8 content words
#: among the pre-verbs and prepositions, a power of two.
_SMALL_LEX = Lexicon(
    e for e in load_lexicon()
    if e.surface in PURE_PARTICLES | SOLE_PREPOSITIONS | PREPOSITIONS | PREVERBS
)
_observed = hst.one_of(
    hst.sampled_from(["moku", "telo", "kili", "pi", "li", "xyz"]), hst.sampled_from(_POOL)
)
# (action, session, word): observe a word on a session's tracker, or draw
# from it, over the whole pool (0) or over the small one (1)
_actions = hst.lists(
    hst.tuples(hst.sampled_from(["observe", "draw"]), hst.integers(0, 1), _observed),
    max_size=60,
)


@given(
    actions=_actions,
    bias=hst.sampled_from([0.0, 0.1, 0.3, 0.5, 0.7, 1.0, 0.123456789]),
    seed=hst.integers(0, 2**16),
)
@settings(max_examples=300, deadline=None)
def test_kept_weights_equal_a_rebuild(actions, bias, seed):
    """Every draw takes the linear scan's pick in one roll, and after every
    step each session's tracker keeps ``1 + bias * count`` for each word of
    its pool, in pool order; a word outside the pool leaves the list as it
    was.  One session draws from the 107 content words, the other from 8."""
    cfg = SynthConfig(seed=seed, reuse_bias=bias)
    sessions = (Synthesizer(cfg), Synthesizer(cfg, _SMALL_LEX))
    for action, which, word in actions:
        s = sessions[which]
        if action == "observe":
            kept = list(s.tracker.weights)
            s.tracker.observe(word)
            if word not in s._pool:
                assert s.tracker.weights == kept
        else:
            reference = random.Random()
            reference.setstate(s.rng.getstate())
            expected = _linear_scan_draw(s._pool, s.tracker.counts, bias, reference)
            assert s.sample_word() == expected
            assert s.rng.getstate() == reference.getstate()
        for o in sessions:
            assert o.tracker.weights == [1.0 + bias * o.tracker.counts[w] for w in o._pool]


@pytest.mark.parametrize("bias, uses, u", [
    (0.3, ["moku", "moku", "telo"], 1 - 2**-53),  # the largest roll
    # The last 21 words used once weigh 2 and make the total 128, so the
    # roll 64 lands on the running sum of the first 64 words.
    (1.0, _POOL[-21:], 0.5),
])
def test_a_roll_at_an_edge_is_decided_left_to_right(bias, uses, u):
    s = Synthesizer(SynthConfig(reuse_bias=bias))
    for word in uses:
        s.tracker.observe(word)
    rolls = iter([u, 0.25])
    s.rng = SimpleNamespace(random=rolls.__next__)
    expected = _linear_scan_draw(_POOL, s.tracker.counts, bias, SimpleNamespace(random=lambda: u))
    assert s.sample_word() == expected
    expected = _linear_scan_draw(_POOL, s.tracker.counts, bias,
                                 SimpleNamespace(random=lambda: 0.25))
    assert s.sample_word() == expected
    assert next(rolls, None) is None  # one roll per draw


def _log_draws(s: Synthesizer) -> list:
    """Make ``s`` log each roll of its generator as ("roll", value) and each
    word its tracker observes as ("observe", word), in order."""
    log, random_, observe = [], s.rng.random, s.tracker.observe

    def roll():
        log.append(("roll", random_()))
        return log[-1][1]

    def observed(word):
        log.append(("observe", word))
        observe(word)

    s.rng = SimpleNamespace(random=roll)
    s.tracker.observe = observed
    return log


def _units(log: list) -> list[tuple[list[float], list[str]]]:
    """The log cut into units, each (its rolls, then the words it observed):
    a unit ends where a roll follows an observe."""
    units: list = []
    for kind, value in log:
        if kind == "roll" and (not units or units[-1][1]):
            units.append(([], []))
        units[-1][kind == "observe"].append(value)
    return units


def _ref_pick(values, cumulative, roll):
    """The first value whose running sum exceeds ``roll``, else the last of weight."""
    i = bisect_right(cumulative, roll)
    return values[i if i < len(values) else bisect_left(cumulative, cumulative[-1])]


def _ref_read(s, node, cumulative, words, content):
    """The forward reader as an interpreter of the grammar's data: it reads
    ``node`` on every draw, one call per node, from ``s``'s generator and pool."""
    kind, rng = node[0], s.rng
    if kind == "phrase":
        shapes, _, sums = node[1]
        length, pi = _ref_pick(shapes, sums, rng.random())
        phrase = [_ref_pick(s._pool, cumulative, rng.random() * cumulative[-1])
                  for _ in range(length)]
        content += phrase
        if pi is not None:
            phrase.insert(pi, "pi")
        words += phrase
    elif kind == "seq":
        for item in node[1]:
            _ref_read(s, item, cumulative, words, content)
    elif kind == "lit":
        words.append(node[1])
    elif kind == "word":
        content.append(_ref_pick(s._pool, cumulative, rng.random() * cumulative[-1]))
        words.append(content[-1])
    elif kind == "subject":
        start = len(words)
        _ref_read(s, node[1], cumulative, words, content)
        if len(words) - start != 1 or words[start] not in node[2]:
            words.append(node[3])
    elif kind == "alt":
        nodes, _, sums = node[1]
        _ref_read(s, _ref_pick(nodes, sums, rng.random()), cumulative, words, content)
    else:
        raise ValueError(f"unknown grammar node {kind!r}")


def _ref_words(s, node):
    """A unit read by ``_ref_read`` from the weights at its start; the
    session's tracker observes its content words after it."""
    cumulative = list(accumulate(s.tracker.weights))
    words, content = [], []
    _ref_read(s, node, cumulative, words, content)
    for word in content:
        s.tracker.observe(word)
    return words


def _distribution(keys):
    """A weight table over ``keys``, some weights possibly zero, that sums to
    1 or to just under it, where the largest roll passes the running sums."""
    weights = hst.lists(hst.integers(0, 4), min_size=len(keys), max_size=len(keys)).filter(any)
    return hst.builds(lambda ws, scale: {k: w / sum(ws) * scale for k, w in zip(keys, ws)},
                      weights, hst.sampled_from([1.0, 1 - 1e-12]))


@given(
    phrase_lens=_distribution([1, 2, 3, 4]),
    object_counts=_distribution([0, 1, 2]),
    prep=hst.sampled_from([0.0, 0.2, 1.0]),
    pi=hst.sampled_from([0.0, 0.1, 0.5, 1.0]),
    bias=hst.sampled_from([0.0, 0.5, 1.0]),
    rolls=hst.lists(hst.one_of(hst.floats(0, 1, exclude_max=True), hst.just(1 - 2**-53)),
                    min_size=1, max_size=12),
    units=hst.lists(hst.sampled_from(["sentence", "verse", "phrase", "word"]), max_size=12),
)
@settings(max_examples=300, deadline=None)
def test_the_compiled_reader_draws_as_the_grammar_reads(
        phrase_lens, object_counts, prep, pi, bias, rolls, units):
    """Each unit, read by the reader compiled from the grammar, gives the
    words that reading the grammar's data on every draw gives, from the same
    rolls in the same order, and its tracker observes the same content words.
    The rolls cycle through ``rolls``, which may hold the largest roll, so it
    can fall on any choice or word, where only a table's last entry of weight
    may be taken."""
    cfg = SynthConfig(phrase_len_weights=phrase_lens, object_count_weights=object_counts,
                      prep_probability=prep, pi_probability=pi, reuse_bias=bias)
    s, ref = Synthesizer(cfg), Synthesizer(cfg)
    logs = []
    for session in (s, ref):
        session.rng = SimpleNamespace(random=cycle(rolls).__next__)
        logs.append(_log_draws(session))
    for unit in units:
        if unit == "sentence":
            assert s.sentence_text() == " ".join(_ref_words(ref, ref._sentence)) + "."
        elif unit == "verse":
            assert s.verse_text() == " ".join(_ref_words(ref, ref._verse))
        elif unit == "phrase":
            assert s.phrase_words() == _ref_words(ref, ref._phrase)
        else:
            assert s.sample_word() == _ref_words(ref, ("word",))[0]
        assert logs[0] == logs[1]
    assert s.tracker.counts == ref.tracker.counts


@pytest.mark.parametrize("bias", [0.5, 1.0])
def test_a_unit_draws_from_the_weights_at_its_start(bias):
    """A phrase, sentence or verse call, and each verse of a poem and each
    sentence of a paragraph, rolls all it needs before it observes its
    content words; a call's content words are the linear scan's picks over
    the weights at its start, in the order of its rolls."""
    s = Synthesizer(SynthConfig(seed=5, reuse_bias=bias))
    for word in _POOL[::3] + ["moku"] * 5:
        s.tracker.observe(word)
    log = _log_draws(s)
    for draw in (s.phrase_words, s.sentence_text, s.verse_text) * 10:
        log.clear()
        start = Counter(s.tracker.counts)
        text = draw()
        [(rolls, observed)] = _units(log)
        if draw != s.sentence_text:  # phrases and verses hold no preposition or e
            words = text if isinstance(text, list) else text.split()
            assert observed == [w for w in words if w not in ("li", "pi")]
        picks = iter(rolls)
        for word in observed:
            assert any(_linear_scan_draw(_POOL, start, bias, SimpleNamespace(random=lambda: r))
                       == word for r in picks), (text, word)

    log.clear()
    poem = s.synth_poem(PoemSpec(2, 3, 14))
    verses = poem.replace("\n\n", "\n").split("\n")
    assert [observed for _, observed in _units(log)] == [
        [w for w in verse.split() if w not in ("li", "pi")] for verse in verses]

    log.clear()
    paragraph = s.synth_paragraph(ParagraphSpec(4, 40, 160))
    units, sentences = _units(log), paragraph.split(". ")
    assert len(units) == len(sentences) == 4
    for (_, observed), sentence in zip(units, sentences):
        words = iter(sentence.rstrip(".").split())
        assert all(w in words for w in observed)  # in the sentence, in order


def test_sampling_unbiased_when_bias_zero():
    cfg = SynthConfig(seed=17, reuse_bias=0.0)
    s = Synthesizer(cfg)
    for _ in range(100):
        s.tracker.observe("moku")
    n = 10_000
    hits = sum(s._unit(s._read_word)[0][0] == "moku" for _ in range(n))
    p = 1 / 107
    sigma = math.sqrt(n * p * (1 - p))
    assert abs(hits - n * p) <= 3 * sigma


def test_sentence_examples():
    s = Synthesizer(SynthConfig(seed=2, object_count_weights={1: 1.0}))
    clause = parse_text(s.sentence_text()).clauses[0]
    assert len(clause.predicates[0].objects) == 1

    # a bare mi/sina subject elides li
    for _ in range(200):
        clause = parse_text(s.sentence_text()).clauses[0]
        subj = clause.subject
        if subj and subj.head.surface in ("mi", "sina") and not subj.modifiers:
            assert clause.li_elided
            assert clause.predicates[0].marker is None
        elif subj:
            assert clause.predicates[0].marker is not None


def test_sentence_closure_strict():
    s = Synthesizer(SynthConfig(seed=77))
    for _ in range(300):
        text = s.sentence_text()
        result = parse_text(text)
        assert result.problems() == [], (text, [str(d) for d in result.problems()])


def test_paragraph_structure_and_bounds():
    s = Synthesizer(SynthConfig(seed=4))
    text = s.synth_paragraph(ParagraphSpec(sentences=3))
    assert text.count(".") == 3
    bounded = Synthesizer(SynthConfig(seed=4)).synth_paragraph(
        ParagraphSpec(sentences=1, max_letters=40)
    )
    assert letter_count(bounded) <= 40

    a = Synthesizer(SynthConfig(seed=80)).synth_paragraph(ParagraphSpec(sentences=4))
    b = Synthesizer(SynthConfig(seed=80)).synth_paragraph(ParagraphSpec(sentences=4))
    assert a == b


def test_paragraph_shares_tracker():
    cfg = SynthConfig(seed=1, reuse_bias=1.0)
    s = Synthesizer(cfg)
    s.synth_paragraph(ParagraphSpec(sentences=3))
    assert sum(s.tracker.counts.values()) > 0


def test_tracker_monotonic_without_window():
    s = Synthesizer(SynthConfig(seed=13))
    seen: dict[str, int] = {}
    for _ in range(50):
        s.sentence_text()
        for word, count in seen.items():
            assert s.tracker.counts[word] >= count, word
        seen = dict(s.tracker.counts)


def test_paragraph_unsatisfiable():
    s = Synthesizer(SynthConfig(seed=6))
    state = s.rng.getstate()
    with pytest.raises(SynthError, match="^1 sentence needs at least 2 words and 4 letters$"):
        s.synth_paragraph(ParagraphSpec(sentences=1, max_words=1))
    with pytest.raises(SynthError, match="^2 sentences need at least 4 words and 8 letters$"):
        s.synth_paragraph(ParagraphSpec(sentences=2, max_letters=5))
    with pytest.raises(SynthError, match="^3 sentences need at least 6 words and 12 letters$"):
        s.synth_paragraph(ParagraphSpec(sentences=3, max_words=5))
    assert s.rng.getstate() == state


def test_poem_exact_letter_counts():
    s = Synthesizer(SynthConfig(seed=3))
    poem = s.synth_poem(PoemSpec(stanzas=2, verses_per_stanza=4, phonemes_per_verse=12))
    lines = poem.split("\n")
    assert lines.count("") == 1  # one stanza break
    verses = [l for l in lines if l]
    assert len(verses) == 8
    for verse in verses:
        assert letter_count(verse) == 12


def test_poem_determinism_and_error():
    a = Synthesizer(SynthConfig(seed=10)).synth_poem(PoemSpec(1, 3, 15))
    b = Synthesizer(SynthConfig(seed=10)).synth_poem(PoemSpec(1, 3, 15))
    assert a == b
    with pytest.raises(SynthError):
        Synthesizer(SynthConfig(seed=10)).synth_poem(PoemSpec(1, 1, 1))


# --- counting draws -------------------------------------------------------------

def _reference_verse_text(synth):
    """``Synthesizer.verse_text`` as it was when poems were drawn by
    rejection: the grammar the verse table must model."""
    if synth.rng.random() < 0.5:
        return " ".join(synth.phrase_words())
    subject = synth.sample_word()
    words = [subject]
    if subject not in ("mi", "sina"):
        words.append("li")
    words += synth.phrase_words()
    return " ".join(words)


def _shape(text):
    """Structure and word lengths: particles as themselves, other words as
    their letter counts."""
    particles = {"li", "pi", "e", "lon", "tan", "kepeken", "sama", "tawa"}
    return tuple(w if w in particles else len(w) for w in text.rstrip(".").split())


def _assert_same_distribution(a: Counter, b: Counter):
    """Two samples agree bin by bin within 4.5 standard errors."""
    na, nb = sum(a.values()), sum(b.values())
    for key in a.keys() | b.keys():
        pooled = (a[key] + b[key]) / (na + nb)
        se = math.sqrt(pooled * (1 - pooled) * (1 / na + 1 / nb))
        assert abs(a[key] / na - b[key] / nb) <= 4.5 * se + 1e-12, (key, a[key], b[key])


def test_verse_table_letter_distribution():
    table = Synthesizer(SynthConfig(reuse_bias=0.0)).verse_letters()
    assert [n for n, p in enumerate(table) if p > 0] == list(range(2, 40))
    assert math.isclose(sum(table), 1.0)
    assert round(1 / table[22]) == 132
    assert round(1 / table[30], -3) == 43_000


def test_verse_table_agrees_with_drawn_verses():
    s = Synthesizer(SynthConfig(seed=41, reuse_bias=0.0))
    table = s.verse_letters()
    n = 40_000
    drawn = Counter(letter_count(_reference_verse_text(s)) for _ in range(n))
    for letters in range(max(len(table), max(drawn) + 1)):
        p = table[letters] if letters < len(table) else 0.0
        assert abs(drawn[letters] - n * p) <= 4 * math.sqrt(n * p * (1 - p)) + 1, letters


_OTHER_GRAMMAR = dict(
    prep_probability=0.5, pi_probability=0.5, object_count_weights={0: 0.2, 2: 0.8}
)


@pytest.mark.parametrize("grammar", [{}, _OTHER_GRAMMAR])
def test_sentence_table_agrees_with_drawn_sentences(grammar):
    s = Synthesizer(SynthConfig(seed=47, reuse_bias=0.0, **grammar))
    table = s._tables.distribution(s._sentence, [1.0] * len(s._pool))
    assert math.isclose(sum(table.values()), 1.0)
    n = 40_000
    texts = (s.sentence_text() for _ in range(n))
    drawn = Counter((len(text.split()), letter_count(text)) for text in texts)
    # (words, letters) bins expected fewer than 5 times are pooled into one.
    rare = [key for key in table.keys() | drawn.keys() if n * table.get(key, 0.0) < 5]
    bins = {key: (drawn[key], table[key]) for key in table if key not in rare}
    bins["rare"] = sum(drawn[key] for key in rare), sum(table.get(key, 0.0) for key in rare)
    assert len(bins) > 100
    for key, (count, p) in bins.items():
        assert abs(count - n * p) <= 4 * math.sqrt(n * p * (1 - p)) + 1, key


def test_fixed_target_matches_rejection():
    # At bias 0 freezing the weights changes nothing, so a verse drawn by
    # counting must be distributed as one drawn until it fits.
    target, n = 14, 2500
    counted = Synthesizer(SynthConfig(seed=42, reuse_bias=0.0))
    by_counting = Counter(_shape(counted.synth_poem(PoemSpec(1, 1, target))) for _ in range(n))
    reference = Synthesizer(SynthConfig(seed=43, reuse_bias=0.0))
    by_rejection: Counter = Counter()
    while sum(by_rejection.values()) < n:
        verse = _reference_verse_text(reference)
        if letter_count(verse) == target:
            by_rejection[_shape(verse)] += 1
    _assert_same_distribution(by_counting, by_rejection)


def test_bounded_sentence_matches_rejection():
    # A paragraph's sentence is drawn conditioned on fitting its bounds.
    spec, n = ParagraphSpec(1, max_words=6, max_letters=20), 2500
    counted = Synthesizer(SynthConfig(seed=44, reuse_bias=0.0))
    by_counting = Counter(_shape(counted.synth_paragraph(spec)) for _ in range(n))
    reference = Synthesizer(SynthConfig(seed=45, reuse_bias=0.0))
    by_rejection: Counter = Counter()
    while sum(by_rejection.values()) < n:
        text = reference.sentence_text()
        if len(text.split()) <= 6 and letter_count(text) <= 20:
            by_rejection[_shape(text)] += 1
    _assert_same_distribution(by_counting, by_rejection)


def test_every_feasible_verse_length_is_drawn():
    s = Synthesizer(SynthConfig(seed=12))
    for target in range(2, 40):
        poem = s.synth_poem(PoemSpec(1, 2, target))
        assert [letter_count(v) for v in poem.split("\n")] == [target, target]
        assert parse_text(poem.replace("\n", ". ") + ".").problems() == [], poem


def test_infeasible_verse_fails_at_once():
    s = Synthesizer(SynthConfig(seed=12))
    s.synth_poem(PoemSpec(1, 1, 30))
    state, counts = s.rng.getstate(), Counter(s.tracker.counts)
    for target in (40, 1):
        with pytest.raises(SynthError, match=f"^verses have 2–39 letters, not {target}$"):
            s.synth_poem(PoemSpec(1, 1, target))
    assert s.rng.getstate() == state
    assert s.tracker.counts == counts


def test_bounded_sentences_fit():
    s = Synthesizer(SynthConfig(seed=46, prep_probability=0.5, pi_probability=0.5))
    for max_words in range(2, 11):
        for max_letters in range(4, 34, 2):
            for _ in range(8):
                text = s.synth_paragraph(ParagraphSpec(1, max_words, max_letters))
                assert len(text.split()) <= max_words and letter_count(text) <= max_letters, text


@pytest.mark.parametrize("seed", range(8))
def test_tight_paragraphs_fit(seed):
    rng = random.Random(seed)
    s = Synthesizer(SynthConfig(seed=seed))
    for sentences in range(1, 7):
        max_words, max_letters = rng.randint(2, 7) * sentences, rng.randint(4, 28) * sentences
        spec = ParagraphSpec(sentences, max_words, max_letters)
        text = s.synth_paragraph(spec)
        assert text.count(".") == sentences
        assert len(text.split()) <= spec.max_words and letter_count(text) <= spec.max_letters
        assert parse_text(text).problems() == [], text


def _other_lexicon(tmp_path):
    """The bundled lexicon without akesi and alasa, with kijetesantakalu."""
    text = resources.files("tokipona").joinpath("data/lexicon.tsv").read_text("utf-8")
    lines = [l for l in text.splitlines() if l.split("\t")[0] not in ("akesi", "alasa")]
    path = tmp_path / "other.tsv"
    path.write_text("\n".join(lines + ["kijetesantakalu\tNOUN\t-\traccoon"]) + "\n", "utf-8")
    return load_lexicon(path)


def _skeleton_support(s, n, v, o, p):
    """Distinct sentences with phrase sizes (n, v, o, p), one object, one
    preposition and no pi, counted from the grammar that both readers read
    and from the count tables built from it."""
    subject, predicate, objects, preposition = s._sentence[1]
    ((e, object_phrase),) = [seq[1] for seq in objects[1][0] if len(seq[1]) == 2]
    (absent, present), (_, chance), _ = preposition[1]
    prepositions, preposition_phrase = present[1]
    assert subject[0] == "subject" and e == ("lit", "e") and objects[0] == "alt"
    assert absent == ("seq", ()) and chance > 0
    assert prepositions[0] == "alt" and all(lit[0] == "lit" for lit in prepositions[1][0])
    phrases = (n, subject[1]), (v, predicate), (o, object_phrase), (p, preposition_phrase)
    for size, phrase in phrases:
        shapes, weights, _ = phrase[1]
        assert phrase[0] == "phrase" and (size, None) in shapes
        assert all(w == 0.0 for (_, pi), w in zip(shapes, weights) if pi is not None)
    tables = s._tables
    # A one-word subject is drawn from the pool by the sentence's first choice.
    one_word = tables._point((s._sentence,))[3][1]
    subjects = sum(len(idx) for _, idx, _ in one_word) if n == 1 else 1
    free = n + v + o + p - (n == 1)
    count = Letters([(length, len(idx)) for length, idx in tables.by_length], 15 * free, False)
    sequences = sum(count(free, letters) for letters in range(count.hi * free + 1))
    return subjects * sequences * len(prepositions[1][0])


@pytest.mark.parametrize("sizes", [(1, 1, 1, 1), (2, 1, 1, 1), (1, 2, 3, 1), (3, 1, 2, 2)])
def test_sentence_support_is_the_sentence_space(sizes, tmp_path):
    for lex in (load_lexicon(), _other_lexicon(tmp_path)):
        s = Synthesizer(SynthConfig(pi_probability=0.0), lex)
        expected = sentence_space(lex, SentenceSpaceQuery(*sizes, with_particles=False))
        assert _skeleton_support(s, *sizes) == expected
    assert expected == 106 ** sum(sizes) * 5


def test_a_budget_that_every_word_fits_counts_all_the_weight():
    """Up to ``hi * n`` letters, n words all fit: the count is exactly 1.0,
    not the row's float total, which under a reuse bias is off in the last
    bits."""
    s = Synthesizer(SynthConfig(seed=0, reuse_bias=0.7))
    for _ in range(5):
        s.sample_word()
    shares = _Draw(s._tables, None, s.tracker.weights, math.inf, 0, at_most=False).shares
    hi = shares[-1][0]
    count = Letters(shares, hi * 19, at_most=True)
    assert [count(n, hi * n) for n in range(1, 20)] == [1.0] * 19
    assert any(count.row(n)[hi * n] != 1.0 for n in range(1, 20))


def test_a_malformed_grammar_node_is_refused():
    """An unknown kind, or one of the choice kinds ``alt`` replaced, is
    refused by both readers."""
    s = Synthesizer(SynthConfig(seed=0))
    for node in (("nope",), ("maybe", 0.5, ("lit", "a")),
                 ("repeat", ((1,), (1.0,), (1.0,)), ("lit", "a")), ("one_of", ("a",))):
        with pytest.raises(ValueError, match=f"^unknown grammar node '{node[0]}'$"):
            synth._reader(node, s._pool)
        with pytest.raises(ValueError, match=f"^no counted reading of a '{node[0]}' node here$"):
            CountTables(node, s._verse, s._pool)._point((node,))
    tables = CountTables(s._sentence, s._verse, s._pool)
    late_subject = ("seq", (s._phrase, ("subject", ("word",), ("mi", "sina"), "li")))
    with pytest.raises(ValueError, match="^a one-word subject must open its unit$"):
        tables.fit(late_subject, random.Random(0), s.tracker.weights, 30, 120, at_most=True)


def test_verse_range_follows_the_lexicon(tmp_path):
    s = Synthesizer(SynthConfig(seed=3), _other_lexicon(tmp_path))
    longest = 15 + 2 + 4 * 15 + 2  # kijetesantakalu li, four of it and pi
    poem = s.synth_poem(PoemSpec(1, 1, longest))
    assert poem.split() == ["kijetesantakalu", "li", *["kijetesantakalu"] * 2, "pi",
                            *["kijetesantakalu"] * 2]
    # Words of 2-7 letters and one of 15 leave gaps near the top.
    for target in (72, 78, 80):
        with pytest.raises(SynthError, match=f"^verses have 2–71, 77, 79 letters, not {target}$"):
            s.synth_poem(PoemSpec(1, 1, target))


def test_spec_validation():
    with pytest.raises(ValueError):
        ParagraphSpec(sentences=0)
    with pytest.raises(ValueError, match="^bounds must be positive$"):
        ParagraphSpec(2, max_words=0)
    with pytest.raises(ValueError):
        PoemSpec(0, 1, 10)


# --- interactive composition ---------------------------------------------------

def _scripted_io(replies):
    replies = iter(replies)
    output: list[str] = []

    def read():
        try:
            return next(replies)
        except StopIteration:
            return ""

    return read, output.append, output


def test_compose_deterministic_given_choices():
    def run():
        read, write, log = _scripted_io(["1\n", "2\n", "f\n"])
        s = Synthesizer(SynthConfig(seed=55))
        text = s.interactive_compose(ComposeUnit.SENTENCE, k=3, read=read, write=write)
        return text, log

    t1, log1 = run()
    t2, log2 = run()
    assert t1 == t2
    assert log1 == log2
    assert t1.count(".") == 2  # two accepted sentences


def test_compose_reroll_gives_fresh_candidates():
    read, write, log = _scripted_io(["r\n", "1\n", "f\n"])
    s = Synthesizer(SynthConfig(seed=21))
    text = s.interactive_compose(ComposeUnit.SENTENCE, k=2, read=read, write=write)
    assert text.count(".") == 1
    joined = "".join(log)
    first_round = joined.split("pick")[0]
    second_round = joined.split("reroll, f to finish> ")[1].split("pick")[0]
    assert first_round != second_round


def test_compose_channel_closed_returns_partial():
    read, write, _ = _scripted_io(["1\n"])  # then EOF
    s = Synthesizer(SynthConfig(seed=33))
    text = s.interactive_compose(ComposeUnit.SENTENCE, k=2, read=read, write=write)
    assert text.count(".") == 1


def test_compose_ends_on_a_reader_error_and_names_a_bad_reply():
    replies = ["9\n", "x\n"]

    def read():
        if not replies:
            raise EOFError
        return replies.pop(0)

    log: list[str] = []
    s = Synthesizer(SynthConfig(seed=4))
    assert s.interactive_compose(ComposeUnit.VERSE, k=2, read=read, write=log.append) == ""
    assert "".join(log).count("unrecognized reply\n") == 2
    assert sum(s.tracker.counts.values()) == 0


def test_compose_picked_words_feed_tracker():
    read, write, _ = _scripted_io(["1\n", "f\n"])
    s = Synthesizer(SynthConfig(seed=90, reuse_bias=1.0))
    assert sum(s.tracker.counts.values()) == 0
    text = s.interactive_compose(ComposeUnit.SENTENCE, k=2, read=read, write=write)
    content = [w for w in text.replace(".", "").split() if w not in ("li", "e")]
    assert sum(s.tracker.counts.values()) >= len([w for w in content if w not in SOLE_PREPOSITIONS])


def test_compose_observes_its_picks_on_the_session_tracker():
    """A pick's content words are observed on the session's tracker, and
    nothing else is: a verse holds no preposition or e."""
    read, write, _ = _scripted_io(["2\n", "r\n", "1\n", "f\n"])
    s = Synthesizer(SynthConfig(seed=3))
    text = s.interactive_compose(ComposeUnit.VERSE, k=3, read=read, write=write)
    assert sum(s.tracker.counts.values()) > 0
    assert s.tracker.counts == Counter(w for w in text.split() if w not in ("li", "pi"))


def test_compose_rejects_small_k():
    s = Synthesizer(SynthConfig(seed=1))
    with pytest.raises(ValueError):
        s.interactive_compose(k=1)


def test_compose_verse_unit():
    read, write, _ = _scripted_io(["2\n", "f\n"])
    s = Synthesizer(SynthConfig(seed=61))
    text = s.interactive_compose(ComposeUnit.VERSE, k=2, read=read, write=write)
    assert text and "." not in text
