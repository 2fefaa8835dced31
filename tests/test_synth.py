"""Synthesis: determinism, structural constraints, tracker weighting,
and the closed loop through the strict parser."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as hst

from tokipona.grammar import PiGroup, parse_text
from tokipona.lexicon import PURE_PARTICLES, SOLE_PREPOSITIONS, load_lexicon
from tokipona.synth import (
    ComposeUnit,
    ContextTracker,
    ParagraphSpec,
    PoemSpec,
    SynthConfig,
    SynthError,
    Synthesizer,
    letter_count,
)


def test_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(phrase_len_weights={1: 0.5, 2: 0.4})  # does not sum to 1
    with pytest.raises(ValueError):
        SynthConfig(phrase_len_weights={1: 0.5, 5: 0.5})  # out of range
    with pytest.raises(ValueError):
        SynthConfig(prep_probability=1.5)
    with pytest.raises(ValueError):
        SynthConfig(reuse_bias=-0.1)


def test_tracker_window_eviction():
    t = ContextTracker(capacity=2)
    t.observe("moku"); t.observe("telo"); t.observe("kili")
    assert t.count("moku") == 0
    assert t.count("telo") == 1 and t.count("kili") == 1
    unbounded = ContextTracker()
    for _ in range(5):
        unbounded.observe("moku")
    assert unbounded.count("moku") == 5


def test_phrase_determinism():
    a = Synthesizer(SynthConfig(seed=123))
    b = Synthesizer(SynthConfig(seed=123))
    assert str(a.synth_phrase()) == str(b.synth_phrase())
    single = Synthesizer(SynthConfig(seed=5, phrase_len_weights={1: 1.0}))
    phrase = single.synth_phrase()
    assert len(phrase.words()) == 1


def test_phrase_pi_forced():
    cfg = SynthConfig(seed=9, phrase_len_weights={3: 0.5, 4: 0.5}, pi_probability=1.0)
    s = Synthesizer(cfg)
    for _ in range(20):
        phrase = s.synth_phrase()
        groups = [m for m in phrase.modifiers if isinstance(m, PiGroup)]
        assert groups, phrase.words()
        assert len(list(groups[0].inner.tokens())) >= 2


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
    hits = sum(s.sample_word(s.tracker.copy()) == "moku" for _ in range(n))
    p = 101 / (101 + 106)
    sigma = math.sqrt(n * p * (1 - p))
    assert abs(hits - n * p) <= 3 * sigma, (hits, n * p, sigma)


def _linear_scan_draw(pool, tracker, bias, rng):
    """The draw as a rebuild of every weight and a linear scan."""
    if bias == 0.0 or not tracker.counts:
        return pool[int(rng.random() * len(pool)) % len(pool)]
    weights = [1.0 + bias * tracker.count(w) for w in pool]
    roll = rng.random() * sum(weights)
    acc = 0.0
    for word, weight in zip(pool, weights):
        acc += weight
        if roll < acc:
            return word
    return pool[-1]


_POOL = sorted(e.surface for e in load_lexicon().content_words())
_observed = hst.one_of(
    hst.sampled_from(["moku", "telo", "kili", "pi", "li", "xyz"]), hst.sampled_from(_POOL)
)
# (action, tracker slot, word): observe a word, copy a tracker, or draw from one
_actions = hst.lists(
    hst.tuples(hst.sampled_from(["observe", "copy", "draw"]), hst.integers(0, 7), _observed),
    max_size=60,
)


@given(
    actions=_actions,
    capacity=hst.sampled_from([None, 1, 3]),
    bias=hst.sampled_from([0.3, 0.5, 1.0]),
    seed=hst.integers(0, 2**16),
)
@settings(max_examples=300, deadline=None)
def test_kept_weights_equal_a_rebuild(actions, capacity, bias, seed):
    s = Synthesizer(SynthConfig(seed=seed, reuse_bias=bias), tracker=ContextTracker(capacity))
    trackers = [s.tracker]

    def rebuilt(t):
        return [1.0 + bias * t.count(w) for w in _POOL]

    for action, slot, word in actions:
        t = trackers[slot % len(trackers)]
        if action == "observe":
            others = [(o, list(o.weights(s._pool_index, bias))) for o in trackers if o is not t]
            t.observe(word)
            for o, before in others:
                assert o.weights(s._pool_index, bias) == before
        elif action == "copy":
            trackers.append(t.copy())
        else:
            reference = random.Random()
            reference.setstate(s.rng.getstate())
            expected = _linear_scan_draw(_POOL, t, bias, reference)
            assert s.sample_word(t) == expected
            assert s.rng.getstate() == reference.getstate()
        for o in trackers:
            assert o.weights(s._pool_index, bias) == rebuilt(o)


def test_sampling_unbiased_when_bias_zero():
    cfg = SynthConfig(seed=17, reuse_bias=0.0)
    s = Synthesizer(cfg)
    for _ in range(100):
        s.tracker.observe("moku")
    n = 10_000
    hits = sum(s.sample_word(s.tracker.copy()) == "moku" for _ in range(n))
    p = 1 / 107
    sigma = math.sqrt(n * p * (1 - p))
    assert abs(hits - n * p) <= 3 * sigma


def test_sentence_examples():
    s = Synthesizer(SynthConfig(seed=2, object_count_weights={1: 1.0}))
    clause = s.synth_sentence()
    assert len(clause.predicates[0].objects) == 1

    # a bare mi/sina subject elides li
    for _ in range(200):
        clause = s.synth_sentence()
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
    assert s.tracker.total() > 0


def test_tracker_monotonic_without_window():
    s = Synthesizer(SynthConfig(seed=13))
    seen: dict[str, int] = {}
    for _ in range(50):
        s.sentence_text()
        for word, count in seen.items():
            assert s.tracker.count(word) >= count, word
        seen = dict(s.tracker.counts)


def test_paragraph_unsatisfiable():
    s = Synthesizer(SynthConfig(seed=6))
    with pytest.raises(SynthError):
        s.synth_paragraph(ParagraphSpec(sentences=2, max_letters=5))


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


def test_spec_validation():
    with pytest.raises(ValueError):
        ParagraphSpec(sentences=0)
    with pytest.raises(ValueError):
        PoemSpec(0, 1, 10)
    with pytest.raises(ValueError):
        ContextTracker(capacity=0)


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


def test_compose_picked_words_feed_tracker():
    read, write, _ = _scripted_io(["1\n", "f\n"])
    s = Synthesizer(SynthConfig(seed=90, reuse_bias=1.0))
    assert s.tracker.total() == 0
    text = s.interactive_compose(ComposeUnit.SENTENCE, k=2, read=read, write=write)
    content = [w for w in text.replace(".", "").split() if w not in ("li", "e")]
    assert s.tracker.total() >= len([w for w in content if w not in SOLE_PREPOSITIONS])


def test_compose_rejects_small_k():
    s = Synthesizer(SynthConfig(seed=1))
    with pytest.raises(ValueError):
        s.interactive_compose(k=1)


def test_compose_verse_unit():
    read, write, _ = _scripted_io(["2\n", "f\n"])
    s = Synthesizer(SynthConfig(seed=61))
    text = s.interactive_compose(ComposeUnit.VERSE, k=2, read=read, write=write)
    assert text and "." not in text
