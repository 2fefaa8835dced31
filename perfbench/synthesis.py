"""Workload ``synthesis``: one seeded Synthesizer session, no parsing.

A pass makes 500 ``sentence_text`` calls in batches of 50, then poems
over verse targets from 8 to 22 letters in a seeded order, then paragraphs
under tight ``max_words``/``max_letters`` bounds.  ``sample_word`` and the
retry loops do the work: at 22 letters about 160 verses are drawn for each
one kept.  The poem requests are the pass's heavy part.  A request that
exhausts the retry budget raises ``SynthError``; it is then made again on the
same session, as a user would, so the refusal costs time and is counted, but
the operation does not fail.  The tight paragraphs are refused about once in
every fifteen requests, and each refusal costs 1000 sentences, so their time
varies too much from run to run to be part of ``heavy_s``; it is a per-layer
metric.
"""

from __future__ import annotations

import random
import statistics

from common import Outcome, PassSample, Stopwatch, lexicon_words, letters
from spans import OFF

from tokipona import ParagraphSpec, PoemSpec, SynthConfig, SynthError, Synthesizer, load_lexicon

SETUP_EXTRA = ""
#: Sentences per headline call, as in ``tokipona synth --count 50``: single
#: calls take ~0.2 ms, so their tail would measure collector pauses.
BATCH = 50
#: Letters per verse.  A drawn verse has 22 letters about one time in 160,
#: 24 one in 375, 26 one in 1100 and 30 one in 50,000.  Above 22 the number
#: of draws a request needs varies so much that a 20 s run's mean does not
#: repeat within a tenth; from about 26 on most requests are refused.
TARGETS = range(8, 23)
#: Buckets of letters per verse for the per-layer poem times.
BUCKETS = ((8, 15), (16, 19), (20, 22))
#: Verses per poem: four, so that a pass draws enough verses for its poem
#: time to repeat from run to run.
VERSES = 4
PARAGRAPHS = 4
#: Requests per poem or paragraph before it counts as failed.
REQUESTS = 100


def _request(make) -> tuple[str | None, int]:
    """``make()`` until it does not raise ``SynthError``, at most REQUESTS
    times.  Returns the text, None if every request was refused, and the
    number of refusals."""
    for refused in range(REQUESTS):
        try:
            return make(), refused
        except SynthError:
            pass
    return None, REQUESTS


def _bucket(target: int) -> str:
    lo, hi = next(b for b in BUCKETS if b[0] <= target <= b[1])
    return f"synth.poem_ms.len{lo:02d}-{hi:02d}"


class Synthesis:
    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.smoke = smoke
        self.sentences = BATCH if smoke else 10 * BATCH
        self.passes = 0
        self.words = lexicon_words()
        self.lex = load_lexicon()

    def _bad_words(self, text: str) -> set[str]:
        return {w for w in text.replace(".", " ").split() if w not in self.words}

    def _session(self, seed: int) -> str:
        """A short fixed script, for the same-seed-same-bytes check."""
        synth = Synthesizer(SynthConfig(seed=seed), self.lex)
        out = [synth.sentence_text() for _ in range(BATCH)]
        out.append(str(_request(lambda: synth.synth_poem(PoemSpec(1, 2, 12)))[0]))
        out.append(str(_request(lambda: synth.synth_paragraph(ParagraphSpec(3, 24, 104)))[0]))
        return "\n".join(out)

    def one_pass(self, rec, outcome: Outcome, watch: Stopwatch) -> PassSample:
        # Each pass is its own session with its own seed, so that a run's
        # mean covers several draws of which requests exhaust the budget.
        pass_seed = self.seed * 1000 + self.passes
        self.passes += 1
        if self.passes == 1:
            if self._session(self.seed) == self._session(self.seed):
                outcome.ok()
            else:
                outcome.fail("the same seed gave different output", wrong=True)
        rng = random.Random(pass_seed)
        targets = list(TARGETS)[:: 8 if self.smoke else 1]
        rng.shuffle(targets)
        paragraphs = [ParagraphSpec(n, round(6.5 * n), 28 * n)
                      for n in (rng.randint(3, 6) for _ in range(PARAGRAPHS))]
        synth = Synthesizer(SynthConfig(seed=pass_seed), self.lex)
        if rec is not OFF:
            _instrument(synth, rec)
        since = 0 if rec is OFF else len(rec.spans)
        sample = PassSample()

        for _ in range(self.sentences // BATCH):
            with watch:
                batch = [synth.sentence_text() for _ in range(BATCH)]
            bad = {w for text in batch for w in self._bad_words(text)}
            if bad or not all(text.endswith(".") for text in batch):
                outcome.fail(f"sentences {batch[:2]!r}... have words {sorted(bad)}", wrong=True)
                continue
            outcome.ok()
            sample.items += BATCH
            sample.busy_s += watch.seconds
            sample.calls_ms.append(watch.scaled * 1e3)

        poem_ms: dict[str, list[float]] = {}
        accepted_verses = errors = 0
        for target in targets:
            spec = PoemSpec(1, VERSES, target)
            with watch, rec.span("synth.synth_poem"):
                poem, refused = _request(lambda: synth.synth_poem(spec))
            errors += refused
            sample.heavy_s += watch.seconds
            poem_ms.setdefault(_bucket(target), []).append(watch.seconds * 1e3)
            if poem is None:
                outcome.fail(f"{REQUESTS} SynthErrors for {target} letters per verse",
                             wrong=False)
                continue
            verses = poem.split("\n")
            if len(verses) != VERSES or any(letters(v) != target for v in verses) or self._bad_words(poem):
                outcome.fail(f"poem {poem!r} misses {target} letters per verse", wrong=True)
                continue
            outcome.ok()
            accepted_verses += VERSES

        para_sentences = 0
        para_s = 0.0
        for spec in paragraphs:
            with watch, rec.span("synth.synth_paragraph"):
                text, refused = _request(lambda: synth.synth_paragraph(spec))
            errors += refused
            para_s += watch.seconds
            if text is None:
                outcome.fail(f"{REQUESTS} SynthErrors for {spec}", wrong=False)
                continue
            para_sentences += spec.sentences
            if (text.count(".") != spec.sentences or len(text.split()) > spec.max_words
                    or letters(text) > spec.max_letters or self._bad_words(text)):
                outcome.fail(f"paragraph {text!r} breaks {spec}", wrong=True)
                continue
            outcome.ok()

        if rec is not OFF:
            c = rec.counters
            layers = {k: statistics.mean(v) for k, v in poem_ms.items()}
            layers["synth.paragraph_ms"] = para_s * 1e3
            layers["synth.sentence_text_us"] = statistics.median(
                rec.durations("synth.sentence_text", since)) * 1e6
            layers["synth.sample_word_calls"] = float(c["synth.sample_word"])
            layers["synth.verse_text_calls"] = float(c["synth.verse_text"])
            layers["synth.verse_accept_ratio"] = accepted_verses / max(1, c["synth.verse_text"])
            # sentence_text calls beyond the block are the paragraphs' attempts
            layers["synth.paragraph_accept_ratio"] = para_sentences / max(
                1, c["synth.sentence_text"] - self.sentences)
            layers["synth.synth_errors"] = float(errors)
            sample.layers = layers
        return sample


def _instrument(synth: Synthesizer, rec) -> None:
    """Wrap the instance's sampling methods; internal calls go through them."""
    sample_word, verse_text, sentence_text = synth.sample_word, synth.verse_text, synth.sentence_text

    def counted_sample_word(*args, **kwargs):
        rec.count("synth.sample_word")
        return sample_word(*args, **kwargs)

    def counted_verse_text(*args, **kwargs):
        rec.count("synth.verse_text")
        return verse_text(*args, **kwargs)

    def traced_sentence_text(*args, **kwargs):
        rec.count("synth.sentence_text")
        with rec.span("synth.sentence_text"):
            return sentence_text(*args, **kwargs)

    synth.sample_word = counted_sample_word
    synth.verse_text = counted_verse_text
    synth.sentence_text = traced_sentence_text
