"""Workload ``pi_readings``: every pi grouping of phrases with k = 0..10 pi groups.

The same grammar module as ``document``, used for exponential enumeration
instead of a linear parse.  A pass calls ``pi_readings`` once for each k and
nineteen more times at k = 8, so that the k = 8 calls give enough latency
samples.  ``heavy_s`` is the whole pass, of which the k = 10 call is about
half: a 1.2 s call alone follows the host's speed changes too loosely for the
run's scale factor, and its own time is the per-layer
``grammar.pi_readings_ms.k10``.
"""

from __future__ import annotations

import gc
import random
import statistics
from math import comb

from common import Outcome, PassSample, Stopwatch, lexicon_rows
from spans import OFF

from tokipona.grammar import pi_readings, render_grouping

SETUP_EXTRA = ""
HEADLINE_K = 8
EXTRA_HEADLINE = 19


def catalan(k: int) -> int:
    return comb(2 * k, k) // (k + 1)


class PiReadings:
    def __init__(self, seed: int, smoke: bool):
        rng = random.Random(seed)
        words = sorted(s for s, tags, _ in lexicon_rows() if tags != {"PARTICLE"})
        max_k = 4 if smoke else 10
        self.headline_k = 3 if smoke else HEADLINE_K
        ks = list(range(max_k + 1)) + [self.headline_k] * (2 if smoke else EXTRA_HEADLINE)
        self.phrases = []
        # Every group has two words, so the seed changes the words but not
        # the amount of work.
        for k in ks:
            phrase = rng.choices(words, k=2)
            for _ in range(k):
                phrase += ["pi"] + rng.choices(words, k=2)
            self.phrases.append((k, phrase))

    def one_pass(self, rec, outcome: Outcome, watch: Stopwatch) -> PassSample:
        sample = PassSample()
        by_k: dict[int, list[float]] = {}
        for k, phrase in self.phrases:
            # Start every call from the same heap, so that no call is charged
            # for collecting what an earlier one left behind.
            gc.collect()
            with watch, rec.span("grammar.pi_readings"):
                readings = pi_readings(phrase)
            dt = watch.seconds
            want = catalan(k)
            got = len(readings), len({render_grouping(r) for r in readings})
            # Free this call's readings here, outside any timed call.
            del readings
            if got != (want, want):
                outcome.fail(f"{got[0]} readings ({got[1]} distinct) for k={k}, want {want}",
                             wrong=True)
                continue
            outcome.ok()
            by_k.setdefault(k, []).append(dt * 1e3)
            sample.items += want
            sample.busy_s += dt
            if k == self.headline_k:
                sample.calls_ms.append(watch.scaled * 1e3)
        sample.heavy_s = sample.busy_s
        if rec is not OFF:
            sample.layers = {
                f"grammar.pi_readings_ms.k{k}": statistics.median(by_k.get(k, [0.0]))
                for k in (8, 9, 10)
            }
            sample.layers["grammar.pi_readings_count"] = float(sample.items)
        return sample
