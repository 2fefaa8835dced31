"""Pieces shared by the workloads: paths, the pass loop, set-up timing,
latency summaries and the checks' own reading of the lexicon and tokens."""

from __future__ import annotations

import math
import os
import re
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from spans import OFF, Recorder

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LEXICON_TSV = SRC / "tokipona" / "data" / "lexicon.tsv"
HERE = Path(__file__).resolve().parent

#: Tokens as the checks count them: a run of letters, one punctuation mark,
#: or any other single non-space character.
TOKEN_RE = re.compile(r"[A-Za-z]+|[.!?,:]|\S")
SGR_RE = re.compile(r"\x1b\[[0-9;]*m")


def child_env() -> dict[str, str]:
    """Environment for subprocesses: the checkout's src/ on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def lexicon_rows() -> list[tuple[str, set[str], list[str]]]:
    """(surface, tags, glosses) per lemma from data/lexicon.tsv, read without
    the library."""
    rows = [l for l in LEXICON_TSV.read_text("utf-8").splitlines()
            if l.strip() and not l.lstrip().startswith("#")]
    out = []
    for row in rows[1:]:
        surface, tags, _group, senses = (c.strip() for c in row.split("\t"))
        glosses = [g.strip() for chunk in senses.split("|") for g in chunk.split(";")
                   if g.strip()]
        out.append((surface, set(tags.split(",")), glosses))
    return out


def lexicon_words() -> set[str]:
    return {surface for surface, _, _ in lexicon_rows()}


def letters(text: str) -> int:
    return sum(ch.isalpha() for ch in text)


@dataclass
class Outcome:
    """Operations attempted and failed, and why the first few failed."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0  # outputs that failed a check, a subset of failed
    reasons: list[str] = field(default_factory=list)

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, reason: str, wrong: bool) -> None:
        self.attempted += 1
        self.failed += 1
        self.wrong += wrong
        if len(self.reasons) < 5:
            self.reasons.append(reason)


#: End-to-end times are scaled to a reference host speed, at which a fixed
#: loop takes REFERENCE_MS.  The host's speed swings by up to a factor of two
#: within seconds and drifts from minute to minute, and the loop's time
#: follows it; see "Host speed" in README.md.
REFERENCE_MS = 0.6
_LOOP_TABLE = {str(i): i for i in range(512)}


def loop_ms() -> float:
    """One timing of a fixed pure-Python loop, in milliseconds.  The loop
    allocates no object the collector tracks, so the program's heap cannot
    change its speed."""
    table, total = _LOOP_TABLE, 0
    t0 = time.perf_counter()
    for i in range(2_000):
        key = str(i & 511)
        total += table[key] * 3 + len(key)
        total ^= i << 1
    return (time.perf_counter() - t0) * 1e3


class Stopwatch:
    """Times one operation at a time and, after each, the fixed loop.

    ``seconds`` is the operation as measured.  ``scaled`` is the same at the
    reference speed, judged from the loop just before and just after it;
    latency percentiles use it, so a call's speed level does not flip them.
    ``scale()`` judges the speed from the whole run's loops; sums of time
    use it, because one long operation can span several speed changes.
    """

    def __init__(self) -> None:
        self.loops = [loop_ms()]
        self.seconds = self.scaled = 0.0

    def __enter__(self) -> "Stopwatch":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self.seconds = time.perf_counter() - self._t0
        self.loops.append(loop_ms())
        self.scaled = self.seconds * 2 * REFERENCE_MS / (self.loops[-2] + self.loops[-1])
        return False

    def scale(self) -> float:
        """Factor from this run's times to times at the reference speed.  A
        mean, not a median: the loop's times are bimodal, and the mean follows
        the share of time spent in each mode."""
        return REFERENCE_MS / statistics.fmean(self.loops)


def pin_to_fastest_cpu() -> None:
    """Run this process, and the processes it starts, on one CPU: the one of
    the first eight allowed where a fixed loop runs fastest now.

    The CPUs of a shared host differ in how busy their other tenants keep
    them, and a process that migrates between them changes speed mid-pass.
    """
    def speed(cpu: int) -> float:
        os.sched_setaffinity(0, {cpu})
        return statistics.median(loop_ms() for _ in range(20))

    cpus = sorted(os.sched_getaffinity(0))[:8]
    os.sched_setaffinity(0, {min(cpus, key=speed)})


@dataclass
class PassSample:
    """What one pass measured, for the end-to-end metrics."""

    items: int = 0
    busy_s: float = 0.0  # time inside the timed operations
    calls_ms: list[float] = field(default_factory=list)  # headline calls, scaled
    heavy_s: float = 0.0
    layers: dict[str, float] = field(default_factory=dict)  # traced passes only


def run_passes(one_pass, seconds: float, trace: bool, after_pass=None):
    """Repeat passes until ``seconds`` have gone by.

    Untraced passes run always; with ``trace`` a traced pass follows each
    untraced one, so both see the same machine state.  ``after_pass``, if
    given, is called after each untraced pass with the share of the run gone
    by.  Returns the untraced samples, the traced samples and the recorder.
    """
    rec = Recorder()
    plain: list[PassSample] = []
    traced: list[PassSample] = []
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        plain.append(one_pass(OFF))
        if after_pass:
            after_pass((time.perf_counter() - start) / seconds)
        if trace:
            since = len(rec.spans)
            rec.counters.clear()
            with rec.span("bench.pass"):
                sample = one_pass(rec)
            for layer, s in rec.self_time_by_layer(since).items():
                sample.layers[f"{layer}.self_ms"] = s * 1e3
            traced.append(sample)
        if time.perf_counter() >= deadline:
            return plain, traced, rec


SETUP_CODE = """
import time
t0 = time.perf_counter()
import tokipona
lex = tokipona.load_lexicon()
{extra}
print(time.perf_counter() - t0)
"""


class SetupTimes:
    """Seconds, scaled, that a fresh interpreter needs to set up.

    The set-ups are spread over the run, a few after each pass, so that their
    median samples the host's speed over the whole run, as the run's other
    figures do, and not over the second at its end.
    """

    def __init__(self, watch: Stopwatch, extra: str, repeats: int):
        self.watch, self.repeats = watch, repeats
        self.code = SETUP_CODE.format(extra=extra)
        self.times: list[float] = []

    def due(self, share: float) -> None:
        """Set up until ``share`` of the repeats are done."""
        while len(self.times) < min(self.repeats, math.ceil(share * self.repeats)):
            with self.watch:
                out = subprocess.run([sys.executable, "-c", self.code], env=child_env(),
                                     cwd=ROOT, capture_output=True, text=True, timeout=60,
                                     check=True)
            self.times.append(float(out.stdout.strip().splitlines()[-1])
                              * self.watch.scaled / self.watch.seconds)

    def median(self) -> float:
        self.due(1.0)
        return statistics.median(self.times)


def tail(samples: list[float]) -> tuple[float, float, int]:
    """The 90th percentile, or below 100 samples the highest percentile with
    at least ten samples beyond it.

    A fixed percentile, because a run makes more calls when the host is fast:
    "ten beyond" would then move up the tail, so that a faster run could read
    a slower tail.  Returns (value, percentile, sample count).  With ten
    samples or fewer the maximum is returned as the 100th.
    """
    s = sorted(samples)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0, n
    beyond = max(10, n // 10)
    return s[n - 1 - beyond], 100.0 * (n - beyond) / n, n


def median_by_key(dicts: list[dict[str, float]]) -> dict[str, float]:
    keys = {k for d in dicts for k in d}
    return {k: statistics.median(d.get(k, 0.0) for d in dicts) for k in keys}
