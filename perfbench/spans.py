"""In-memory span and counter recorder for the traced benchmark run.

A span has a name, a start, an end and the index of the span that was open
when it started.  The layer of a span is its name up to the first dot
(``grammar.parse`` -> ``grammar``).  A layer's self time is the time its
spans cover minus the part their child spans cover.  The untraced run uses
:data:`OFF`, whose methods do nothing.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter


class Recorder:
    def __init__(self) -> None:
        # [name, start, end, parent index or -1]
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = self.add(name, perf_counter(), 0.0)
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = perf_counter()

    def add(self, name: str, start: float, end: float, parent: int | None = None) -> int:
        """Record a finished span; the parent defaults to the innermost open span."""
        if parent is None:
            parent = self._open[-1] if self._open else -1
        self.spans.append([name, start, end, parent])
        return len(self.spans) - 1

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] += n

    def durations(self, name: str, since: int = 0) -> list[float]:
        return [end - start for n, start, end, _ in self.spans[since:] if n == name]

    def self_time_by_layer(self, since: int = 0) -> dict[str, float]:
        """Seconds per layer over spans[since:], children subtracted."""
        own = defaultdict(float)
        for i in range(since, len(self.spans)):
            name, start, end, parent = self.spans[i]
            own[i] += end - start
            if parent >= since:
                own[parent] -= end - start
        layers = defaultdict(float)
        for i, t in own.items():
            layers[self.spans[i][0].split(".", 1)[0]] += t
        return dict(layers)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")
            fh.write(json.dumps({"counters": dict(self.counters)}) + "\n")


class _Off:
    """The recorder of the untraced run: records nothing."""

    _null = nullcontext()

    def span(self, name: str):
        return self._null


OFF = _Off()
