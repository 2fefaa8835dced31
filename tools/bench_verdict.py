#!/usr/bin/env python3
"""Verdicts over a ``BENCH_<PR>.json`` file of ``perfbench/run.py`` runs.

    python3 tools/bench_verdict.py BENCH_27.json

Each line of the file is one run: ``{"side", "workload", "seed", "trace",
"run": <the last line run.py printed>}``, and any further field names a
condition of the run (such as ``"cache": "empty"``).  Two untraced runs pair
when they come from the two sides compared and agree on every field but
``side`` and ``run``.  The base side is ``parent`` if the file has one, else
the first side in it, and it is compared with each other side in turn, so
any two side names read the same way, as an A/A run of ``parent`` against
``parent-copy`` does.

For each workload and each end-to-end metric of ``BENCHMARK.json`` it prints
both medians, the other side's relative change, the base side's
interquartile range (``statistics.quantiles``, exclusive method), the pairs
in which the other side is better (a tie is no win) and the one-sided exact
sign-test p of that many wins or more, and whether the other side's median
is within the metric's bound.  Runs in no pair and traced runs are listed
apart.  Stdlib only; it reads the files and writes nothing.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from math import comb
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _condition(run: dict) -> tuple:
    """What a run shares with the run it pairs with: every field but its
    side and its result."""
    return tuple(sorted((k, json.dumps(v)) for k, v in run.items() if k not in ("side", "run")))


def _label(run: dict) -> str:
    extra = "".join(f" {k}={v}" for k, v in run.items()
                    if k not in ("side", "workload", "seed", "trace", "run"))
    return f"{run['side']} {run['workload']} {run['seed']}{extra}"


def _seeds(seeds: list[int]) -> str:
    """Sorted seeds, with each run of consecutive ones as ``first-last``."""
    spans: list[list[int]] = []
    for seed in sorted(seeds):
        if spans and seed == spans[-1][1] + 1:
            spans[-1][1] = seed
        else:
            spans.append([seed, seed])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def _number(x: float) -> str:
    return f"{x:,.0f}" if abs(x) >= 1000 else f"{x:.4g}"


def sign_p(wins: int, pairs: int) -> float:
    """P(at least ``wins`` wins of ``pairs``) when each side wins a pair with
    probability 1/2."""
    return sum(comb(pairs, k) for k in range(wins, pairs + 1)) / 2 ** pairs


def _pairs(runs: list[dict], base: str, other: str) -> dict[str, list[tuple[dict, dict]]]:
    """(base, other) run pairs by workload, in the order of the file."""
    by_condition: dict[tuple, dict[str, list[dict]]] = {}
    for run in runs:
        if run["side"] in (base, other):
            by_condition.setdefault(_condition(run), {}).setdefault(run["side"], []).append(run)
    pairs: dict[str, list[tuple[dict, dict]]] = {}
    for sides in by_condition.values():
        if len(sides.get(base, ())) == len(sides.get(other, ())) == 1:
            pairs.setdefault(sides[base][0]["workload"], []).append((sides[base][0], sides[other][0]))
    return pairs


def _failed(runs: list[dict]) -> str:
    failed = sum(r["run"]["failed"] for r in runs)
    attempted = sum(r["run"]["attempted"] for r in runs)
    wrong = sum(not r["run"]["correct"] for r in runs)
    return f"{failed:,} of {attempted:,} failed" + (f", {wrong} incorrect" if wrong else "")


def _table(pairs: list[tuple[dict, dict]], metrics: list[dict]) -> list[list[str]]:
    rows = []
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        values = [(b["run"]["metrics"][name]["value"], o["run"]["metrics"][name]["value"])
                  for b, o in pairs]
        base = [b for b, _ in values]
        before, after = statistics.median(base), statistics.median(o for _, o in values)
        quartiles = statistics.quantiles(base, n=4) if len(base) > 1 else (base[0], base[0])
        wins = sum(o < b if lower else o > b for b, o in values)
        change = (after - before) / before
        worse = change if lower else -change
        rows.append([
            name, _number(before), _number(after), f"{change:+.1%}",
            _number(quartiles[-1] - quartiles[0]), f"{wins} of {len(values)}",
            f"{sign_p(wins, len(values)):.3f}",
            f"{'within' if worse <= metric['bound'] else 'WORSE'} {metric['bound']:.0%}",
        ])
    return rows


def verdict(lines: list[str], benchmark: dict) -> str:
    """The report on the runs in ``lines``, against ``benchmark``'s metrics."""
    runs = [json.loads(line) for line in lines if line.strip()]
    untraced = [r for r in runs if not r.get("trace")]
    sides = list(dict.fromkeys(r["side"] for r in runs))
    base = "parent" if "parent" in sides else sides[0]
    out, paired = [], set()
    for other in (side for side in sides if side != base):
        out.append(f"{base} -> {other}")
        for workload, pairs in _pairs(untraced, base, other).items():
            paired.update(id(r) for pair in pairs for r in pair)
            out.append(f"  {workload}: {len(pairs)} pairs, seeds {_seeds([b['seed'] for b, _ in pairs])}")
            out.append(f"    {base} {_failed([b for b, _ in pairs])}; "
                       f"{other} {_failed([o for _, o in pairs])}")
            rows = [["metric", base, other, "delta", f"{base} IQR", "wins", "p", "bound"],
                    *_table(pairs, benchmark["end_to_end"])]
            widths = [max(len(row[k]) for row in rows) for k in range(len(rows[0]))]
            for row in rows:
                out.append("    " + "  ".join(
                    cell.ljust(w) if k == 0 else cell.rjust(w)
                    for k, (cell, w) in enumerate(zip(row, widths))).rstrip())
    unpaired = [_label(r) for r in untraced if id(r) not in paired]
    traced = [_label(r) for r in runs if r.get("trace")]
    out.append("unpaired: " + ("; ".join(unpaired) or "none"))
    out.append("traced: " + ("; ".join(traced) or "none"))
    return "\n".join(out) + "\n"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("bench", type=Path, help="a BENCH_<PR>.json file")
    args = ap.parse_args(argv)
    benchmark = json.loads(BENCHMARK.read_text("utf-8"))
    sys.stdout.write(verdict(args.bench.read_text("utf-8").splitlines(), benchmark))
    return 0


if __name__ == "__main__":
    sys.exit(main())
