"""Benchmark runner: one workload per fresh interpreter, one JSON line out.

    python3 perfbench/run.py --workload document --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --smoke

With ``--trace 0`` the last line holds the end-to-end metrics of
BENCHMARK.json, measured untraced; with ``--trace 1`` it holds the per-layer
metrics from traced passes, interleaved with untraced ones to give the
tracing overhead.  ``--workload all`` runs every workload in its own
interpreter.  ``--smoke`` runs every workload on tiny inputs, both traced and
untraced, as a quick self-check.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("document", "synthesis", "cli", "pi_readings")


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    except FileNotFoundError:
        _fail("BENCHMARK.json not found; run from the root of a checkout")


def _workload(name: str, seed: int, smoke: bool):
    if not (ROOT / "src" / "tokipona" / "__init__.py").is_file():
        _fail("src/tokipona is missing; run from the root of a checkout")
    sys.path.insert(0, str(ROOT / "src"))
    if name == "document":
        from document import SETUP_EXTRA, Document as cls
    elif name == "synthesis":
        from synthesis import SETUP_EXTRA, Synthesis as cls
    elif name == "cli":
        from cli import SETUP_EXTRA, Cli as cls
    else:
        from pi_readings import SETUP_EXTRA, PiReadings as cls
    return cls(seed, smoke), SETUP_EXTRA


def _end_to_end(name, plain, outcome, watch, setups) -> tuple[dict, list[str]]:
    """The end-to-end metrics, scaled to the reference host speed, and notes
    with the sums as measured."""
    from common import tail

    calls = [c for s in plain for c in s.calls_ms]
    if not calls:
        _fail(f"{name}: no headline call succeeded: {outcome.reasons}")
    tail_ms, pct, n = tail(calls)
    scale = watch.scale()
    busy = sum(s.busy_s for s in plain)
    raw = {
        "items_per_s": sum(s.items for s in plain) / busy,
        # A mean, not a median: on synthesis the heavy part is a sum of
        # retry loops whose length varies from pass to pass.
        "heavy_s": statistics.fmean(s.heavy_s for s in plain),
    }
    values = {
        "setup_s": setups.median(),
        "items_per_s": raw["items_per_s"] / scale,
        "heavy_s": raw["heavy_s"] * scale,
        "call_ms_p50": statistics.median(calls),
        "call_ms_tail": tail_ms,
    }
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    values["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024
    notes = [
        f"call_ms_tail is p{pct:.1f} of {n} calls over {len(plain)} passes",
        f"run scale {scale:.4f} from {len(watch.loops)} loop timings; as measured: "
        + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()),
    ]
    return values, notes


def _per_layer(wl, plain, traced, rec, spec) -> tuple[dict, list[str]]:
    from common import median_by_key

    values = {}
    if hasattr(wl, "layer_setup"):
        values.update(wl.layer_setup(rec))
    if "lexicon.load_lexicon_ms" not in traced[0].layers:
        from tokipona import load_lexicon

        for _ in range(5):
            with rec.span("lexicon.load_lexicon"):
                load_lexicon()
        values["lexicon.load_lexicon_ms"] = statistics.median(
            rec.durations("lexicon.load_lexicon")) * 1e3
    values.update(median_by_key([s.layers for s in traced]))
    # Counts come from the first traced pass, so that they repeat exactly for
    # a seed however many passes fit in the run.
    values.update({m["name"]: traced[0].layers[m["name"]] for m in spec["per_layer"]
                   if m["unit"] == "count" and m["name"] in traced[0].layers})
    busy_plain = statistics.median(s.busy_s for s in plain)
    busy_traced = statistics.median(s.busy_s for s in traced)
    values["trace.overhead_pct"] = (busy_traced - busy_plain) / busy_plain * 100
    notes = [f"{len(plain)} untraced and {len(traced)} traced passes"]
    return values, notes


def run_one(args) -> int:
    spec = _spec()
    wl, setup_extra = _workload(args.workload, args.seed, args.smoke)
    from common import Outcome, SetupTimes, Stopwatch, pin_to_fastest_cpu, run_passes

    pin_to_fastest_cpu()
    outcome, watch = Outcome(), Stopwatch()
    # End-to-end runs time set-up between passes; traced runs need none.
    setups = None if args.trace else SetupTimes(watch, setup_extra, 3 if args.smoke else 15)
    try:
        plain, traced, rec = run_passes(lambda r: wl.one_pass(r, outcome, watch),
                                        args.seconds, bool(args.trace),
                                        setups.due if setups else None)
        if args.trace:
            values, notes = _per_layer(wl, plain, traced, rec, spec)
            wanted = spec["per_layer"]
            rec.write(HERE / ".out" / f"trace-{args.workload}-{args.seed}.jsonl")
        else:
            values, notes = _end_to_end(args.workload, plain, outcome, watch, setups)
            wanted = spec["end_to_end"]
    finally:
        if hasattr(wl, "close"):
            wl.close()

    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in wanted}
    for m in wanted:
        print(f"{args.workload:12s} {m['name']:40s} {metrics[m['name']]['value']:>16.6g} {m['unit']}")
    for note in notes:
        print(f"{args.workload:12s} {note}")
    for reason in outcome.reasons:
        print(f"{args.workload:12s} failed: {reason}")
    print(json.dumps({
        "correct": outcome.wrong == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


def run_many(args, workloads, traces) -> int:
    """Each workload in a fresh interpreter; metrics prefixed by workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads:
        for trace in traces:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            result = json.loads(lines[-1])
            merged["correct"] &= result["correct"]
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs and short runs, traced and untraced")
    args = p.parse_args()
    if args.seconds is None:
        args.seconds = 0.5 if args.smoke else _spec()["run_seconds"]
    if args.workload != "all":
        return run_one(args)
    traces = (0, 1) if args.smoke else (args.trace,)
    return run_many(args, WORKLOADS if args.workload == "all" else (args.workload,), traces)


if __name__ == "__main__":
    sys.exit(main())
