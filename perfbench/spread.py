"""Run workloads over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads document cli --seeds 1 2 3 4 5

For every end-to-end metric it prints the median of the runs and the
distance between the first and third quartiles (``statistics.quantiles``
with n=4) as a share of the median, next to a third of the metric's bound
in BENCHMARK.json, then the values themselves, the wall time of a run and
the operations failed out of those attempted.  Runs are untraced, since only
end-to-end metrics have bounds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workloads", nargs="+", required=True)
    p.add_argument("--seeds", nargs="+", type=int, required=True)
    args = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    worst = 0.0
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        failed = attempted = 0
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", "0"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            values.setdefault("wall_s", []).append(time.perf_counter() - t0)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect output", file=sys.stderr)
            failed += result["failed"]
            attempted += result["attempted"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            limit = f"{bound / 3:.4f}" if bound else "-"
            flag = " OVER" if bound and share > bound / 3 else ""
            if bound:
                worst = max(worst, share / bound)
            print(f"{workload:12s} {name:36s} median {med:14.6g} spread {share:.4f} "
                  f"(third of bound {limit}){flag}", flush=True)
            print(f"{workload:12s} {name:36s} values " + " ".join(f"{v:.6g}" for v in vals),
                  flush=True)
        print(f"{workload:12s} failed {failed} of {attempted} operations", flush=True)
    print(f"largest spread as a share of its bound: {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
