"""``tools/bench_verdict.py`` over the checked-in benchmark files.

The golden file holds its report on ``BENCH_21.json`` to ``BENCH_26.json``,
frozen data whose headline numbers ``CHANGES.md`` cites.  Regenerate
``data/bench_verdict_golden.txt`` after an intended change of the report:

    python tests/test_bench_verdict.py
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).parent / "data" / "bench_verdict_golden.txt"
FILES = [ROOT / f"BENCH_{n}.json" for n in range(21, 27)]

_spec = importlib.util.spec_from_file_location("bench_verdict", ROOT / "tools" / "bench_verdict.py")
bench_verdict = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_verdict)
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))


def render() -> str:
    return "".join(
        f"== {path.name}\n" + bench_verdict.verdict(path.read_text("utf-8").splitlines(), BENCHMARK)
        for path in FILES
    )


def test_bench_verdict_golden():
    assert render() == GOLDEN.read_text("utf-8")


def _row(path: str, workload: str, metric: str) -> list[str]:
    report = bench_verdict.verdict((ROOT / path).read_text("utf-8").splitlines(), BENCHMARK)
    table = report.split("parent -> change\n")[1].split(f"  {workload}: ")[1]
    return next(line.split() for line in table.splitlines() if line.split()[:1] == [metric])


@pytest.mark.parametrize("path, workload, metric, row", [
    # metric, parent, change, delta, IQR, wins "of" pairs, p, bound
    ("BENCH_25.json", "cli", "call_ms_tail", ["100.7", "88.43", "-12.1%", "5.314", "9", "10", "0.011"]),
    ("BENCH_24.json", "cli", "call_ms_p50", ["87.44", "78.09", "-10.7%", "7.436", "10", "10", "0.001"]),
    ("BENCH_23.json", "cli", "heavy_s", ["0.6688", "0.1894", "-71.7%", "0.02027", "10", "10", "0.001"]),
    ("BENCH_21.json", "synthesis", "items_per_s",
     ["35,228", "44,498", "+26.3%", "2,770", "10", "10", "0.001"]),
    ("BENCH_21.json", "synthesis", "heavy_s",
     ["0.008407", "0.008741", "+4.0%", "0.0004984", "0", "10", "1.000"]),
])
def test_the_claims_of_changes_md_are_read_back(path, workload, metric, row):
    got = _row(path, workload, metric)
    assert got[0] == metric
    assert [got[k] for k in (1, 2, 3, 4, 5, 7, 8)] == row
    assert got[9] == "within"


def test_an_a_a_run_and_odd_runs_read_apart():
    report = bench_verdict.verdict((ROOT / "BENCH_23.json").read_text("utf-8").splitlines(), BENCHMARK)
    assert "parent -> parent-copy\n  pi_readings: 4 pairs, seeds 2391-2394\n" in report
    assert report.endswith("unpaired: change cli 2341 cache=empty\n"
                           "traced: parent cli 2381; change cli 2381\n")


def _run(side: str, seed: int, value: float, **extra) -> str:
    metrics = {m["name"]: {"value": value, "unit": m["unit"]} for m in BENCHMARK["end_to_end"]}
    return json.dumps({"side": side, "workload": "w", "seed": seed, "trace": 0, **extra,
                       "run": {"correct": True, "attempted": 10, "failed": seed % 2,
                               "metrics": metrics}})


def test_any_two_side_names_pair_and_a_tie_is_no_win():
    lines = [_run("A", 1, 1.0), _run("B", 1, 1.0), _run("B", 2, 2.6), _run("A", 2, 2.0),
             _run("A", 3, 2.0), _run("B", 3, 1.0, cache="empty")]
    report = bench_verdict.verdict(lines, BENCHMARK)
    assert report.startswith("A -> B\n  w: 2 pairs, seeds 1-2\n"
                             "    A 1 of 20 failed; B 1 of 20 failed\n")
    rows = {line.split()[0]: line.split() for line in report.splitlines()[3:9]}
    # Lower is better: B's 2.6 loses and 1.0 = 1.0 ties; the median 1.5 -> 1.8 is +20%.
    assert rows["setup_s"][1:] == ["1.5", "1.8", "+20.0%", "1.5", "0", "of", "2", "1.000",
                                   "within", "25%"]
    assert rows["items_per_s"][3:6] == ["+20.0%", "1.5", "1"]  # higher is better
    assert rows["peak_rss_mb"][-2:] == ["WORSE", "5%"]
    assert report.endswith("unpaired: A w 3; B w 3 cache=empty\ntraced: none\n")


@pytest.mark.parametrize("wins, pairs, p", [(8, 10, 0.0547), (9, 10, 0.0107), (10, 10, 0.00098),
                                            (0, 5, 1.0), (3, 5, 0.5)])
def test_sign_p(wins, pairs, p):
    assert bench_verdict.sign_p(wins, pairs) == pytest.approx(p, abs=5e-5)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(render(), "utf-8")
