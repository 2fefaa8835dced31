"""The benchmark harness runs every workload on tiny inputs and finds no fault.

This also guards the library names that ``perfbench/`` imports or patches.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
