"""Every benchmark workload, traced once, reaches each span it requires.

A traced benchmark run (``python3 bench/run.py --workload W --trace 1``)
exits 1 when a span or counter of ``bench/workloads.REQUIRED`` reads zero,
so a change that routes around a required layer fails it.  This test runs
one traced pass of each workload at the default seed through
``bench/child.py``, in a temporary directory, and reads ``bench/`` only.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
sys.path.insert(0, str(BENCH))

import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_pass_reaches_every_required_span(tmp_path, workload):
    spec = workloads.make(workload, workloads.DEFAULT_SEED)
    ini = tmp_path / "inputs.ini"
    ini.write_text(spec["ini"])
    result = tmp_path / "result.json"
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "root": str(ROOT), "mode": "pass", "trace": True,
        "out": str(tmp_path / "out"), "result": str(result),
        "argv": [[str(ini) if a == "{ini}" else a for a in argv] for argv in spec["argv"]],
    }))
    child = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), str(spec_path),
         repr(time.clock_gettime(time.CLOCK_MONOTONIC))],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stdout + child.stderr
    found = json.loads(result.read_text())
    assert found["rcs"] == [0] * len(spec["argv"]), child.stdout + child.stderr
    zero = [name for name in workloads.REQUIRED[workload]
            if (found["counters"][name] if name in tracer.COUNTERS
                else found["span_calls"].get(name, 0)) == 0]
    assert zero == [], f"{workload}: required spans read zero: {', '.join(zero)}"
