"""plaqising benchmark harness.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the package is imported from ``src/`` of
that checkout, nowhere else.  Every pass is a fresh Python process that runs
the workload's CLI invocations in order (``bench/child.py``).  Passes repeat
until ``--seconds`` have gone by.  After each pass, outside its timed
interval, the workload's oracle checks the files it wrote.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median pass),
``setup_s`` (median over set-up probes and passes), ``peak_rss_mb`` (median
pass) and ``ok_frac`` (1 - failed / attempted, an operation being one CLI
invocation).  ``--trace 1`` alternates untraced and traced passes and reports
the per-layer metrics of the traced ones plus ``trace.overhead_s``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the wall-time quartiles, the inputs and the host block.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
RUN_DIR = ROOT / ".bench_run"
SETUP_PROBES = 3
RUN_LIMIT_S = 170.0   # a child still running this long after the run began is killed


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Harness:
    """One benchmark run: a workload at one seed, in its own directory."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.dir = RUN_DIR / workload
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.spec = workloads.make(workload, seed)
        self.ini = self.dir / "inputs.ini"
        self.ini.write_text(self.spec["ini"])
        self.argv = [self._with_ini(argv) for argv in self.spec["argv"]]
        self.oracle_dir = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._n = 0
        self._deadline = _now() + RUN_LIMIT_S

    def _with_ini(self, argv: list[str]) -> list[str]:
        return [str(self.ini) if a == "{ini}" else a for a in argv]

    def child(self, spec: dict) -> tuple[dict | None, float]:
        """Start one child, wait for it; returns its result and its peak RSS
        in MB (from the kernel's accounting of the reaped process)."""
        self._n += 1
        tag = f"{self._n:03d}-{spec['mode']}"
        spec = {**spec, "root": str(ROOT),
                "result": str(self.dir / f"{tag}.result.json")}
        spec_path = self.dir / f"{tag}.spec.json"
        spec_path.write_text(json.dumps(spec))
        with open(self.dir / f"{tag}.log", "w") as log:
            proc = subprocess.Popen(
                [sys.executable, str(CHILD), str(spec_path), repr(_now())],
                stdout=log, stderr=subprocess.STDOUT, cwd=ROOT)
            status, usage = self._reap(proc, self._deadline)
        if status != 0 or not Path(spec["result"]).exists():
            self.problems.append(f"{tag}: child exited with {status}; see {tag}.log")
            return None, usage.ru_maxrss / 1024
        return json.loads(Path(spec["result"]).read_text()), usage.ru_maxrss / 1024

    @staticmethod
    def _reap(proc: subprocess.Popen, deadline: float):
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if _now() > deadline:
                proc.kill()
                pid, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.02)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, usage

    def probe(self, host: bool = False) -> dict | None:
        result, _ = self.child({"mode": "probe", "host": host})
        return result

    def run_oracle(self) -> None:
        """Workloads checked against a second route run it once per run."""
        if "oracle_argv" not in self.spec:
            return
        out = self.dir / "oracle"
        result, _ = self.child({"mode": "pass", "out": str(out), "trace": False,
                                "argv": [self._with_ini(self.spec["oracle_argv"])]})
        if result is not None and result["rcs"] == [0]:
            self.oracle_dir = out
        else:
            self.problems.append("oracle route failed")

    def run_pass(self, trace: bool) -> dict | None:
        out = self.dir / ("traced" if trace else "untraced")
        shutil.rmtree(out, ignore_errors=True)
        result, rss_mb = self.child({"mode": "pass", "argv": self.argv,
                                     "out": str(out), "trace": trace})
        n = len(self.argv)
        self.attempted += n
        if result is None:
            self.failed += n
            return None
        result["peak_rss_mb"] = rss_mb
        try:
            verdicts = workloads.CHECKS[self.workload](
                out, self.spec["params"], self.oracle_dir)
        except (OSError, KeyError, ValueError) as exc:
            verdicts = [[f"output unreadable: {exc!r}"]] * n
        for rc, problems in zip(result["rcs"], verdicts):
            if rc != 0:
                problems = [f"exit code {rc}"] + problems
            if problems:
                self.failed += 1
                self.problems.extend(problems)
        return result


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def untraced_run(h: Harness, seconds: float) -> dict:
    probes = [h.probe(host=(i == 0)) for i in range(SETUP_PROBES)]
    host = probes[0]["host"] if probes[0] else None
    setup = [p["setup_s"] for p in probes if p]
    h.run_oracle()
    passes = []
    start = _now()
    while not h.attempted or _now() - start < seconds:
        res = h.run_pass(trace=False)
        if res is not None:
            passes.append(res)
    if not passes:
        return {"host": host, "metrics": None}
    walls = [p["wall_s"] for p in passes]
    setup += [p["setup_s"] for p in passes]
    q1, med, q3 = _quartiles(walls)
    print(f"wall_s median={med:.4f} q1={q1:.4f} q3={q3:.4f} n={len(walls)}; "
          f"setup_s samples={len(setup)}")
    metrics = {
        "wall_s": med,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "ok_frac": 1.0 - h.failed / h.attempted,
    }
    return {"host": host, "metrics": metrics}


def traced_run(h: Harness, seconds: float) -> dict:
    probe = h.probe(host=True)
    h.run_oracle()
    plain, traced = [], []
    start = _now()
    while not traced or _now() - start < seconds:
        for trace, bucket in ((False, plain), (True, traced)):
            res = h.run_pass(trace=trace)
            if res is not None:
                bucket.append(res)
        if not (plain and traced):
            return {"host": None, "metrics": None}
    missing = sorted({name for p in traced for name in workloads.REQUIRED[h.workload]
                      if (p["counters"][name] if name in tracer.COUNTERS
                          else p["span_calls"].get(name, 0)) == 0})
    if missing:
        raise SystemExit(f"traced pass of {h.workload} recorded no calls for: "
                         + ", ".join(missing))
    layers = {name: statistics.median(p["layers"][name] for p in traced)
              for name in traced[0]["layers"]}
    layers["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                  - statistics.median(p["wall_s"] for p in plain))
    print(f"traced passes={len(traced)} untraced passes={len(plain)}")
    return {"host": probe and probe["host"], "metrics": layers}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "plaqising" / "cli.py").is_file():
        print(f"error: no plaqising sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    h = Harness(args.workload, args.seed)
    print("inputs " + json.dumps({"workload": args.workload, "seed": args.seed,
                                  "argv": h.argv, "ini": h.spec["ini"]}))
    run = traced_run(h, args.seconds) if args.trace else untraced_run(h, args.seconds)
    if run.get("host"):
        print("host " + json.dumps(run["host"]))
    for problem in h.problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    if run["metrics"] is None:
        print("error: no pass completed", file=sys.stderr)
        return 1
    units = dict(tracer.PER_LAYER) if args.trace else END_TO_END_UNITS
    print(json.dumps({
        "correct": h.failed == 0,
        "attempted": h.attempted,
        "failed": h.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in run["metrics"].items()},
    }))
    return 0


END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "ok_frac": "frac"}


if __name__ == "__main__":
    sys.exit(main())
