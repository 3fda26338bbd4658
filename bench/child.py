"""One benchmark process: a set-up probe or one pass of a workload.

    python3 bench/child.py SPEC.json T_SPAWN

T_SPAWN is CLOCK_MONOTONIC as read by the parent just before it started this
process.  SPEC holds ``root`` (the checkout), ``mode`` (``probe`` or
``pass``), and for a pass ``argv`` (the CLI invocations), ``out`` and
``trace``.  The process writes its findings to ``SPEC["result"]``.

``setup_s`` runs from ``t_spawn`` until ``plaqising.cli`` and its dependencies
are imported.  ``wall_s`` runs from the first CLI call to the return of the
last one, which is when its last file is written.
"""

import sys
import time


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main(spec_path: str, t_spawn: float) -> int:
    import json
    with open(spec_path) as fh:
        spec = json.load(fh)
    root = spec["root"]
    sys.path.insert(0, root + "/src")
    import plaqising.cli as cli
    setup_s = _now() - t_spawn

    import os
    from pathlib import Path
    if not Path(cli.__file__).resolve().is_relative_to(Path(root).resolve()):
        raise SystemExit(f"plaqising was imported from {cli.__file__}, outside {root}")
    result: dict = {"setup_s": setup_s}
    if spec["mode"] == "probe":
        if spec.get("host"):
            import host
            result["host"] = host.describe(root)
    else:
        tracer = None
        if spec["trace"]:
            import tracer as tracing
            tracer = tracing.Tracer()
            tracing.install(tracer)
        out = spec["out"]
        rcs = []
        t0 = time.perf_counter()
        for argv in spec["argv"]:
            try:
                rcs.append(cli.main(argv + ["--out", out]))
            except Exception:  # report the traceback, keep the pass going
                import traceback
                traceback.print_exc()
                rcs.append(-1)
        result["wall_s"] = time.perf_counter() - t0
        result["rcs"] = rcs
        written = 0
        for argv in spec["argv"]:
            for name in (f"{argv[0]}.csv", f"{argv[0]}.meta.json"):
                path = os.path.join(out, name)
                if os.path.exists(path):
                    written += os.path.getsize(path)
        if tracer is not None:
            tracer.counters["cli.bytes_written"] = written
            result["layers"] = tracing.layer_metrics(tracer.spans, tracer.counters)
            result["counters"] = tracer.counters
            result["span_calls"] = {name: agg["calls"] for name, agg
                                    in tracing.span_totals(tracer.spans).items()}
            with open(os.path.join(out, "spans.json"), "w") as fh:
                json.dump(tracer.spans, fh)
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], float(sys.argv[2])))
