"""Checks of the benchmark itself (not part of the package's test suite).

    python3 -m pytest bench/tests -q

The repeat test runs two traced passes each of ``spectra`` and
``dual-torus`` (about 30 s together); between them they exercise every
counter named below.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

EXACT_COUNTERS = ("ed.lanczos.iterations", "ed.compile.bytes_computed",
                  "freefermion.det_flops_computed")
# which of them each repeat-tested workload drives away from zero
NONZERO = {"spectra": ("ed.lanczos.iterations", "ed.compile.bytes_computed"),
           "dual-torus": ("freefermion.det_flops_computed",)}


def test_benchmark_json_lists_what_the_harness_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracer.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        ["c", 2.0, 3.0, 1],
        ["a", 5.0, 7.0, 0],   # recursion: counted in calls, not twice in s
    ]
    totals = tracer.span_totals(spans)
    assert totals["a"] == {"calls": 2, "s": 10.0, "self_s": 5.0 + 2.0}
    assert totals["b"] == {"calls": 1, "s": 3.0, "self_s": 2.0}
    assert totals["c"]["self_s"] == 1.0


def test_install_reaches_every_binding_and_reports_a_missed_one():
    sys.path.insert(0, str(BENCH.parent / "src"))
    import plaqising.cli  # noqa: F401  (loads every traced module)
    from plaqising import cli, freefermion, observables, sweep

    original = freefermion.bdg_solve
    swaps = tracer.install(tracer.Tracer())
    assert tracer.unwrapped_bindings(swaps) == []
    for mod in (freefermion, observables, sweep):
        assert mod.bdg_solve is swaps[original]
    assert all(runner in swaps.values() for _, runner in cli._COMMANDS.values())
    sweep.bdg_solve = original
    try:
        assert tracer.unwrapped_bindings(swaps) == ["plaqising.sweep.bdg_solve"]
    finally:
        sweep.bdg_solve = swaps[original]


def test_seed_moves_inputs_but_not_the_amount_of_work():
    for name in workloads.WORKLOADS:
        a = workloads.make(name, 1)
        b = workloads.make(name, 2)
        assert a == workloads.make(name, 1)
        assert a["params"] != b["params"]
        assert [argv[0] for argv in a["argv"]] == [argv[0] for argv in b["argv"]]
    grid = workloads.make("exponents", 3)["params"]
    assert len(grid["ordered"]) == len(workloads.ORDERED_GRID)
    assert all(g - workloads.GRID_WINDOW <= x <= g
               for x, g in zip(grid["ordered"], workloads.ORDERED_GRID))
    assert all(g <= x <= g + workloads.GRID_WINDOW
               for x, g in zip(grid["disordered"], workloads.DISORDERED_GRID))


@pytest.mark.parametrize("workload", sorted(NONZERO))
def test_counts_repeat_exactly_across_traced_runs(workload):
    h = run.Harness(workload, workloads.DEFAULT_SEED)
    first = h.run_pass(trace=True)
    second = h.run_pass(trace=True)
    assert h.failed == 0, h.problems
    assert first["span_calls"] == second["span_calls"]
    for name in EXACT_COUNTERS:
        assert first["counters"][name] == second["counters"][name]
    calls = {k: v for k, v in first["layers"].items() if k.endswith(".calls")}
    assert calls == {k: second["layers"][k] for k in calls}
    assert any(calls.values())
    assert all(first["counters"][name] > 0 for name in NONZERO[workload])
