"""End-to-end acceptance checks with one printed verdict line per check.

Each test times itself, prints ``[acceptance] <label>: PASS/FAIL (detail)``
on the real stdout (so the lines survive pytest's capture), and then
asserts.  Budgets are part of the checks.

One check is EXPECTED TO FAIL and is kept failing on purpose:
``test_torus_levels_match_plain_chain_tensor_sum`` asks for a level-by-level
identity between the 2D spectrum and the plain tensor sum of the decoupled
dual chains.  On a torus that identity is false - the conserved diagonal
loops tie each chain's boundary twist and spin-flip parity to the loop
sector, so the plain sum both misses twisted-sector levels and adds
parity combinations the 2D model does not have.  Only the ground energies
coincide.  The sector-resolved companion test states the correct identity
and passes; see README for the full accounting.
"""

import sys
import time

import numpy as np

import conftest

from plaqising import (
    Boundary,
    ChainBoundary,
    DiagonalSegment,
    HamiltonianSpec,
    LatticeSpec,
    PauliString,
    TFIMChainSpec,
    bdg_solve,
    disorder_parameter,
    enumerate_plaquettes,
    magnetization_x,
    plaquette_operator,
    xx_correlator,
    zz_correlator,
)
from plaqising.duality import duality_spectrum_check
from plaqising.ed import (
    HamiltonianOperator,
    dense_matrix_from_terms,
    hamiltonian_terms,
)
from plaqising.lattice import site_diagonals
from plaqising.observables import (
    ground_state_for_measurement,
    plaquette_string_expectation_dual,
    plaquette_string_expectation_ed,
    sx_string_expectation_dual,
    sx_string_expectation_ed,
)
from plaqising.sweep import (
    CouplingSweepConfig,
    CritCorrConfig,
    ExponentsConfig,
    GapScalingConfig,
    run_coupling_sweep,
    run_crit_corr,
    run_exponents,
    run_gap_scaling,
)

from oracles import (
    commutes_with,
    dense_gs_expect,
    dense_levels,
    diagonal_loop_operator,
    manybody_gap,
    manybody_levels,
)

OPEN = ChainBoundary.OPEN_CHAIN
RING = ChainBoundary.PERIODIC_CHAIN

COUPLING_RATIOS = (0.5, 1.0, 2.0)


def _verdict(label: str, ok: bool, detail: str) -> None:
    line = f"[acceptance] {label}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, file=sys.__stdout__, flush=True)
    conftest.ACCEPTANCE_VERDICTS.append(line)


def _torus33(g: float) -> HamiltonianSpec:
    return HamiltonianSpec(LatticeSpec(3, 3, Boundary.PERIODIC), g, 1.0)


# ----------------------------------------------------------------------
# 1. spectrum identity between the 2D model and its dual chains
# ----------------------------------------------------------------------
def test_torus_levels_match_plain_chain_tensor_sum():
    """EXPECTED FAIL: the sector-blind tensor sum is not the 2D spectrum."""
    t0 = time.perf_counter()
    reports = [
        duality_spectrum_check(_torus33(g), tol=1e-9, sector_resolved=False)
        for g in COUPLING_RATIOS
    ]
    elapsed = time.perf_counter() - t0
    ok = all(r.passed for r in reports) and elapsed < 10.0
    detail = "; ".join(
        f"g/h={r.g:g}: {r.n_levels_2d} vs {r.n_levels_dual} distinct levels"
        for r in reports
    )
    _verdict("3x3 torus levels == plain chain tensor sum @ 1e-9",
             ok, f"{detail}; {elapsed:.1f}s")
    assert ok, (
        "the distinct 2D levels and the plain tensor-sum levels do not "
        f"coincide ({detail}); ground energies match but excited levels "
        "require resolving the conserved-loop sectors - see the companion "
        "test and README"
    )


def test_torus_levels_match_sector_resolved_chain_union():
    """Companion identity that does hold: union over loop sectors, exactly."""
    t0 = time.perf_counter()
    reports = [
        duality_spectrum_check(_torus33(g), tol=1e-9, sector_resolved=True)
        for g in COUPLING_RATIOS
    ]
    elapsed = time.perf_counter() - t0
    ok = all(r.passed for r in reports) and elapsed < 10.0
    detail = "; ".join(
        f"g/h={r.g:g}: max dev {r.max_deviation:.2e}" for r in reports
    )
    _verdict("3x3 torus levels == sector-resolved chain union @ 1e-9",
             ok, f"{detail}; {elapsed:.1f}s")
    assert ok, detail
    for r in reports:
        assert r.n_levels_2d == r.n_levels_dual == 512


# ----------------------------------------------------------------------
# 2. chain gap formula 2h|g_I - 1|
# ----------------------------------------------------------------------
def test_chain_gap_formula_at_large_length():
    t0 = time.perf_counter()
    parts = []
    worst = 0.0
    for g_I in (0.5, 0.8, 1.2, 2.0):
        gap = manybody_gap(TFIMChainSpec(2048, OPEN, g_I, 1.0))
        ref = 2.0 * abs(g_I - 1.0)
        rel = abs(gap - ref) / ref
        worst = max(worst, rel)
        parts.append(f"g_I={g_I:g}: rel {rel:.1e}")
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-3 and elapsed < 10.0
    _verdict("L=2048 gap == 2h|g_I-1| @ 0.1%",
             ok, f"{'; '.join(parts)}; {elapsed:.1f}s")
    assert ok, parts


# ----------------------------------------------------------------------
# 3. critical gap scaling with system size
# ----------------------------------------------------------------------
def test_critical_gap_scaling_slope():
    t0 = time.perf_counter()
    cfg = GapScalingConfig(sizes=(8, 16, 32, 64, 128), ed_sizes=(3, 4),
                           slope_band=0.02, ed_tol=1e-8)
    _, meta = run_gap_scaling(cfg)
    elapsed = time.perf_counter() - t0
    ok = meta["passed"] and elapsed < 120.0
    ed = "; ".join(
        f"N={c['size']}: ED dev {c['abs_error']:.1e}" for c in meta["ed_checks"]
    )
    _verdict("critical gap ~ 1/N (slope -1.00 +- 0.02, ED cross-check @ 1e-8)",
             ok, f"slope {meta['fit']['slope']:.4f}; {ed}; {elapsed:.1f}s")
    assert ok, meta


# ----------------------------------------------------------------------
# 4. critical connected transverse correlator
# ----------------------------------------------------------------------
def test_critical_connected_correlator_asymptote():
    t0 = time.perf_counter()
    _, meta = run_crit_corr(CritCorrConfig())  # L=4096, n=1..10
    elapsed = time.perf_counter() - t0
    ok = meta["passed"] and elapsed < 60.0
    _verdict(
        "critical <txtx>_conn == 4/(pi^2(4n^2-1)) @ 1e-3, const @ 1e-4",
        ok,
        f"worst {meta['worst_connected_error']:.1e}; additive constant "
        f"{meta['constant_measured']:.8f} supports {meta['supported_constant']} "
        f"(dev {meta['constant_abs_error_vs_4_over_pi2']:.1e}); {elapsed:.1f}s",
    )
    assert ok, meta
    # the measured constant decides between the two candidate closed forms
    assert meta["supported_constant"] == "4/pi^2"


# ----------------------------------------------------------------------
# 5. order-parameter exponents on both sides of the transition
# ----------------------------------------------------------------------
def test_order_parameter_exponents():
    t0 = time.perf_counter()
    _, meta = run_exponents(ExponentsConfig())  # L=4096, 7-point windows
    elapsed = time.perf_counter() - t0
    ok = meta["passed"] and elapsed < 300.0
    _verdict("beta1 == 0.25 +- 0.03 and beta2 == 0.125 +- 0.02",
             ok, f"beta1 {meta['beta1']:.4f}, beta2 {meta['beta2']:.4f}; "
                 f"{elapsed:.1f}s")
    assert ok, meta


# ----------------------------------------------------------------------
# 6. string order parameters across the coupling ray
# ----------------------------------------------------------------------
def test_string_order_sweep_is_monotone_with_exact_endpoints():
    t0 = time.perf_counter()
    rows, meta = run_coupling_sweep(CouplingSweepConfig())  # 11-point 4x4 ED
    elapsed = time.perf_counter() - t0
    ok = meta["passed"] and elapsed < 600.0
    e = meta["endpoints"]
    _verdict(
        "4x4 ED sweep: phi1/phi2 monotone, endpoints exact @ 1e-8",
        ok,
        f"phi1 {e['phi1_at_g0']:.1e}->{e['phi1_at_h0']:.1e} nonincreasing="
        f"{meta['phi1_monotone_nonincreasing']}, "
        f"phi2 {e['phi2_at_g0']:.1e}->{e['phi2_at_h0']:.1e} nondecreasing="
        f"{meta['phi2_monotone_nondecreasing']}; {elapsed:.1f}s",
    )
    assert ok, meta
    assert len(rows) == 11


# ----------------------------------------------------------------------
# 7. solver cross-checks (compact rerun of the per-module oracle suites)
# ----------------------------------------------------------------------
def test_solver_cross_checks():
    t0 = time.perf_counter()

    # free-fermion solver vs dense chain diagonalization
    ff_dev = 0.0
    for boundary in (OPEN, RING):
        for g_I in (0.5, 1.0, 1.7):
            spec = TFIMChainSpec(8, boundary, g_I, 1.0)
            dev = float(np.abs(
                manybody_levels(spec) - dense_levels(spec)
            ).max())
            ff_dev = max(ff_dev, dev)
    # correlators on the same footing (dense ground state is unique here)
    for boundary, g_I in [(OPEN, 0.5), (OPEN, 1.0), (RING, 1.0), (RING, 1.9)]:
        spec = TFIMChainSpec(8, boundary, g_I, 1.0)
        sol = bdg_solve(spec)
        ff_dev = max(ff_dev, abs(
            magnetization_x(sol, 2)
            - dense_gs_expect(spec, PauliString(((1, "X"),)))))
        ff_dev = max(ff_dev, abs(
            zz_correlator(sol, 2, 5)
            - dense_gs_expect(spec, PauliString(((1, "Z"), (4, "Z"))))))
        ff_dev = max(ff_dev, abs(
            xx_correlator(sol, 1, 4)
            - dense_gs_expect(spec, PauliString(((0, "X"), (3, "X"))))))
        if boundary is OPEN:
            ff_dev = max(ff_dev, abs(
                disorder_parameter(sol, 4)
                - dense_gs_expect(
                    spec, PauliString(tuple((k, "X") for k in range(4))))))
    ff_ok = ff_dev < 1e-8

    # algebraic invariants of the 2D operator machinery
    hs = _torus33(0.8)
    lat = hs.lattice
    H = HamiltonianOperator(hs.n_spins, hamiltonian_terms(hs)).dense()
    ed_dev = float(np.abs(H - H.T).max())
    plaqs = [plaquette_operator(lat, b) for b in enumerate_plaquettes(lat)]
    loops = [diagonal_loop_operator(lat, b)
             for b in range(len(site_diagonals(lat)))]
    alg_ok = all(op * op == PauliString()
                 for op in plaqs + loops)
    alg_ok &= all(commutes_with(a, b)
                  for i, a in enumerate(plaqs) for b in plaqs[i + 1:])
    for W in loops:
        Wd = dense_matrix_from_terms(hs.n_spins, [(1.0, W)])
        ed_dev = max(ed_dev, float(np.abs(H @ Wd - Wd @ H).max()))
    ed_ok = alg_ok and ed_dev < 1e-10

    # string observables: direct 2D measurement vs dual-chain correlators
    str_dev = 0.0
    for g in (0.5, 2.0):
        hs = _torus33(g)
        state, _ = ground_state_for_measurement(hs)
        cache: dict = {}
        seg = DiagonalSegment(2, 0, 1)
        str_dev = max(str_dev, abs(
            sx_string_expectation_ed(hs, seg, state)
            - sx_string_expectation_dual(hs, seg, cache)))
        str_dev = max(str_dev, abs(
            plaquette_string_expectation_ed(hs, 2, 0, 2, state)
            - plaquette_string_expectation_dual(hs, 2, 0, 2, cache)))
    hs16 = HamiltonianSpec(LatticeSpec(4, 4, Boundary.PERIODIC), 0.6, 1.0)
    state, _ = ground_state_for_measurement(hs16)
    cache = {}
    seg = DiagonalSegment(3, 1, 1)
    str_dev = max(str_dev, abs(
        sx_string_expectation_ed(hs16, seg, state)
        - sx_string_expectation_dual(hs16, seg, cache)))
    str_dev = max(str_dev, abs(
        plaquette_string_expectation_ed(hs16, 3, 0, 2, state)
        - plaquette_string_expectation_dual(hs16, 3, 0, 2, cache)))
    str_ok = str_dev < 1e-8

    elapsed = time.perf_counter() - t0
    ok = ff_ok and ed_ok and str_ok and elapsed < 300.0
    _verdict(
        "oracle cross-checks (fermion vs dense @ 1e-8; operator algebra "
        "@ 1e-10; 2D strings vs dual correlators @ 1e-8)",
        ok,
        f"fermion dev {ff_dev:.1e}; algebra dev {ed_dev:.1e}; "
        f"string dev {str_dev:.1e}; {elapsed:.1f}s",
    )
    assert ok, (ff_dev, ed_dev, alg_ok, str_dev, elapsed)
