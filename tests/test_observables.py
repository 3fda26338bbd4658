"""String observables: the direct 2D route against the dual-chain route."""

import math

import numpy as np
import pytest

from plaqising.duality import assemble_sector_spectrum, map_hamiltonian
from plaqising.ed import (
    HamiltonianOperator,
    HamiltonianSpec,
    expectation,
    full_spectrum,
    hamiltonian_terms,
)
from plaqising.errors import (
    InvalidSpec,
    NotMappable,
    SiteOutOfRange,
    TooLarge,
)
from plaqising.freefermion import zz_correlator
from plaqising.lattice import (
    Boundary,
    LatticeSpec,
    diagonal_loop_operator,
    enumerate_plaquettes,
    plaquette_operator,
    site_adjacent_plaquettes,
)
from plaqising.observables import (
    DiagonalSegment,
    ground_state_for_measurement,
    plaquette_string,
    plaquette_string_expectation_dual,
    plaquette_string_expectation_ed,
    segment_sites,
    sx_string,
    sx_string_expectation_dual,
    sx_string_expectation_ed,
)
from plaqising.pauli import sigma_x
from plaqising.ed import _loop_masks, _parity_labels
from plaqising.observables import _dual_chain_solution


def torus(n, m, g=1.0, h=1.0):
    return HamiltonianSpec(LatticeSpec(n, m, Boundary.PERIODIC), g, h)


def open_lat(n, m, g=1.0, h=1.0):
    return HamiltonianSpec(LatticeSpec(n, m, Boundary.OPEN), g, h)


# ----------------------------------------------------------------------
# geometry of segments and strings
# ----------------------------------------------------------------------
def test_segment_sites_follow_the_antidiagonal():
    spec = LatticeSpec(3, 3, Boundary.PERIODIC)
    seg = DiagonalSegment(2, 0, 3)
    # (2,0) -> (1,1) -> (0,2) -> wraps to (2,0)
    assert segment_sites(spec, seg) == (6, 4, 2, 6)


def test_segment_leaves_open_lattice():
    spec = LatticeSpec(3, 3, Boundary.OPEN)
    assert segment_sites(spec, DiagonalSegment(2, 0, 2)) == (6, 4, 2)
    with pytest.raises(SiteOutOfRange):
        segment_sites(spec, DiagonalSegment(2, 0, 3))
    with pytest.raises(InvalidSpec):
        DiagonalSegment(0, 0, -1)


def test_sx_string_structure():
    spec = LatticeSpec(3, 3, Boundary.PERIODIC)
    ps = sx_string(spec, DiagonalSegment(1, 0, 1))
    # covers (1,0) -> (0,1), i.e. sites 3 and 1, sorted by site index
    assert ps.factors == ((1, "X"), (3, "X"))
    assert ps.phase == 1.0


def test_plaquette_string_is_the_operator_product():
    spec = LatticeSpec(3, 3, Boundary.PERIODIC)
    ops = {b: plaquette_operator(spec, b) for b in enumerate_plaquettes(spec)}
    ps = plaquette_string(spec, 2, 0, 2)
    ref = ops[spec.site_index(2, 0)] * ops[spec.site_index(1, 1)]
    assert ps.factors == ref.factors
    assert ps.phase == ref.phase


def test_plaquette_string_validation():
    spec = LatticeSpec(3, 3, Boundary.OPEN)
    with pytest.raises(InvalidSpec):
        plaquette_string(spec, 0, 0, 0)
    with pytest.raises(SiteOutOfRange):
        plaquette_string(spec, 0, 0, 2)  # (-1, 1) is not an open-lattice base


# ----------------------------------------------------------------------
# loop-sector ground states
# ----------------------------------------------------------------------
def test_measurement_state_is_an_unbiased_eigenstate():
    hs = torus(3, 3, 0.8, 1.1)
    state, energy = ground_state_for_measurement(hs)
    assert np.linalg.norm(state) == pytest.approx(1.0)
    hv = HamiltonianOperator(hs.n_spins, hamiltonian_terms(hs)).matvec(state)
    e = float(state @ hv)
    assert np.linalg.norm(hv - e * state) < 1e-7
    assert energy == pytest.approx(e, abs=1e-10)
    model = map_hamiltonian(hs)
    assert e == pytest.approx(assemble_sector_spectrum(model, (1, 1, 1))[0])


@pytest.mark.parametrize("lattice", [
    LatticeSpec(3, 3, Boundary.PERIODIC), LatticeSpec(4, 3, Boundary.PERIODIC),
    LatticeSpec(3, 3, Boundary.OPEN), LatticeSpec(3, 4, Boundary.OPEN),
], ids=["torus3x3", "torus4x3", "open3x3", "open3x4"])
@pytest.mark.parametrize("g, h", [(0.5, 1.0), (1.0, 1.0), (2.0, 1.0),
                                  (0.0, 1.0), (1.0, 0.0)])
def test_all_plus_sector_holds_the_global_ground_state(lattice, g, h):
    hs = HamiltonianSpec(lattice, g, h)
    _, energy = ground_state_for_measurement(hs)
    assert abs(energy - full_spectrum(hs).ground_energy) <= 1e-10


def test_excited_sector_ground_state():
    hs = torus(3, 3)
    sector = (-1, 1, 1)
    state, energy = ground_state_for_measurement(hs, sector=sector)
    model = map_hamiltonian(hs)
    assert energy == pytest.approx(assemble_sector_spectrum(model, sector)[0])
    for b, wb in enumerate(sector):
        w = expectation(state, diagonal_loop_operator(hs.lattice, b)).real
        assert abs(w - wb) < 1e-10, b


def test_sector_basis_must_be_invariant():
    # unrotated, every sx flips one bit and so one loop parity: the sector
    # labels are not closed under the z-basis terms
    hs = torus(3, 3)
    labels = _parity_labels(hs.n_spins, _loop_masks(hs.lattice), (1, 1, 1))
    with pytest.raises(InvalidSpec):
        HamiltonianOperator(hs.n_spins, hamiltonian_terms(hs), basis=labels)


def test_measurement_state_budget_is_checked_before_allocating(monkeypatch):
    import plaqising.ed as ed

    def never(*args):
        raise AssertionError("sector labels allocated past the budget")

    monkeypatch.setattr(ed, "_parity_labels", never)
    with pytest.raises(TooLarge):
        ground_state_for_measurement(open_lat(3, 7))
    with pytest.raises(TooLarge):  # 15 spins: over the dense budget
        full_spectrum(torus(5, 3))


def test_sector_label_validation():
    with pytest.raises(InvalidSpec):
        ground_state_for_measurement(torus(3, 3), sector=(1, 1))


# ----------------------------------------------------------------------
# dual route == direct route on small tori
# ----------------------------------------------------------------------
@pytest.mark.parametrize("g", [0.5, 1.0, 2.0])
def test_sx_string_dual_matches_ed_3x3(g):
    hs = torus(3, 3, g, 1.0)
    state, _ = ground_state_for_measurement(hs)
    cache = {}
    for n in (0, 1):
        seg = DiagonalSegment(2, 0, n)
        ed = sx_string_expectation_ed(hs, seg, state=state)
        du = sx_string_expectation_dual(hs, seg, _cache=cache)
        assert abs(ed - du) < 1e-8, (g, n)


@pytest.mark.parametrize("g", [0.5, 1.0, 2.0])
def test_plaquette_string_dual_matches_ed_3x3(g):
    hs = torus(3, 3, g, 1.0)
    state, _ = ground_state_for_measurement(hs)
    cache = {}
    for r in (1, 2, 3):  # r = 3 is the whole ring: the chain parity, exactly 1
        ed = plaquette_string_expectation_ed(hs, 2, 0, r, state=state)
        du = plaquette_string_expectation_dual(hs, 2, 0, r, _cache=cache)
        assert abs(ed - du) < 1e-8, (g, r)
    assert plaquette_string_expectation_dual(hs, 2, 0, 3, _cache=cache) == 1.0


def test_strings_on_the_single_chain_torus():
    # gcd(4,3) = 1: one wrapped ring of length 12
    hs = torus(4, 3, 1.0, 0.7)
    state, _ = ground_state_for_measurement(hs)
    cache = {}
    for n in (2, 5):
        seg = DiagonalSegment(3, 0, n)
        ed = sx_string_expectation_ed(hs, seg, state=state)
        du = sx_string_expectation_dual(hs, seg, _cache=cache)
        assert abs(ed - du) < 1e-8, n
    ed = plaquette_string_expectation_ed(hs, 3, 0, 6, state=state)
    du = plaquette_string_expectation_dual(hs, 3, 0, 6, _cache=cache)
    assert abs(ed - du) < 1e-8


@pytest.mark.parametrize("n,m", [(3, 3), (4, 3), (3, 4), (4, 4)])
def test_dual_strings_match_ed_at_every_anchor(n, m):
    # every anchor of the torus: sx segments of up to ell - 2 steps and
    # plaquette runs of up to ell plaquettes, ell = lcm(n, m) the ring length
    hs = torus(n, m, 0.8, 1.1)
    state, _ = ground_state_for_measurement(hs)
    ell = math.lcm(n, m)
    cache = {}
    for r in range(n):
        for c in range(m):
            for steps in range(ell - 1):
                seg = DiagonalSegment(r, c, steps)
                ed = sx_string_expectation_ed(hs, seg, state=state)
                du = sx_string_expectation_dual(hs, seg, _cache=cache)
                assert abs(ed - du) < 1e-8, (r, c, steps)
            for k in range(1, ell + 1):
                ed = plaquette_string_expectation_ed(hs, r, c, k, state=state)
                du = plaquette_string_expectation_dual(hs, r, c, k, _cache=cache)
                assert abs(ed - du) < 1e-8, (r, c, k)


def test_strings_on_the_4x4_torus():
    hs = torus(4, 4, 1.0, 1.0)
    state, _ = ground_state_for_measurement(hs)
    seg = DiagonalSegment(3, 1, 1)
    ed = sx_string_expectation_ed(hs, seg, state=state)
    du = sx_string_expectation_dual(hs, seg)
    assert abs(ed - du) < 1e-8
    ed = plaquette_string_expectation_ed(hs, 3, 0, 2, state=state)
    du = plaquette_string_expectation_dual(hs, 3, 0, 2)
    assert abs(ed - du) < 1e-8


def test_local_sx_is_uniform_and_matches_the_dual_bond():
    hs = torus(3, 3, 1.3, 1.0)
    state, _ = ground_state_for_measurement(hs)
    prof = np.array([expectation(state, sigma_x(j)).real for j in range(hs.n_spins)])
    assert np.ptp(prof) < 1e-8
    model = map_hamiltonian(hs)
    sol = _dual_chain_solution(model, 0)
    assert prof[0] == pytest.approx(zz_correlator(sol, 1, 2), abs=1e-8)


# ----------------------------------------------------------------------
# endpoint cases and route applicability
# ----------------------------------------------------------------------
def test_h_zero_endpoint_via_ed():
    # the dual chains have no bonds: free spins along the field
    for n, seg in ((3, DiagonalSegment(2, 0, 1)), (4, DiagonalSegment(3, 1, 2))):
        hs = torus(n, n, 1.0, 0.0)
        state, _ = ground_state_for_measurement(hs)
        phi1 = sx_string_expectation_ed(hs, seg, state=state)
        phi2 = plaquette_string_expectation_ed(hs, n - 1, 0, 2, state=state)
        assert abs(phi1) < 1e-8
        assert phi2 == pytest.approx(1.0, abs=1e-8)
        dual1 = sx_string_expectation_dual(hs, seg)
        assert dual1 == pytest.approx(phi1, abs=1e-12)
        assert math.copysign(1.0, dual1) == 1.0, n  # +0.0, also for odd r
        dual2 = plaquette_string_expectation_dual(hs, n - 1, 0, 2)
        assert dual2 == pytest.approx(phi2, abs=1e-12)


def test_g_zero_endpoint_via_ed():
    hs = torus(3, 3, 0.0, 1.0)
    state, _ = ground_state_for_measurement(hs)
    phi1 = sx_string_expectation_ed(hs, DiagonalSegment(2, 0, 1), state=state)
    phi2 = plaquette_string_expectation_ed(hs, 2, 0, 2, state=state)
    assert phi1 == pytest.approx(1.0, abs=1e-8)
    assert abs(phi2) < 1e-8


def test_dual_route_needs_the_torus():
    hs = open_lat(3, 3)
    seg = DiagonalSegment(2, 0, 1)
    assert abs(sx_string_expectation_ed(hs, seg)) <= 1.0  # direct route works
    with pytest.raises(NotMappable):
        sx_string_expectation_dual(hs, seg)
    with pytest.raises(NotMappable):
        plaquette_string_expectation_dual(hs, 1, 0, 1)


def test_dual_sx_string_checks_its_first_bond(monkeypatch):
    # the string's ring and start come from the one site rule, so a first
    # site whose plaquettes are not consecutive is refused, not measured
    import plaqising.duality as duality

    hs = torus(4, 4)
    first = hs.lattice.site_index(3, 1)
    second = site_adjacent_plaquettes(hs.lattice, first)[1]
    exact = duality.plaquette_chain_position

    def moved(lattice, base):
        ci, k = exact(lattice, base)
        return ci, k + 1 if base == second else k

    monkeypatch.setattr(duality, "plaquette_chain_position", moved)
    with pytest.raises(NotMappable, match="not consecutive"):
        sx_string_expectation_dual(hs, DiagonalSegment(3, 1, 1))


def test_whole_ring_sx_segment_is_not_a_two_point_function():
    hs = torus(3, 3)
    with pytest.raises(NotMappable):
        sx_string_expectation_dual(hs, DiagonalSegment(2, 0, 2))


def test_dual_sweep_builds_one_model_per_point(monkeypatch):
    import plaqising.observables as observables
    from plaqising.sweep import CouplingSweepConfig, run_coupling_sweep

    calls = []

    def counting(hs):
        calls.append(hs)
        return map_hamiltonian(hs)

    monkeypatch.setattr(observables, "map_hamiltonian", counting)
    cfg = CouplingSweepConfig(rows=6, cols=6, route="dual")
    run_coupling_sweep(cfg)
    # the sweep's h = 0 shortcut builds no model
    assert len(calls) == cfg.steps - 1
    assert len(set(calls)) == cfg.steps - 1


@pytest.mark.parametrize("s", [2, 3])
def test_ed_sweep_is_self_dual(s):
    # Kramers-Wannier on the dual chains: swapping g and h maps row t of the
    # symmetric grid to row T - t, an s-site sx string to s plaquettes, and
    # leaves the ground energy unchanged
    from plaqising.sweep import CouplingSweepConfig, run_coupling_sweep

    rows, _ = run_coupling_sweep(CouplingSweepConfig(
        string_steps=s - 1, plaquette_count=s))
    for row, mirror in zip(rows, reversed(rows)):
        assert abs(row["energy"] - mirror["energy"]) <= 1e-12, row["step"]
        assert abs(row["phi1"] - mirror["phi2"]) <= 1e-10, row["step"]
