"""Chain decomposition, operator mapping, and sector-resolved spectra."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from plaqising.duality import (
    DualModel,
    assemble_sector_spectrum,
    dual_lattice_gap,
    dual_site_offsets,
    duality_spectrum_check,
    full_dual_spectrum,
    map_hamiltonian,
    map_operator,
    sector_chain_specs,
    _dense_chain_levels,
    _tensor_sum,
)
from plaqising.ed import (
    HamiltonianSpec,
    dense_matrix_from_terms,
    full_spectrum,
    gap_from_levels,
    ground_spectrum,
    hamiltonian_terms,
)
from plaqising.errors import InvalidSpec, NotMappable, TooLarge
from plaqising.freefermion import TFIMChainSpec, chain_terms, ring_sector_levels
from plaqising.lattice import (
    Boundary,
    ChainBoundary,
    LatticeSpec,
    chain_decompose,
    diagonal_loop_operator,
    enumerate_plaquettes,
    plaquette_chain_position,
    plaquette_operator,
    site_adjacent_plaquettes,
)
from plaqising.pauli import PauliString
from plaqising.sweep import _ed_torus_spectrum


def torus(n, m, g=1.0, h=1.0):
    return HamiltonianSpec(LatticeSpec(n, m, Boundary.PERIODIC), g, h)


def open_lat(n, m, g=1.0, h=1.0):
    return HamiltonianSpec(LatticeSpec(n, m, Boundary.OPEN), g, h)


# ----------------------------------------------------------------------
# chain decomposition bookkeeping
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n,m", [(3, 3), (4, 3), (6, 9)])
def test_torus_map_structure(n, m):
    model = map_hamiltonian(torus(n, m, 0.7, 1.3))
    d = math.gcd(n, m)
    assert model.n_diagonals == d
    assert len(model.chains) == d
    assert model.free_sites == ()
    for sp in model.chains:
        assert sp.length == n * m // d
        assert sp.boundary is ChainBoundary.PERIODIC_CHAIN
        assert sp.edge_fields == ()
        assert (sp.field, sp.bond) == (0.7, 1.3)
    # one ring per decomposition chain, in the same order; ring a is dual to
    # site diagonal a, the diagonal of its plaquette bases
    chains = chain_decompose(model.lattice)
    assert [sp.length for sp in model.chains] == [len(b) for b in chains]
    assert [sum(model.lattice.site_rc(b[0])) % d for b in chains] == list(range(d))


@pytest.mark.parametrize("n,m", [(2, 3), (3, 3), (4, 5)])
def test_open_map_structure(n, m):
    model = map_hamiltonian(open_lat(n, m, 1.0, 0.5))
    assert model.n_diagonals == n + m - 1
    assert len(model.chains) == n + m - 3
    assert sum(sp.length for sp in model.chains) == (n - 1) * (m - 1)
    for sp in model.chains:
        assert sp.boundary is ChainBoundary.OPEN_CHAIN
        assert len(sp.edge_fields) == 2
        assert all(s == 1.0 for _, s in sp.edge_fields)
    # the two corners not adjacent to any plaquette Y-corner stay free
    spec = model.lattice
    # every chain has two edge sites: sites with a single adjacent plaquette
    adjacent = [site_adjacent_plaquettes(spec, s) for s in range(spec.n_sites)]
    edge_chains = [plaquette_chain_position(spec, adj[0])[0]
                   for adj in adjacent if len(adj) == 1]
    assert sorted(edge_chains) == sorted(2 * list(range(len(model.chains))))
    assert model.free_sites == (spec.site_index(0, 0), spec.site_index(n - 1, m - 1))
    # each 2D site is a bond, an edge field, or a free coordinate
    bonds = sum(sp.length - 1 for sp in model.chains)
    edges = sum(len(sp.edge_fields) for sp in model.chains)
    assert bonds + edges + len(model.free_sites) == n * m


def test_open_chain_lengths_3x3():
    model = map_hamiltonian(open_lat(3, 3))
    assert [sp.length for sp in model.chains] == [1, 2, 1]
    # chain a is dual to site diagonal a + 1: its bond and edge sites lie there
    spec = model.lattice
    for s in range(spec.n_sites):
        for b in site_adjacent_plaquettes(spec, s):
            assert sum(spec.site_rc(s)) == plaquette_chain_position(spec, b)[0] + 1


def test_h_zero_map_produces_bondless_chains():
    model = map_hamiltonian(torus(3, 3, g=2.0, h=0.0))
    for sp in model.chains:
        assert (sp.field, sp.bond) == (2.0, 0.0)


@given(st.sampled_from(list(Boundary)), st.integers(2, 12), st.integers(2, 12))
@example(Boundary.PERIODIC, 6, 3)   # M // d == 1
@example(Boundary.PERIODIC, 3, 6)   # N // d == 1
@example(Boundary.PERIODIC, 4, 5)   # gcd 1: one ring through every plaquette
@example(Boundary.PERIODIC, 8, 12)
@example(Boundary.OPEN, 4, 5)       # chains of unequal length
def test_chain_of_plaquette_lookup(boundary, n, m):
    assume(boundary is Boundary.OPEN or min(n, m) >= 3)
    spec = LatticeSpec(n, m, boundary)
    chains = chain_decompose(spec)
    for ci, bases in enumerate(chains):
        for k, base in enumerate(bases):
            assert plaquette_chain_position(spec, base) == (ci, k)
    assert sum(map(len, chains)) == len(enumerate_plaquettes(spec))


def test_chain_of_plaquette_rejects_a_non_base_site():
    spec, tor = LatticeSpec(4, 5, Boundary.OPEN), LatticeSpec(4, 6, Boundary.PERIODIC)
    for lattice, site in [(spec, spec.site_index(1, 4)),   # last column
                          (spec, spec.site_index(3, 2)),   # last row
                          (tor, -1), (tor, tor.n_sites)]:
        with pytest.raises(InvalidSpec):
            plaquette_chain_position(lattice, site)


@pytest.mark.parametrize("hs", [torus(4, 6, 0.7, 1.3), open_lat(4, 5, 0.7, 1.3)])
def test_equal_models_compare_and_hash_equal(hs):
    a, b = map_hamiltonian(hs), map_hamiltonian(hs)
    assert a is not b
    assert a == b
    assert hash(a) == hash(b)


# ----------------------------------------------------------------------
# operator mapping
# ----------------------------------------------------------------------
def dual_register_size(model: DualModel) -> int:
    return sum(sp.length for sp in model.chains) + len(model.free_sites)


@pytest.mark.parametrize("hs", [torus(3, 3, 0.8, 1.1), open_lat(3, 3, 0.8, 1.1),
                                open_lat(2, 3, 1.0, 1.0)])
def test_dual_register_spectrum_matches_chain_tensor_sum(hs):
    # mapping every Hamiltonian term onto the concatenated chain register
    # must reproduce the plain (all +1 sector) dual spectrum exactly
    model = map_hamiltonian(hs)
    n_dual = dual_register_size(model)
    terms = [(coef, map_operator(model, ps)) for coef, ps in hamiltonian_terms(hs)]
    H = dense_matrix_from_terms(n_dual, terms)
    parts = [_dense_chain_levels(sp) for sp in model.chains]
    for _ in model.free_sites:
        parts.append(np.array([-hs.h, hs.h]))
    np.testing.assert_allclose(
        np.linalg.eigvalsh(H), np.sort(_tensor_sum(parts)), atol=1e-12
    )


@pytest.mark.parametrize("parity", [1, -1])
def test_dense_chain_levels_densify_only_the_parity_block(monkeypatch, parity):
    import plaqising.ed as ed

    shapes = []
    dense = ed.HamiltonianOperator.dense

    def recording(self):
        H = dense(self)
        shapes.append(H.shape)
        return H

    monkeypatch.setattr(ed.HamiltonianOperator, "dense", recording)
    sp = TFIMChainSpec(10, ChainBoundary.PERIODIC_CHAIN, 0.9, 1.0)
    levels = _dense_chain_levels(sp, parity)
    assert shapes == [(512, 512)]
    np.testing.assert_allclose(levels, ring_sector_levels(sp, parity),
                               rtol=0, atol=1e-10)


@pytest.mark.parametrize("length", [9, 10])
@pytest.mark.parametrize("parity", [1, -1])
def test_dense_chain_levels_of_twisted_rings_match_the_fermions(length, parity):
    # the twisted closing bond maps onto itself under reversal, so these
    # blocks are solved in their two mirror halves
    sp = TFIMChainSpec(length, ChainBoundary.PERIODIC_CHAIN, 0.9, 1.0, twist=-1)
    np.testing.assert_allclose(_dense_chain_levels(sp, parity),
                               ring_sector_levels(sp, parity), rtol=0, atol=1e-10)


@pytest.mark.parametrize("parity", [0, 1, -1])
def test_dense_chain_levels_refuse_a_chain_over_the_dense_budget(parity):
    sp = TFIMChainSpec(15, ChainBoundary.PERIODIC_CHAIN, 1.0, 1.0)
    with pytest.raises(TooLarge):
        _dense_chain_levels(sp, parity)


def test_plaquette_maps_to_transverse_field():
    hs = torus(3, 3)
    model = map_hamiltonian(hs)
    offsets, _ = dual_site_offsets(model)
    for b in enumerate_plaquettes(hs.lattice):
        img = map_operator(model, plaquette_operator(hs.lattice, b))
        ci, k = plaquette_chain_position(hs.lattice, b)
        assert img.factors == ((offsets[ci] + k, "X"),)
        assert img.phase == 1.0


def test_field_maps_to_ising_bond_on_torus():
    hs = torus(3, 3)
    model = map_hamiltonian(hs)
    for s in range(9):
        img = map_operator(model, PauliString(((s, "X"),)))
        assert img.phase == 1.0
        assert len(img.factors) == 2
        assert all(ax == "Z" for _, ax in img.factors)


def test_open_edge_and_corner_images():
    hs = open_lat(3, 3)
    model = map_hamiltonian(hs)
    offsets, free_coord = dual_site_offsets(model)
    # a free corner keeps a transverse-field image on its own coordinate
    img = map_operator(model, PauliString(((0, "X"),)))
    assert img.factors == ((free_coord[0], "X"),)
    # an edge site (one adjacent plaquette) maps to the single tz of the
    # matching edge field on that plaquette's chain
    chains = chain_decompose(hs.lattice)
    edges = 0
    for s in range(hs.lattice.n_sites):
        adj = site_adjacent_plaquettes(hs.lattice, s)
        if len(adj) != 1:
            continue
        ci = next(ci for ci, bases in enumerate(chains) if adj[0] in bases)
        img = map_operator(model, PauliString(((s, "X"),)))
        (pos, ax), = img.factors
        assert ax == "Z"
        assert pos - offsets[ci] in [k for k, _ in model.chains[ci].edge_fields]
        edges += 1
    assert edges == sum(len(sp.edge_fields) for sp in model.chains)


def test_operator_map_is_a_homomorphism():
    # products (including anticommutation signs) must be preserved
    hs = torus(3, 3)
    model = map_hamiltonian(hs)
    bases = enumerate_plaquettes(hs.lattice)
    f0 = plaquette_operator(hs.lattice, bases[0])
    x_corner = PauliString(((bases[0] + 1, "X"),))  # a Y corner of f0
    f3 = plaquette_operator(hs.lattice, bases[3])
    for a, b in [(f0, x_corner), (x_corner, f0), (f0, f3)]:
        lhs = map_operator(model, a * b)
        rhs = map_operator(model, a) * map_operator(model, b)
        assert lhs.factors == rhs.factors
        assert lhs.phase == rhs.phase
    # the pair above anticommutes, so the two orders differ by a sign
    assert map_operator(model, f0 * x_corner).phase == -map_operator(
        model, x_corner * f0
    ).phase


@pytest.mark.parametrize("hs", [torus(3, 3), open_lat(3, 4)])
def test_conserved_loops_map_to_identity(hs):
    model = map_hamiltonian(hs)
    for b in range(model.n_diagonals):
        w = diagonal_loop_operator(hs.lattice, b)
        img = map_operator(model, w)
        if hs.lattice.boundary is Boundary.OPEN and any(
            s in model.free_sites for s, _ in w.factors
        ):
            # loops through a free corner keep that single free X factor
            assert all(s >= dual_register_size(model) - 2 for s, _ in img.factors)
        else:
            assert img.factors == ()
            assert img.phase == 1.0


@pytest.mark.parametrize("hs", [torus(3, 3, 0.7, 1.3), torus(4, 6, 0.7, 1.3),
                                open_lat(3, 4, 0.7, 1.3), open_lat(2, 5, 0.7, 1.3)])
def test_both_maps_agree_term_by_term(hs):
    # map_operator on every 2D term, with its coefficient, gives the chain
    # terms of map_hamiltonian placed in the concatenated register, plus
    # -h X on each free coordinate
    model = map_hamiltonian(hs)
    offsets, free_coord = dual_site_offsets(model)
    mapped = [(img.factors, coef * img.phase) for coef, ps in hamiltonian_terms(hs)
              for img in [map_operator(model, ps)]]
    dual = [(shifted.factors, coef * shifted.phase)
            for off, sp in zip(offsets, model.chains) for coef, ps in chain_terms(sp)
            for shifted in [PauliString(tuple((off + j, ax) for j, ax in ps.factors),
                                        ps.phase)]]
    dual += [(((x, "X"),), -hs.h) for x in free_coord.values()]
    mapped.sort(key=lambda t: (t[0], t[1].real))
    dual.sort(key=lambda t: (t[0], t[1].real))
    assert [f for f, _ in mapped] == [f for f, _ in dual]
    np.testing.assert_allclose([c for _, c in mapped], [c for _, c in dual],
                               rtol=1e-15, atol=0)


def _bond_two_apart(lattice, base):
    """``plaquette_chain_position``, except that the first bond site's first
    plaquette lands two positions past its second."""
    s = next(s for s in range(lattice.n_sites)
             if len(site_adjacent_plaquettes(lattice, s)) == 2)
    moved, kept = site_adjacent_plaquettes(lattice, s)
    ci, k = plaquette_chain_position(lattice, kept if base == moved else base)
    return ci, k + 2 if base == moved else k


def test_bond_plaquettes_two_positions_apart_are_not_mappable(monkeypatch):
    import plaqising.duality as duality

    model = map_hamiltonian(torus(4, 6))
    monkeypatch.setattr(duality, "plaquette_chain_position", _bond_two_apart)
    with pytest.raises(NotMappable, match="not consecutive"):
        map_operator(model, PauliString(((0, "X"),)))
    with pytest.raises(NotMappable, match="not consecutive"):
        map_hamiltonian(open_lat(3, 4))


def test_unmappable_operators_raise():
    model = map_hamiltonian(torus(3, 3))
    with pytest.raises(NotMappable):
        map_operator(model, PauliString(((0, "Z"),)))
    with pytest.raises(NotMappable):
        map_operator(model, PauliString(((2, "Y"),)))


# ----------------------------------------------------------------------
# symmetry sectors
# ----------------------------------------------------------------------
def test_sector_twist_parity_assignment():
    model = map_hamiltonian(torus(3, 3))
    specs, parities, free_e = sector_chain_specs(model, (-1, 1, 1))
    assert [sp.twist for sp in specs] == [1, 1, -1]
    assert parities == (-1, -1, 1)
    assert free_e == 0.0
    specs, parities, _ = sector_chain_specs(model, (1, 1, 1))
    assert [sp.twist for sp in specs] == [1, 1, 1]
    assert parities == (1, 1, 1)


def test_sector_label_validation():
    model = map_hamiltonian(torus(3, 3))
    with pytest.raises(InvalidSpec):
        sector_chain_specs(model, (1, 1))
    with pytest.raises(InvalidSpec):
        sector_chain_specs(model, (1, 0, 1))


def test_open_sector_flips_edge_signs_and_corner_energy():
    model = map_hamiltonian(open_lat(3, 3, 1.0, 0.9))
    w = (-1, 1, -1, 1, -1)
    specs, parities, free_e = sector_chain_specs(model, w)
    assert parities == (0, 0, 0)
    # free corners sit on diagonals 0 and 4
    assert free_e == pytest.approx(-0.9 * (w[0] + w[4]))
    for a, sp in enumerate(specs):
        signs = [s for _, s in sp.edge_fields]
        assert np.prod(signs) == w[a + 1]


def test_sector_ground_energies_cover_2d_spectrum_head():
    # each sector's lowest level must exist in the 2D spectrum
    hs = torus(3, 3, 0.9, 1.2)
    model = map_hamiltonian(hs)
    levels = full_spectrum(hs).eigenvalues
    for w in [(1, 1, 1), (-1, 1, 1), (-1, -1, 1), (-1, -1, -1)]:
        e0 = assemble_sector_spectrum(model, w)[0]
        assert np.min(np.abs(levels - e0)) < 1e-9, w


@pytest.mark.parametrize(
    "hs",
    [
        torus(3, 3, 1.0, 1.0),
        torus(3, 3, 0.7, 1.3),
        torus(4, 3, 1.0, 1.0),  # gcd 1: a single wrapped chain
        open_lat(3, 3, 1.0, 1.0),
        open_lat(2, 3, 1.3, 0.6),
    ],
)
def test_sector_union_reproduces_full_spectrum(hs):
    report = duality_spectrum_check(hs, tol=1e-9, sector_resolved=True)
    assert report.passed, report
    assert report.n_levels_2d == report.n_levels_dual == 2**hs.n_spins
    assert report.max_deviation < 1e-9
    assert report.ground_energy_2d == pytest.approx(report.ground_energy_dual)
    assert report.gap_2d == pytest.approx(report.gap_dual, abs=1e-9)


def test_plain_comparison_reports_mismatch_on_torus():
    # one dual copy ignores the conserved-loop sectors; beyond the ground
    # level the distinct-value sets genuinely differ (twisted-sector levels
    # are absent from the plain tensor sum, and its odd-parity combinations
    # are not 2D levels), so only the ground energies coincide
    report = duality_spectrum_check(torus(3, 3), sector_resolved=False)
    assert not report.passed
    assert report.notes != ""
    assert report.n_levels_2d != report.n_levels_dual
    assert report.ground_energy_2d == pytest.approx(report.ground_energy_dual)
    assert report.gap_2d == pytest.approx(1.607695154587, abs=1e-9)
    # chain levels alone would put the first excitation at 4 - 2*sqrt(3)
    assert report.gap_dual == pytest.approx(4.0 - 2.0 * math.sqrt(3.0), abs=1e-9)


def test_plain_comparison_reports_mismatch_on_open_lattice():
    report = duality_spectrum_check(open_lat(3, 3), sector_resolved=False)
    assert not report.passed
    assert report.ground_energy_2d == pytest.approx(report.ground_energy_dual)


# ----------------------------------------------------------------------
# scalable torus gap
# ----------------------------------------------------------------------
def test_dual_gap_frozen_values():
    assert dual_lattice_gap(3, 3, 1.0, 1.0) == pytest.approx(
        1.607695154587, abs=1e-11
    )
    assert dual_lattice_gap(4, 4, 1.0, 1.0) == pytest.approx(
        0.795649469519, abs=1e-11
    )
    assert dual_lattice_gap(4, 3, 1.0, 1.0) == pytest.approx(
        0.131086925630, abs=1e-11
    )


@pytest.mark.parametrize(
    "n,m,g,h",
    [
        (3, 3, 1.0, 1.0),
        (3, 3, 1.0, 0.5),
        (3, 3, 0.3, 1.0),
        (3, 4, 0.8, 1.1),
        (4, 3, 1.0, 1.0),
    ],
)
def test_dual_gap_matches_dense_ed(n, m, g, h):
    ed_gap = full_spectrum(torus(n, m, g, h)).gap
    assert dual_lattice_gap(n, m, g, h) == pytest.approx(ed_gap, abs=1e-10)


@pytest.mark.xfail(strict=True, reason="at h = 0 the dual gap reads 2g; ED gives 4g")
@pytest.mark.parametrize("n", [3, 4])
def test_h_zero_dual_gap_matches_ed(n):
    # each ring's plaquette parity is fixed by its loop sector and the
    # parities multiply to +1, so flipped plaquettes come in pairs
    assert dual_lattice_gap(n, n, 1.0, 0.0) == pytest.approx(
        _ed_torus_spectrum(n, 1.0, 0.0).gap, abs=1e-10)


@pytest.mark.parametrize("n,m", [(3, 3), (6, 3), (4, 3), (3, 5), (4, 6), (6, 4),
                                 (3, 6), (4, 8), (8, 4), (5, 5), (6, 6)])
def test_dual_gap_is_the_brute_force_sector_minimum(n, m):
    # every one of the 2^d sectors solved on its own: the cheapest switch
    # out of the all-plus sector, or the cheapest excitation inside it
    for g, h in ((0.5, 1.0), (0.9, 1.0), (1.0, 1.0), (1.3, 1.0), (2.0, 0.7)):
        model = map_hamiltonian(torus(n, m, g, h))
        e0 = {}
        for w in itertools.product((1, -1), repeat=model.n_diagonals):
            specs, parities, _ = sector_chain_specs(model, w)
            e0[w] = sum(ring_sector_levels(sp, p)[0] for sp, p in zip(specs, parities))
        plus = (1,) * model.n_diagonals
        switch = min(e - e0[plus] for w, e in e0.items() if w != plus)
        levels = ring_sector_levels(model.chains[0], 1)
        brute = min(switch, levels[1] - levels[0])
        assert abs(dual_lattice_gap(n, m, g, h) - brute) < 1e-12, (g, h)


def test_dual_gap_matches_lanczos_on_4x4():
    hs = torus(4, 4, 1.0, 1.0)
    res = ground_spectrum(hs, k=5)
    assert dual_lattice_gap(4, 4, 1.0, 1.0) == pytest.approx(res.gap, abs=1e-7)
    # the lowest five with multiplicity: -20.109 is doubly degenerate
    dual = full_dual_spectrum(map_hamiltonian(hs))[:5]
    np.testing.assert_allclose(res.eigenvalues[:5], dual, rtol=0, atol=1e-10)


def test_lanczos_gap_survives_a_split_ground_multiplet():
    # at h = 0.005 the ground multiplet splits by 7.8e-10 < DEGENERACY_TOL:
    # cut to two levels it would fill the list and read as a gap of 0
    hs = torus(4, 4, 1.0, 0.005)
    res = ground_spectrum(hs, 2)
    dual = full_dual_spectrum(map_hamiltonian(hs))
    assert res.gap == pytest.approx(gap_from_levels(dual), abs=1e-9)
    assert res.gap > 3.9
    np.testing.assert_allclose(res.eigenvalues[:2], dual[:2], rtol=0, atol=1e-9)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("entry", [
    lambda g, h: HamiltonianSpec(LatticeSpec(4, 4, Boundary.PERIODIC), g, h),
    lambda g, h: TFIMChainSpec(6, ChainBoundary.PERIODIC_CHAIN, g, h),
    lambda g, h: dual_lattice_gap(4, 4, g, h),
], ids=["HamiltonianSpec", "TFIMChainSpec", "dual_lattice_gap"])
def test_non_finite_couplings_are_rejected(entry, bad):
    for g, h in ((bad, 1.0), (1.0, bad), (bad, 0.0)):
        with pytest.raises(InvalidSpec):
            entry(g, h)


def test_dual_gap_limits_and_validation():
    assert dual_lattice_gap(5, 3, 2.0, 0.0) == pytest.approx(4.0)
    assert dual_lattice_gap(5, 3, 0.0, 1.0) == pytest.approx(2.0)
    with pytest.raises(InvalidSpec):
        dual_lattice_gap(2, 5, 1.0, 1.0)
    with pytest.raises(InvalidSpec):
        dual_lattice_gap(3, 3, 0.0, 0.0)
