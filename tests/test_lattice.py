"""Geometry layer: indexing, plaquettes, anti-diagonal chains, conserved loops."""

import math

import pytest
from hypothesis import assume, example, given, strategies as st

from plaqising import (
    Boundary,
    DegenerateLattice,
    InvalidSpec,
    LatticeSpec,
    SiteOutOfRange,
    chain_decompose,
    enumerate_plaquettes,
    expected_chain_count,
    plaquette_operator,
    site_adjacent_plaquettes,
    site_diagonals,
)
from plaqising import lattice
from plaqising.pauli import PauliString, sigma_x

from oracles import commutes_with, diagonal_loop_operator

sizes = st.integers(min_value=2, max_value=6)
torus_sizes = st.integers(min_value=3, max_value=6)


def test_site_index_round_trip():
    spec = LatticeSpec(3, 5, Boundary.OPEN)
    for r in range(3):
        for c in range(5):
            assert spec.site_rc(spec.site_index(r, c)) == (r, c)


def test_site_index_wraps_only_when_periodic():
    torus = LatticeSpec(3, 4, Boundary.PERIODIC)
    assert torus.site_index(-1, 4) == torus.site_index(2, 0)
    plane = LatticeSpec(3, 4, Boundary.OPEN)
    with pytest.raises(InvalidSpec):
        plane.site_index(3, 0)


def test_too_small_lattice_rejected():
    with pytest.raises(InvalidSpec):
        LatticeSpec(1, 5, Boundary.OPEN)


@given(sizes, sizes)
def test_open_plaquette_count(n, m):
    spec = LatticeSpec(n, m, Boundary.OPEN)
    assert len(enumerate_plaquettes(spec)) == (n - 1) * (m - 1)


@given(torus_sizes, torus_sizes)
def test_periodic_plaquette_count(n, m):
    spec = LatticeSpec(n, m, Boundary.PERIODIC)
    assert len(enumerate_plaquettes(spec)) == n * m


def test_small_torus_is_degenerate():
    with pytest.raises(DegenerateLattice):
        enumerate_plaquettes(LatticeSpec(2, 4, Boundary.PERIODIC))


def test_plaquette_axes_pattern():
    spec = LatticeSpec(3, 3, Boundary.PERIODIC)
    base = enumerate_plaquettes(spec)[0]
    op = plaquette_operator(spec, base)
    assert len(op.factors) == 4 and op.phase == 1
    # corners are base, base+ex, base+ex+ey, base+ey with axes X, Y, X, Y
    r, c = spec.site_rc(base)
    corners = (
        spec.site_index(r, c),
        spec.site_index(r, c + 1),
        spec.site_index(r + 1, c + 1),
        spec.site_index(r + 1, c),
    )
    assert dict(op.factors) == dict(zip(corners, ("X", "Y", "X", "Y")))


@pytest.mark.parametrize("n,m", [(3, 3), (2, 4), (4, 5)])
def test_plaquette_operator_rejects_the_last_row_and_column_of_an_open_lattice(n, m):
    spec = LatticeSpec(n, m, Boundary.OPEN)
    for r, c in [(n - 1, 0), (n - 1, m - 2), (0, m - 1), (n - 2, m - 1), (n - 1, m - 1)]:
        with pytest.raises(SiteOutOfRange):
            plaquette_operator(spec, spec.site_index(r, c))


@given(torus_sizes, torus_sizes)
def test_torus_chain_structure(n, m):
    spec = LatticeSpec(n, m, Boundary.PERIODIC)
    chains = chain_decompose(spec)
    d = math.gcd(n, m)
    assert len(chains) == d == expected_chain_count(spec)["plaquette_chains"]
    assert {len(ch) for ch in chains} == {n * m // d}
    covered = sorted(k for ch in chains for k in ch)
    assert covered == list(range(n * m))


@given(sizes, sizes)
def test_open_chain_structure(n, m):
    spec = LatticeSpec(n, m, Boundary.OPEN)
    chains = chain_decompose(spec)
    assert len(chains) == n + m - 3
    assert sum(len(ch) for ch in chains) == (n - 1) * (m - 1)
    # open chains are maximal: one more step either way leaves the lattice
    for ch in chains:
        (r0, c0), (r1, c1) = spec.site_rc(ch[0]), spec.site_rc(ch[-1])
        assert not spec.plaquette_base_exists(r0 + 1, c0 - 1)
        assert not spec.plaquette_base_exists(r1 - 1, c1 + 1)


@given(sizes, sizes, st.sampled_from(list(Boundary)))
def test_chain_steps_follow_the_antidiagonal(n, m, boundary):
    assume(boundary is Boundary.OPEN or min(n, m) >= 3)
    spec = LatticeSpec(n, m, boundary)
    chains = chain_decompose(spec)
    wrap = boundary is Boundary.PERIODIC
    for ch in chains:
        for a, b in zip(ch, ch[1:] + ch[:1] if wrap else ch[1:]):
            ra, ca = spec.site_rc(a)
            step = ((ra - 1) % n, (ca + 1) % m) if wrap else (ra - 1, ca + 1)
            assert spec.site_rc(b) == step
    assert {b for ch in chains for b in ch} == set(enumerate_plaquettes(spec))


@pytest.mark.parametrize(
    "n,m,boundary",
    [(3, 3, Boundary.PERIODIC), (3, 4, Boundary.PERIODIC),
     (3, 3, Boundary.OPEN), (2, 4, Boundary.OPEN)],
)
def test_transverse_term_anticommutes_exactly_with_adjacent_plaquettes(n, m, boundary):
    spec = LatticeSpec(n, m, boundary)
    plaqs = {b: plaquette_operator(spec, b) for b in enumerate_plaquettes(spec)}
    for site in range(spec.n_sites):
        adj = set(site_adjacent_plaquettes(spec, site))
        sx = sigma_x(site)
        for base, op in plaqs.items():
            if base in adj:
                assert not commutes_with(sx, op)
            else:
                assert commutes_with(sx, op)


@pytest.mark.parametrize(
    "n,m,boundary",
    [(3, 3, Boundary.PERIODIC), (4, 3, Boundary.PERIODIC),
     (3, 4, Boundary.OPEN), (2, 3, Boundary.OPEN)],
)
def test_diagonal_loops_are_conserved(n, m, boundary):
    spec = LatticeSpec(n, m, boundary)
    fams = site_diagonals(spec)
    # families partition the sites
    assert sorted(s for f in fams for s in f) == list(range(spec.n_sites))
    for b in range(len(fams)):
        W = diagonal_loop_operator(spec, b)
        assert W.phase in (1, -1)
        for b in enumerate_plaquettes(spec):
            assert commutes_with(W, plaquette_operator(spec, b))
        for site in range(spec.n_sites):
            assert commutes_with(W, sigma_x(site))


def test_site_diagonal_counts():
    open_spec = LatticeSpec(4, 5, Boundary.OPEN)
    assert len(site_diagonals(open_spec)) == 4 + 5 - 1
    assert expected_chain_count(open_spec) == {
        "plaquette_chains": 6, "site_diagonals": 8,
    }
    torus = LatticeSpec(4, 6, Boundary.PERIODIC)
    assert len(site_diagonals(torus)) == 2


# ----------------------------------------------------------------------
# exact layouts against reference constructions
# ----------------------------------------------------------------------
layout_sizes = st.integers(min_value=3, max_value=9)


def _reference_torus_chains(n, m):
    """Cycle walk: from each unseen base in row-major order, step (r-1, c+1)."""
    seen, chains = set(), []
    for r0 in range(n):
        for c0 in range(m):
            if r0 * m + c0 in seen:
                continue
            chain, r, c = [], r0, c0
            while r * m + c not in seen:
                seen.add(r * m + c)
                chain.append(r * m + c)
                r, c = (r - 1) % n, (c + 1) % m
            chains.append(tuple(chain))
    return tuple(chains)


def _reference_plaquettes(spec):
    out = []
    for r in range(spec.rows):
        for c in range(spec.cols):
            if spec.plaquette_base_exists(r, c):
                corners = (spec.site_index(r, c), spec.site_index(r, c + 1),
                           spec.site_index(r + 1, c + 1), spec.site_index(r + 1, c))
                out.append((corners[0], corners))
    return out


def _corner_axes(spec):
    """(base, corner -> axis map, phase) of every plaquette operator."""
    out = []
    for b in enumerate_plaquettes(spec):
        op = plaquette_operator(spec, b)
        out.append((b, dict(op.factors), op.phase))
    return out


def _reference_corner_axes(spec):
    return [(base, dict(zip(corners, ("X", "Y", "X", "Y"))), 1)
            for base, corners in _reference_plaquettes(spec)]


@given(layout_sizes, layout_sizes)
@example(4, 5)  # gcd 1: one ring
@example(6, 9)  # gcd 3
@example(8, 8)  # gcd 8: every chain has length 8
@example(128, 128)  # the benchmark torus: 128 rings of 128
@example(96, 64)  # gcd 32
def test_torus_chains_equal_the_reference_cycle_walk(n, m):
    chains = chain_decompose(LatticeSpec(n, m, Boundary.PERIODIC))
    assert chains == _reference_torus_chains(n, m)
    firsts = [ch[0] for ch in chains]
    assert firsts == [min(ch) for ch in chains] == sorted(firsts)


@pytest.mark.parametrize("boundary", list(Boundary))
def test_chain_cover_is_checked_against_enumerate_plaquettes(monkeypatch, boundary):
    # the coverage check reads enumerate_plaquettes: one base short fails it
    full = lattice.enumerate_plaquettes
    monkeypatch.setattr(lattice, "enumerate_plaquettes", lambda spec: full(spec)[:-1])
    with pytest.raises(InvalidSpec):
        chain_decompose(LatticeSpec(6, 9, boundary))


@given(layout_sizes, layout_sizes)
def test_torus_plaquettes_equal_the_site_index_reference(n, m):
    spec = LatticeSpec(n, m, Boundary.PERIODIC)
    assert _corner_axes(spec) == _reference_corner_axes(spec)


@given(st.integers(min_value=2, max_value=7), st.integers(min_value=2, max_value=7))
def test_open_plaquettes_equal_the_site_index_reference(n, m):
    spec = LatticeSpec(n, m, Boundary.OPEN)
    assert _corner_axes(spec) == _reference_corner_axes(spec)


@pytest.mark.parametrize(
    "n,m,boundary",
    [(3, 3, Boundary.PERIODIC), (4, 6, Boundary.PERIODIC), (6, 4, Boundary.PERIODIC),
     (3, 5, Boundary.OPEN), (4, 4, Boundary.OPEN)],
)
def test_diagonal_loop_operator_selects_one_site_family(n, m, boundary):
    spec = LatticeSpec(n, m, boundary)
    fams = site_diagonals(spec)
    for which, fam in enumerate(fams):
        assert diagonal_loop_operator(spec, which) == \
            PauliString(tuple((s, "X") for s in fam))
    for bad in (-1, len(fams)):
        with pytest.raises(InvalidSpec):
            diagonal_loop_operator(spec, bad)
