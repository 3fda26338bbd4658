"""Exact diagonalization layer: operator kernels, invariants, spectra.

The algebraic invariants here (hermiticity, commutation, involution) are held
to 1e-10; spectral comparisons against independent constructions to 1e-8.
"""

import tracemalloc
from collections import Counter
from itertools import product

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from plaqising import (
    Boundary,
    DiagonalSegment,
    HamiltonianSpec,
    LatticeSpec,
    PauliString,
    TooLarge,
    enumerate_plaquettes,
    expectation,
    full_spectrum,
    ground_spectrum,
    ground_state_for_measurement,
    hamiltonian_terms,
    plaquette_operator,
    plaquette_string,
    sx_string,
)
from plaqising.ed import (
    _RITZ_EVERY,
    LANCZOS_MAX_SPINS,
    HamiltonianOperator,
    _is_symmetry,
    _lanczos,
    _loop_masks,
    _sector_orbits,
    dense_matrix_from_terms,
    gap_from_levels,
    operator_ground_spectrum,
    parity_block,
    sector_operator,
    symmetry_blocks,
)
from plaqising.errors import (
    DimensionMismatch,
    InvalidSpec,
    NotConverged,
    SiteOutOfRange,
)
from plaqising.freefermion import TFIMChainSpec, chain_terms
from plaqising.lattice import ChainBoundary, site_diagonals
from plaqising.pauli import sigma_x

from oracles import (
    apply_pauli_string,
    commutes_with,
    diagonal_loop_operator,
    ring_sector_levels,
)


def torus33(g=1.0, h=1.0):
    return HamiltonianSpec(LatticeSpec(3, 3, Boundary.PERIODIC), g, h)


def test_term_count_and_coefficients():
    hs = torus33(g=0.7, h=0.3)
    terms = hamiltonian_terms(hs)
    assert len(terms) == 9 + 9
    coeffs = sorted({round(c, 12) for c, _ in terms})
    assert coeffs == [-0.7, -0.3]


def test_negative_couplings_rejected():
    with pytest.raises(InvalidSpec):
        HamiltonianSpec(LatticeSpec(3, 3, Boundary.PERIODIC), -1.0, 1.0)


def test_hamiltonian_matrix_is_real_and_symmetric():
    hs = torus33(0.8, 1.3)
    H = HamiltonianOperator(hs.n_spins, hamiltonian_terms(hs)).dense()
    assert H.dtype == np.float64
    assert np.max(np.abs(H - H.T)) < 1e-10


def test_plaquette_operators_are_real_in_z_basis():
    spec = LatticeSpec(3, 3, Boundary.PERIODIC)
    for b in enumerate_plaquettes(spec):
        _, _, pref = plaquette_operator(spec, b).masks()
        assert abs(pref.imag) < 1e-14


def test_involutions_and_commutation():
    spec = LatticeSpec(3, 3, Boundary.PERIODIC)
    plaqs = [plaquette_operator(spec, b) for b in enumerate_plaquettes(spec)]
    loops = [diagonal_loop_operator(spec, b) for b in range(len(site_diagonals(spec)))]
    for op in plaqs + loops:
        assert op * op == PauliString()
    for i, a in enumerate(plaqs):
        for b in plaqs[i + 1:]:
            assert commutes_with(a, b)
    for W in loops:
        for a in plaqs:
            assert commutes_with(W, a)


def test_conserved_loops_commute_with_dense_hamiltonian():
    hs = torus33(0.6, 1.1)
    spec = hs.lattice
    H = HamiltonianOperator(hs.n_spins, hamiltonian_terms(hs)).dense()
    for b in range(3):
        W = dense_matrix_from_terms(
            hs.n_spins, [(1.0, diagonal_loop_operator(spec, b))]
        )
        assert np.max(np.abs(H @ W - W @ H)) < 1e-10


def _kron_matrix(ps: PauliString, n: int) -> np.ndarray:
    mats = {
        "X": np.array([[0, 1], [1, 0]], dtype=complex),
        "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
        "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    }
    out = np.eye(1, dtype=complex)
    lookup = dict(ps.factors)
    for j in range(n):
        m = mats.get(lookup.get(j), np.eye(2, dtype=complex))
        out = np.kron(m, out)  # site j acts on bit j (fastest-varying)
    return ps.phase * out


@given(st.integers(min_value=0, max_value=10_000))
def test_apply_pauli_string_matches_kron(seed):
    rng = np.random.default_rng(seed)
    n = 5
    ps = PauliString(tuple(
        (int(s), ax) for s, ax in zip(rng.integers(0, n, 3), "XYZ")
    ))
    v = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    np.testing.assert_allclose(
        apply_pauli_string(ps, v), _kron_matrix(ps, n) @ v, atol=1e-12
    )


def test_apply_hamiltonian_matches_dense():
    hs = torus33(1.2, 0.4)
    rng = np.random.default_rng(7)
    v = rng.standard_normal(2**9)
    op = HamiltonianOperator(hs.n_spins, hamiltonian_terms(hs))
    np.testing.assert_allclose(op.matvec(v), op.dense() @ v, atol=1e-10)


# terms that share flip masks (X0 X1 and Y0 Y1; Y0 X1 Y2 and X0 X1 X2)
# with different sign masks, plus diagonal ones that merge into one vector
_SHARED_FLIP_TERMS = [
    (0.7, PauliString(((0, "X"), (1, "X")))),
    (-0.3, PauliString(((0, "Y"), (1, "Y")))),
    (0.9, PauliString(((0, "Y"), (1, "X"), (2, "Y")))),
    (0.6, PauliString(((0, "X"), (1, "X"), (2, "X")))),
    (0.5, PauliString(((1, "X"), (2, "X"), (3, "Z")))),
    (0.2, PauliString(((1, "Y"), (2, "Y")))),
    (-0.4, PauliString(((0, "Z"),))),
    (0.3, PauliString(((1, "Z"), (3, "Z")))),
]


@pytest.mark.parametrize("basis", [None, "even"])
def test_merged_terms_match_the_kron_sum(basis):
    # the matvec of the merged gathers, the dense matrix and the plain sum of
    # Kronecker products agree; on a basis, the block of that sum
    n = 4
    terms, labels = _SHARED_FLIP_TERMS, None
    if basis == "even":  # keep the terms that flip an even number of sites
        labels = np.arange(2**n, dtype=np.uint64)
        labels = labels[np.bitwise_count(labels) % 2 == 0]
        terms = [(c, ps) for c, ps in terms if bin(ps.masks()[0]).count("1") % 2 == 0]
    op = HamiltonianOperator(n, terms, labels)
    flips = {ps.masks()[0] for _, ps in terms} - {0}
    assert len(op._gathers) == len(flips) < len([t for t in terms if t[1].masks()[0]])
    kron = sum(c * _kron_matrix(ps, n) for c, ps in terms)
    rows = np.arange(2**n) if labels is None else labels.astype(np.int64)
    np.testing.assert_allclose(op.dense(), kron[np.ix_(rows, rows)].real,
                               rtol=0, atol=1e-14)
    v = np.random.default_rng(3).standard_normal(op.dim)
    np.testing.assert_allclose(op.matvec(v), op.dense() @ v, rtol=0, atol=1e-13)


def test_whole_space_gathers_index_with_intp():
    # the XOR labels are uint64; a whole-space gather indexes with intp rows
    for n, terms in ((4, _SHARED_FLIP_TERMS), (9, hamiltonian_terms(torus33(1.2, 0.4)))):
        op = HamiltonianOperator(n, terms)
        assert op._gathers
        assert all(perm.dtype == np.intp for perm, _ in op._gathers)


def test_sector_operator_merges_the_field_into_one_diagonal():
    # 4x4 torus in the Hadamard frame: 16 sx terms are diagonal, and each of
    # the 16 plaquettes flips its own pair of sites
    hs = HamiltonianSpec(LatticeSpec(4, 4, Boundary.PERIODIC), 1.0, 1.0)
    op = sector_operator(hs, (1,) * len(site_diagonals(hs.lattice)))
    assert len(op._gathers) == 16
    np.testing.assert_array_equal(op._diag,
                                  -1.0 * (16 - 2.0 * np.bitwise_count(op.basis)))


@pytest.mark.parametrize("n,m", [(4, 4), (3, 4), (3, 3)])
def test_reweighted_operators_equal_fresh_compiles(n, m):
    # one block dict across a sweep's couplings: the labels are found once,
    # each flip's rows and each term's signs once (the plaquettes' at the
    # first g > 0), and every operator's diagonal and gathers equal a fresh
    # compile's bitwise
    lattice = LatticeSpec(n, m, Boundary.PERIODIC)
    sector = (1,) * len(site_diagonals(lattice))
    blocks, first = {}, None
    for g in (0.0, 0.25, 0.5, 0.75, 1.0):
        hs = HamiltonianSpec(lattice, g, 1.0 - g)
        op, fresh = sector_operator(hs, sector, blocks), sector_operator(hs, sector)
        (labels, rows, signs), = blocks.values()
        assert op.basis is labels and op._rows is rows and op._signs is signs
        if g:  # the same row arrays at every point: each flip's rows are found once
            first = first or [perm for perm, _ in op._gathers]
            assert all(perm is row for (perm, _), row in zip(op._gathers, first))
        assert op._diag.tobytes() == fresh._diag.tobytes()
        assert len(op._gathers) == len(fresh._gathers) == (n * m if g else 0)
        for (perm, wp), (fperm, fwp) in zip(op._gathers, fresh._gathers):
            assert perm.tobytes() == fperm.tobytes() and wp.tobytes() == fwp.tobytes()
    assert len(rows) == n * m
    # one pattern per rotated term (n * m plaquettes, n * m fields), a byte a label
    assert len(signs) == 2 * n * m
    assert all(s.dtype == np.int8 and s.shape == labels.shape for s in signs.values())


def test_parity_blocks_are_kept_apart_by_their_labels():
    # a dict of blocks answers each (n, masks, signs) with its own labels
    hs = torus33(0.6, 0.4)
    blocks = {}
    for w in ((1, 1, 1), (1, -1, 1), (1, 1, 1)):
        op = sector_operator(hs, w, blocks)
        assert op.dense().tobytes() == sector_operator(hs, w).dense().tobytes()
    assert len(blocks) == 2


@pytest.mark.parametrize("labels,rule", [
    ([0, 0, 3, 3], "strictly increasing"),   # duplicates
    ([3, 0], "strictly increasing"),         # closed, but unsorted
    ([0, 3, 8, 11], "not below 2\\^2"),      # labels past the 2 spins
], ids=["duplicate", "unsorted", "too-large"])
def test_basis_is_checked_before_it_compiles(labels, rule):
    # every basis here is closed under the one term, which pairs 0 <-> 3
    # and 8 <-> 11; the rule that broke is named
    with pytest.raises(InvalidSpec, match=rule):
        HamiltonianOperator(2, [(1.0, sigma_x(0) * sigma_x(1))],
                            np.array(labels, dtype=np.uint64))


@pytest.mark.parametrize("basis,kind", [
    (np.array([0, 3]), "int64"),   # a negative int64 label would wrap if cast
    ([0, 3], "list"),
], ids=["int64", "list"])
def test_basis_must_be_a_uint64_array(basis, kind):
    # the labels are closed under the term and ascending: only the type is wrong
    with pytest.raises(InvalidSpec, match=f"uint64 array, got {kind}"):
        HamiltonianOperator(2, [(1.0, sigma_x(0) * sigma_x(1))], basis)


def test_field_only_spectrum_is_analytic():
    # g = 0: H = -h sum sx, levels -h(n - 2k) with binomial multiplicity
    from math import comb

    hs = torus33(g=0.0, h=0.5)
    res = full_spectrum(hs)
    expect = np.sort([-0.5 * (9 - 2 * k) for k in range(10) for _ in range(comb(9, k))])
    np.testing.assert_allclose(res.eigenvalues, expect, atol=1e-10)


def test_plaquette_only_spectrum_on_open_lattice():
    # h = 0 on an open 3x3: the four plaquette operators are independent,
    # so levels are -g * (sum of four signs), each 2^5-fold degenerate
    hs = HamiltonianSpec(LatticeSpec(3, 3, Boundary.OPEN), 1.0, 0.0)
    res = full_spectrum(hs)
    from collections import Counter
    counts = Counter(np.round(res.eigenvalues, 9))
    assert counts == Counter({
        -4.0: 32, -2.0: 4 * 32, 0.0: 6 * 32, 2.0: 4 * 32, 4.0: 32,
    })


def _full_space_levels(hs):
    """Every level from one dense solve of the whole 2^n space."""
    H = HamiltonianOperator(hs.n_spins, hamiltonian_terms(hs)).dense()
    return scipy.linalg.eigvalsh(H)


@pytest.mark.parametrize("hs", [
    *(HamiltonianSpec(LatticeSpec(3, 3, b), g, h)
      for b in (Boundary.PERIODIC, Boundary.OPEN)
      for g, h in ((0.5, 1.0), (1.0, 1.0), (2.0, 1.0), (0.0, 1.0), (1.0, 0.0))),
    HamiltonianSpec(LatticeSpec(4, 3, Boundary.PERIODIC), 1.0, 1.0),
    HamiltonianSpec(LatticeSpec(3, 4, Boundary.OPEN), 1.0, 1.0),
], ids=lambda hs: f"{hs.lattice.boundary.name}{hs.lattice.rows}x{hs.lattice.cols}"
                  f"-g{hs.g}-h{hs.h}")
def test_full_spectrum_is_the_full_space_spectrum(hs):
    np.testing.assert_allclose(full_spectrum(hs).eigenvalues, _full_space_levels(hs),
                               rtol=0, atol=1e-12)


def test_ground_spectrum_matches_dense_head():
    # 12 levels from 8 blocks: some block must supply more than one
    hs = torus33(0.9, 1.0)
    levels = _full_space_levels(hs)
    res = ground_spectrum(hs, k=12)
    assert res.eigenvalues.size == 8 * 12  # the union is not cut to k
    np.testing.assert_allclose(res.eigenvalues[:12], levels[:12], rtol=0, atol=1e-9)
    assert abs(res.gap - gap_from_levels(levels)) < 1e-8


def test_every_ground_block_is_solved_by_lanczos():
    # one solver whatever the block's size: every 64-state sector of the 3x3
    # torus and of the open 3x4 lattice against a dense solve of the same
    # block; a degenerate level may come back once or more (see _lanczos),
    # but each returned value is a level of the block
    open34 = HamiltonianSpec(LatticeSpec(3, 4, Boundary.OPEN), 0.9, 1.1)
    for hs in (torus33(0.8, 1.2), open34):
        for w in product((1, -1), repeat=len(_loop_masks(hs.lattice))):
            op = sector_operator(hs, w)
            res = operator_ground_spectrum(op, 2)
            dense = scipy.linalg.eigvalsh(op.dense())
            assert (op.dim, res.info["method"]) == (64, "lanczos")
            assert abs(res.eigenvalues[0] - dense[0]) <= 1e-12, w
            for v in res.eigenvalues:
                assert np.min(np.abs(dense - v)) <= 1e-12, w


def test_lanczos_branch_agrees_with_dense():
    # 4x3 torus = 12 spins: dense is still exact, and forcing the iterative
    # path through the raw operator must reproduce it
    hs = HamiltonianSpec(LatticeSpec(4, 3, Boundary.PERIODIC), 1.0, 1.0)
    dense_levels = full_spectrum(hs).eigenvalues
    op = HamiltonianOperator(hs.n_spins, hamiltonian_terms(hs))
    vals, _, info = _lanczos(op, k=4, want_vectors=False)
    assert info["method"] == "lanczos"
    np.testing.assert_allclose(vals[0], dense_levels[0], atol=1e-9)


def _sector_block_4x3():
    hs = HamiltonianSpec(LatticeSpec(4, 3, Boundary.PERIODIC), 1.0, 1.0)
    return sector_operator(hs, (1,) * len(site_diagonals(hs.lattice)))


def test_lanczos_block_levels_match_dense_block():
    # one 2048-state loop sector: Lanczos and a dense eigh of the same block
    op = _sector_block_4x3()
    dense = scipy.linalg.eigvalsh(op.dense())
    distinct = dense[np.concatenate(([True], np.diff(dense) > 1e-8))]
    vals, _, _ = _lanczos(op, k=2, want_vectors=False)
    np.testing.assert_allclose(vals, distinct[:2], rtol=0, atol=1e-12)


def test_lanczos_ritz_check_is_never_stale():
    # k = 2 checks at m = 2, 2 + c, ...; max_iter one step past a check
    # must still be checked at max_iter (k = 2, c = 4: 7 after 6)
    op = _sector_block_4x3()
    last = 2 + _RITZ_EVERY + 1
    with pytest.raises(NotConverged) as before:
        _lanczos(op, k=2, want_vectors=False, max_iter=last - 1)
    with pytest.raises(NotConverged) as after:
        _lanczos(op, k=2, want_vectors=False, max_iter=last)
    assert after.value.diagnostics["iterations"] == last
    # Cauchy interlacing: one more Lanczos step lowers every Ritz value
    assert np.all(np.array(after.value.diagnostics["ritz_values"])
                  < np.array(before.value.diagnostics["ritz_values"]))


def _all_plus_sector(size, g, h):
    hs = HamiltonianSpec(LatticeSpec(size, size, Boundary.PERIODIC), g, h)
    return sector_operator(hs, (1,) * len(site_diagonals(hs.lattice)))


def test_lanczos_injects_when_the_krylov_space_closes():
    # g = 0 is diagonal in the Hadamard frame: the seed spans few levels, so
    # the Krylov space closes before k pairs exist and fresh directions are
    # injected; every returned value is still a level of the block
    op = _all_plus_sector(3, 0.0, 1.0)
    vals, _, info = _lanczos(op, k=6, want_vectors=False)
    assert (info["iterations"], info["injections"]) == (6, 2)
    dense = scipy.linalg.eigvalsh(op.dense())
    assert len(vals) == 6
    for v in vals:
        assert np.min(np.abs(dense - v)) < 1e-12
    _, _, info = _lanczos(_all_plus_sector(4, 0.0, 1.0), k=12, want_vectors=False)
    assert (info["iterations"], info["injections"]) == (12, 3)


def test_lanczos_with_k_above_the_block_returns_every_level():
    op = _all_plus_sector(3, 1.0, 1.0)
    assert op.dim == 64
    vals, _, _ = _lanczos(op, k=70, want_vectors=False)
    np.testing.assert_allclose(vals, scipy.linalg.eigvalsh(op.dense()),
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("rows", [1, 5, 40])
def test_lanczos_krylov_growth_changes_no_bit(monkeypatch, rows):
    # 3x4, k = 4 takes 84 iterations in one allocation of the basis; one
    # that starts at 1, 5 or 40 rows and doubles gives the same bits
    import plaqising.ed as ed

    hs = HamiltonianSpec(LatticeSpec(3, 4, Boundary.PERIODIC), 0.9, 1.0)
    op = sector_operator(hs, (1,))
    vals, vecs, info = _lanczos(op, k=4, want_vectors=True)
    assert info["iterations"] == 84
    monkeypatch.setattr(ed, "_HUGEPAGE_BYTES", rows * 8 * op.dim + 1)
    other, other_vecs, other_info = _lanczos(op, k=4, want_vectors=True)
    assert other_info == info
    assert other.tobytes() == vals.tobytes() and other_vecs.tobytes() == vecs.tobytes()


def test_krylov_basis_of_a_sweep_point_stays_under_the_huge_page_advice(monkeypatch):
    # numpy advises huge pages for arrays from 4 MiB up; a 4x4 point's basis
    # stays below, so only the rows it touches are resident
    sizes = []
    empty = np.empty

    def recording(*args, **kwargs):
        out = empty(*args, **kwargs)
        sizes.append(out.nbytes)
        return out

    monkeypatch.setattr(np, "empty", recording)
    ground_state_for_measurement(HamiltonianSpec(LatticeSpec(4, 4, Boundary.PERIODIC),
                                                 0.5, 0.5))
    assert 0 < max(sizes) < 1 << 22


def _pieces_hold_the_block(pieces, n, terms, masks=(), signs=()):
    whole = scipy.linalg.eigvalsh(dense_matrix_from_terms(n, terms, masks, signs))
    split = np.sort(np.concatenate([np.tile(scipy.linalg.eigvalsh(H), k)
                                    for H, k in pieces]))
    np.testing.assert_allclose(split, whole, rtol=0, atol=1e-12)


def _sizes(pieces):
    return [(H.shape[0], k) for H, k in pieces]


def _diagonal_step(rows, cols):
    """The torus step (r, c) -> (r - 1, c + 1), which keeps every loop."""
    return [(s // cols - 1) % rows * cols + (s + 1) % cols for s in range(rows * cols)], 0


def _translation(n, twisted=False):
    """j -> j + 1 on a ring, times sx on site 0 where its closing bond is twisted."""
    return [(j + 1) % n for j in range(n)], int(twisted)


def _reversal(n):
    return [n - 1 - j for j in range(n)], 0


def _gauged_half_shift(n):
    """j -> j + n/2 on a twisted ring, times sx on its upper half: the square
    is the spin flip."""
    return [(j + n // 2) % n for j in range(n)], (1 << n) - (1 << n // 2)


# momentum blocks of a 2048-state block under an order-12 step: theta = 0
# and pi once, the five pairs theta, 2 pi - theta twice; at g^12 = -1 the six
# pairs of half-odd momenta
_EVEN_MOMENTA = [(180, 1), (165, 2), (174, 2), (166, 2), (176, 2), (165, 2), (176, 1)]
_ODD_SECTOR = [(172, 1), (170, 2), (170, 2), (172, 2), (170, 2), (170, 2), (172, 1)]
_HALF_ODD = [(170, 2), (172, 2), (170, 2), (170, 2), (172, 2), (170, 2)]


def test_mirror_blocks_split_the_4x3_loop_sectors():
    # one loop on 4x3: the diagonal step has order 12 and keeps it, so each
    # 2048-state sector splits into 12 momenta, solved as 7 blocks
    hs = HamiltonianSpec(LatticeSpec(4, 3, Boundary.PERIODIC), 0.9, 1.1)
    terms, masks = hamiltonian_terms(hs), [2**12 - 1]
    sizes = []
    for w in ((1,), (-1,)):
        pieces = symmetry_blocks(12, terms, masks, w, _diagonal_step(4, 3))
        sizes.append(_sizes(pieces))
        _pieces_hold_the_block(pieces, 12, terms, masks, w)
    assert sizes == [_EVEN_MOMENTA, _ODD_SECTOR]


def test_full_spectrum_splits_the_4x3_loop_sectors_by_its_diagonal_step():
    # full_spectrum builds its own torus step from LatticeSpec.site_index; a
    # step that is no symmetry would leave both sectors whole, with the same
    # levels, so the block sizes pin it
    res = full_spectrum(HamiltonianSpec(LatticeSpec(4, 3, Boundary.PERIODIC), 0.9, 1.1))
    assert [b["sizes"] for b in res.info["blocks"]] == [
        [size for size, k in pieces for _ in range(k)]
        for pieces in (_EVEN_MOMENTA, _ODD_SECTOR)]


def test_mirror_blocks_keep_a_block_whole_without_the_symmetry():
    # 3x3 torus: reversal sends loop b to (1 - b) mod 3, so w0 != w1 breaks it
    hs = torus33(0.8, 1.2)
    terms, masks = hamiltonian_terms(hs), _loop_masks(hs.lattice)
    ((whole, k),) = symmetry_blocks(9, terms, masks, (1, -1, 1), _reversal(9))
    assert k == 1
    np.testing.assert_array_equal(whole, dense_matrix_from_terms(9, terms, masks,
                                                                 (1, -1, 1)))
    # on the whole 512-state space reversal is a symmetry: two mirror halves
    halves = symmetry_blocks(9, terms, (), (), _reversal(9))
    assert _sizes(halves) == [(272, 1), (240, 1)]
    _pieces_hold_the_block(halves, 9, terms)
    # an open chain whose sector flipped one end field
    flipped = TFIMChainSpec(8, ChainBoundary.OPEN_CHAIN, 0.9, 1.0, end_sign=-1)
    assert _sizes(symmetry_blocks(8, chain_terms(flipped), (), (), _reversal(8))) == [(256, 1)]
    mirrored = TFIMChainSpec(8, ChainBoundary.OPEN_CHAIN, 0.9, 1.0, end_sign=1)
    halves = symmetry_blocks(8, chain_terms(mirrored), (), (), _reversal(8))
    assert _sizes(halves) == [(136, 1), (120, 1)]
    _pieces_hold_the_block(halves, 8, chain_terms(mirrored))


@pytest.mark.parametrize("twist, sizes", [
    (1, [_EVEN_MOMENTA, _ODD_SECTOR]),
    # the translation times sx on site 0 carries the twisted bond along; its
    # 12th power is the spin flip, so the parity -1 block takes the half-odd
    # momenta
    (-1, [_ODD_SECTOR, _HALF_ODD]),
], ids=["untwisted", "twisted"])
def test_symmetry_blocks_split_the_12_site_ring(twist, sizes):
    ring = TFIMChainSpec(12, ChainBoundary.PERIODIC_CHAIN, 0.9, 1.0, twist=twist)
    terms, masks = chain_terms(ring), (2**12 - 1,)
    split = []
    for parity in (1, -1):
        pieces = symmetry_blocks(12, terms, masks, (parity,), _translation(12, twist == -1))
        split.append(_sizes(pieces))
        _pieces_hold_the_block(pieces, 12, terms, masks, (parity,))
    assert split == sizes


def test_symmetry_blocks_split_the_3x4_loop_sectors():
    # on 3x4 the diagonal step has order lcm(3, 4) = 12, as on 4x3
    hs = HamiltonianSpec(LatticeSpec(3, 4, Boundary.PERIODIC), 0.9, 1.1)
    terms, masks = hamiltonian_terms(hs), _loop_masks(hs.lattice)
    sizes = []
    for w in ((1,), (-1,)):
        pieces = symmetry_blocks(12, terms, masks, w, _diagonal_step(3, 4))
        sizes.append(_sizes(pieces))
        _pieces_hold_the_block(pieces, 12, terms, masks, w)
    assert sizes == [_EVEN_MOMENTA, _ODD_SECTOR]


def _symmetry_blocks_oracle(n, terms, masks, signs, generator):
    """The block densified, then per momentum theta of the cyclic group of
    the signed ``generator``: B[b, a] = sqrt(p_a p_b) / N sum_k e^(-i theta
    k) s_k(a) H[b, g^k a], summed as whole ``np.ix_`` gathers of the dense
    block.  ``(perm, gauge)`` moves the sites, then applies ``prod tx`` over
    the sites of ``gauge``: in the Hadamard frame the sign ``(-1)^popcount(b
    & gauge)`` of the moved label ``b``.  A representative is kept where its
    momentum state sum_k e^(-i theta k) g^k |a> is not zero, and theta runs
    over [0, pi], each theta in between standing for 2 pi - theta too."""
    H = dense_matrix_from_terms(n, terms, masks, signs)
    labels = np.array([b for b in range(2**n) if all(
        bin(b & m).count("1") % 2 == (s == -1) for m, s in zip(masks, signs))])
    perm, gauge = generator
    assert masks or not gauge                 # a gauge is diagonal in this frame only
    orbit, sign = [np.arange(len(labels))], [np.ones(len(labels))]
    moved = labels
    while len(orbit) == 1 or np.any(orbit[-1] != orbit[0]):
        moved = sum(((moved >> j) & 1) << k for j, k in enumerate(perm))
        sign.append(sign[-1] * np.array([(-1) ** bin(b & gauge).count("1") for b in moved]))
        orbit.append(np.searchsorted(labels, moved))
    N, sigma = len(orbit) - 1, sign[-1][0]
    assert np.all(sign[-1] == sigma)
    reps = np.array([i for i in range(len(labels)) if min(o[i] for o in orbit) == i])
    period = np.array([next(k for k in range(1, N + 1) if orbit[k][a] == a) for a in reps])
    blocks = []
    for theta in np.pi * np.arange(0 if sigma > 0 else 1, N + 1, 2) / N:
        norm = np.abs(sum(np.exp(-1j * theta * k) * sign[k][reps] * (orbit[k][reps] == reps)
                          for k in range(N)))
        kept = norm > 0.5
        if not kept.any():
            continue
        rows, p = reps[kept], period[kept]
        B = sum(np.exp(-1j * theta * k) * H[np.ix_(rows, orbit[k][rows])] * sign[k][rows]
                for k in range(N))
        twofold = not (np.isclose(theta, 0) or np.isclose(theta, np.pi))
        blocks.append((B * np.sqrt(np.outer(p, p)) / N, 2 if twofold else 1))
    return blocks


def _torus_sector(rows, cols, w):
    hs = HamiltonianSpec(LatticeSpec(rows, cols, Boundary.PERIODIC), 0.9, 1.1)
    return (hs.n_spins, hamiltonian_terms(hs), _loop_masks(hs.lattice), w,
            _diagonal_step(rows, cols))


def _ring_parity_block(twist, parity, n=12, field=0.9, bond=1.0):
    ring = TFIMChainSpec(n, ChainBoundary.PERIODIC_CHAIN, field, bond, twist=twist)
    return n, chain_terms(ring), (2**n - 1,), (parity,), _translation(n, twist == -1)


_SYMMETRY_CASES = {
    "4x3+": _torus_sector(4, 3, (1,)),
    "4x3-": _torus_sector(4, 3, (-1,)),
    # the whole 512-state space of the 3x3 torus, in the z basis
    "3x3": (9, hamiltonian_terms(torus33(0.9, 1.1)), (), (), _diagonal_step(3, 3)),
    "3x4+": _torus_sector(3, 4, (1,)),
    "3x4-": _torus_sector(3, 4, (-1,)),
    "ring+": _ring_parity_block(1, 1),
    "ring-": _ring_parity_block(1, -1),
    "twisted+": _ring_parity_block(-1, 1),
    "twisted-": _ring_parity_block(-1, -1),
    "open": (10, chain_terms(TFIMChainSpec(
        10, ChainBoundary.OPEN_CHAIN, 0.9, 1.0, end_sign=1)),
        (), (), _reversal(10)),
}


@pytest.mark.parametrize("case", list(_SYMMETRY_CASES))
def test_symmetry_blocks_match_the_dense_gather_sums(case):
    blocks = symmetry_blocks(*_SYMMETRY_CASES[case])
    oracle = _symmetry_blocks_oracle(*_SYMMETRY_CASES[case])
    assert _sizes(blocks) == _sizes(oracle)
    for (B, _), (ref, _) in zip(blocks, oracle):
        np.testing.assert_allclose(B, ref, rtol=0, atol=1e-13)
        np.testing.assert_allclose(B, B.conj().T, rtol=0, atol=1e-13)


@pytest.mark.parametrize("case", ["4x3+", "3x4+", "ring+", "twisted+", "twisted-"])
def test_symmetry_blocks_never_build_the_whole_block(case):
    # the 2048-state block would take 2048^2 * 8 bytes dense
    tracemalloc.start()
    try:
        symmetry_blocks(*_SYMMETRY_CASES[case])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2048**2 * 8


@settings(max_examples=20)
@given(st.integers(9, 11), st.floats(0.1, 2.0), st.floats(0.1, 2.0),
       st.sampled_from([1, -1]), st.sampled_from([1, -1]))
def test_momentum_blocks_hold_every_ring_block(n, field, bond, twist, parity):
    n, terms, masks, signs, step = _ring_parity_block(twist, parity, n, field, bond)
    _pieces_hold_the_block(symmetry_blocks(n, terms, masks, signs, step),
                           n, terms, masks, signs)


@pytest.mark.parametrize("parity", [1, -1])
def test_symmetry_blocks_follow_the_sign_of_the_nth_power(parity):
    # on the twisted ring the 12th power of the gauged translation is the
    # spin flip, i.e. the block's parity: +1 gives the momenta 2 pi m / 12,
    # -1 the half-odd ones pi (2m + 1) / 12, which pair up without a real
    # block; the levels are the fermions'
    n, terms, masks, signs, step = _ring_parity_block(-1, parity)
    pieces = symmetry_blocks(n, terms, masks, signs, step)
    assert [k for _, k in pieces] == ([1, 2, 2, 2, 2, 2, 1] if parity == 1 else [2] * 6)
    assert all(np.iscomplexobj(H) == (k == 2) for H, k in pieces)
    ring = TFIMChainSpec(n, ChainBoundary.PERIODIC_CHAIN, 0.9, 1.0, twist=-1)
    levels = np.sort(np.concatenate([np.tile(np.linalg.eigvalsh(H), k) for H, k in pieces]))
    np.testing.assert_allclose(levels, ring_sector_levels(ring, parity), rtol=0, atol=1e-12)


def test_symmetry_blocks_split_the_gauged_half_shift_at_odd_parity():
    # the gauged half-shift is a symmetry of the twisted ring's terms and
    # squares to the spin flip, -1 in this block: its momenta pi / 2 and
    # 3 pi / 2 are one complex pair holding the fermions' levels
    n, terms, masks, signs, _ = _ring_parity_block(-1, -1)
    perm, gauge = _gauged_half_shift(n)
    assert _is_symmetry(perm, terms, masks, signs, gauge)
    ((H, k),) = symmetry_blocks(n, terms, masks, signs, (perm, gauge))
    assert (H.shape[0], k, np.iscomplexobj(H)) == (1024, 2, True)
    ring = TFIMChainSpec(n, ChainBoundary.PERIODIC_CHAIN, 0.9, 1.0, twist=-1)
    np.testing.assert_allclose(np.sort(np.tile(np.linalg.eigvalsh(H), k)),
                               ring_sector_levels(ring, -1), rtol=0, atol=1e-12)


@pytest.mark.parametrize("parity, sizes", [(1, [(1024, 1), (1024, 1)]), (-1, [(1024, 2)])])
def test_symmetry_blocks_check_the_square_of_a_lone_gauged_half_shift(parity, sizes):
    # fields of period 3 on a twisted 12-site ring break reversal and the
    # translation but keep the gauged half-shift, which alone splits the
    # block by the sign of its square: theta = 0 and pi at +1, the pair
    # pi / 2, 3 pi / 2 at -1
    n = 12
    terms = [(-(1.0 + j % 3), sigma_x(j)) for j in range(n)]
    terms += [(-1.0 if j < n - 1 else 1.0, PauliString(((j, "Z"), ((j + 1) % n, "Z"))))
              for j in range(n)]
    masks, signs = ((1 << n) - 1,), (parity,)
    assert not _is_symmetry(_reversal(n)[0], terms, masks, signs)
    assert not _is_symmetry(_translation(n)[0], terms, masks, signs, 1)
    pieces = symmetry_blocks(n, terms, masks, signs, _gauged_half_shift(n))
    oracle = _symmetry_blocks_oracle(n, terms, masks, signs, _gauged_half_shift(n))
    assert _sizes(pieces) == _sizes(oracle) == sizes
    for (B, _), (ref, _) in zip(pieces, oracle):
        np.testing.assert_allclose(B, ref, rtol=0, atol=1e-13)
    _pieces_hold_the_block(pieces, n, terms, masks, signs)


def test_symmetry_blocks_keep_small_and_asymmetric_blocks_whole():
    # a 64-state 3x3 sector goes whole, with its generator a symmetry
    hs = torus33(0.8, 1.2)
    terms, masks = hamiltonian_terms(hs), _loop_masks(hs.lattice)
    assert _is_symmetry(_diagonal_step(3, 3)[0], terms, masks, (1, 1, 1))
    ((H, k),) = symmetry_blocks(9, terms, masks, (1, 1, 1), _diagonal_step(3, 3))
    assert k == 1
    np.testing.assert_array_equal(H, dense_matrix_from_terms(9, terms, masks, (1, 1, 1)))
    # the ungauged translation of a twisted ring is no symmetry
    n, terms, masks, signs, _ = _ring_parity_block(-1, 1, n=10)
    ((H, k),) = symmetry_blocks(n, terms, masks, signs, _translation(n))
    assert k == 1
    np.testing.assert_array_equal(H, dense_matrix_from_terms(n, terms, masks, signs))
    # with the odd sites' parity fixed, (sx_0 T^2)^5 on 10 sites is the even
    # sites' parity, which is no one sign on the 512 rows
    terms = [(-1.0 - j % 2, sigma_x(j)) for j in range(10)]
    odd = (sum(1 << j for j in range(1, 10, 2)),)
    ((H, k),) = symmetry_blocks(10, terms, odd, (1,), ([(j + 2) % 10 for j in range(10)], 1))
    assert k == 1
    np.testing.assert_array_equal(H, dense_matrix_from_terms(10, terms, odd, (1,)))


def _translated_blocks(n, terms, masks, signs):
    return symmetry_blocks(n, terms, masks, signs, _translation(n))


@pytest.mark.parametrize("build", [dense_matrix_from_terms, _translated_blocks],
                         ids=["dense_matrix_from_terms", "symmetry_blocks"])
@pytest.mark.parametrize("masks, signs", [((), (-1,)), ((3,), ()), ((3,), (1, 1))],
                         ids=["signs-without-masks", "masks-without-signs", "extra-sign"])
def test_unpaired_block_labels_are_rejected_before_allocating(build, masks, signs):
    # an empty masks once sent the signs' block to the whole z-basis space;
    # its 2^14 labels alone would take 2^14 * 8 bytes; symmetry_blocks gets
    # the ring translation, a symmetry of every block here
    terms = chain_terms(TFIMChainSpec(14, ChainBoundary.PERIODIC_CHAIN, 0.9, 1.0))
    tracemalloc.start()
    try:
        with pytest.raises(InvalidSpec):
            build(14, terms, masks, signs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (1 << 14) * 8


def _term_image_orbits(hs):
    """The orbits by the term-image rule: where the column translation maps
    the terms and loop masks onto themselves, sector ``w`` goes to the
    sector whose masks it moves onto; elsewhere each sector stands alone."""
    masks, m, n = _loop_masks(hs.lattice), hs.lattice.cols, hs.n_spins
    shift = [s - s % m + (s + 1) % m for s in range(n)]
    moved = [sum(1 << shift[j] for j in range(n) if mask >> j & 1) for mask in masks]
    symmetric = _is_symmetry(shift, hamiltonian_terms(hs), masks, [1] * len(masks))
    rep = {}
    for w in product((1, -1), repeat=len(masks)):
        v = w
        while v not in rep:
            rep[v] = w
            v = tuple(v[moved.index(mask)] for mask in masks) if symmetric else w
    return list(Counter(rep.values()).items())


def test_sector_orbits_follow_the_column_translation():
    # 4x4: the 16 sectors are the binary necklaces of length 4
    orbits = _sector_orbits(HamiltonianSpec(LatticeSpec(4, 4, Boundary.PERIODIC), 1, 1))
    assert orbits == [((1, 1, 1, 1), 1), ((1, 1, 1, -1), 4), ((1, 1, -1, -1), 4),
                      ((1, -1, 1, -1), 2), ((1, -1, -1, -1), 4), ((-1, -1, -1, -1), 1)]
    assert [m for _, m in _sector_orbits(torus33())] == [1, 3, 3, 1]
    # an open lattice has no translation: every sector stands alone
    open34 = HamiltonianSpec(LatticeSpec(3, 4, Boundary.OPEN), 1.0, 1.0)
    orbits = _sector_orbits(open34)
    assert [w for w, _ in orbits] == list(product((1, -1), repeat=6))
    assert {m for _, m in orbits} == {1}
    # the label rotations against the term images: d = gcd(N, M) = 4, 3, 2, 3
    # on the tori (4x6 at h = 0), and an open lattice at g = 0, whose field
    # terms alone the wrapped column shift would keep
    for rows, cols, boundary, g, h in ((4, 4, Boundary.PERIODIC, 1.0, 1.0),
                                       (3, 3, Boundary.PERIODIC, 0.8, 1.2),
                                       (4, 6, Boundary.PERIODIC, 1.0, 0.0),
                                       (6, 9, Boundary.PERIODIC, 0.7, 1.3),
                                       (3, 4, Boundary.OPEN, 0.0, 1.0)):
        hs = HamiltonianSpec(LatticeSpec(rows, cols, boundary), g, h)
        assert _sector_orbits(hs) == _term_image_orbits(hs), (rows, cols)
    assert [m for _, m in _sector_orbits(
        HamiltonianSpec(LatticeSpec(4, 6, Boundary.PERIODIC), 1, 1))] == [1, 2, 1]
    assert [m for _, m in _sector_orbits(
        HamiltonianSpec(LatticeSpec(6, 9, Boundary.PERIODIC), 1, 1))] == [1, 3, 3, 1]


def _sector_union(hs, levels):
    """Brute force: every loop sector solved on its own."""
    return np.sort(np.concatenate([levels(sector_operator(hs, w))
                                   for w in product((1, -1), repeat=len(_loop_masks(hs.lattice)))]))


@pytest.mark.parametrize("g, h", [(1.02, 1.02), (1.0, 0.3), (0.3, 1.0)])
def test_ground_spectrum_is_the_16_sector_union(g, h):
    hs = HamiltonianSpec(LatticeSpec(4, 4, Boundary.PERIODIC), g, h)
    res = ground_spectrum(hs, 2)
    assert (len(res.info["blocks"]), res.info["sectors"]) == (6, 16)
    brute = _sector_union(hs, lambda op: operator_ground_spectrum(op, 2).eigenvalues)
    np.testing.assert_allclose(res.eigenvalues, brute, rtol=0, atol=1e-12)


def test_full_spectrum_is_the_per_sector_dense_union():
    hs = torus33(0.8, 1.2)
    res = full_spectrum(hs)
    assert (len(res.info["blocks"]), res.info["sectors"]) == (4, 8)
    # one entry per orbit (1, 3, 3 and 1 sectors); each 64-state sector is
    # solved whole
    assert [b["sizes"] for b in res.info["blocks"]] == [[64], [64], [64], [64]]
    brute = _sector_union(hs, lambda op: scipy.linalg.eigvalsh(op.dense()))
    np.testing.assert_allclose(res.eigenvalues, brute, rtol=0, atol=1e-12)


def test_lanczos_levels_are_levels_but_not_distinct(monkeypatch):
    # every 4x4 orbit block at g = h = 0.93 and 1.1: a Lanczos run may
    # return a degenerate level more than once (the lowest level of sector
    # (1, 1, -1, -1) is fourfold), and which level a block's second Ritz
    # value lands on is left to rounding, so each returned value must be a
    # level of its block, not a distinct one; the lowest and the gap are
    # exact.  The dense levels are the lowest of each momentum block under
    # the diagonal step, never the 4096-state block whole, solved once at
    # g = h = 1: H(s, s) = s H(1, 1).
    import plaqising.ed as ed

    monkeypatch.setattr(ed, "DENSE_MAX_SPINS", 16)
    spec = LatticeSpec(4, 4, Boundary.PERIODIC)
    unit = HamiltonianSpec(spec, 1.0, 1.0)
    terms, masks = hamiltonian_terms(unit), _loop_masks(spec)
    dense = {}
    for w, _ in _sector_orbits(unit):
        pieces = symmetry_blocks(unit.n_spins, terms, masks, w, _diagonal_step(4, 4))
        assert sum(len(H) * k for H, k in pieces) == 4096
        dense[w] = np.sort(np.concatenate([
            np.tile(scipy.linalg.eigh(H, subset_by_index=[0, 7], eigvals_only=True), k)
            for H, k in pieces]))
    assert np.all(np.abs(dense[1, 1, -1, -1][:4] - dense[1, 1, -1, -1][0]) < 1e-9)
    for s in (0.93, 1.1):
        hs, union = HamiltonianSpec(spec, s, s), []
        for w, mult in _sector_orbits(hs):
            levels = s * dense[w]
            vals = operator_ground_spectrum(sector_operator(hs, w), 2).eigenvalues
            assert abs(vals[0] - levels[0]) <= 1e-10, (s, w)
            for v in vals:
                assert np.min(np.abs(levels - v)) <= 1e-9, (s, w)
            union.append(np.tile(levels, mult))
        assert abs(ground_spectrum(hs, 2).gap
                   - gap_from_levels(np.concatenate(union))) <= 1e-10, s


def test_budget_guards(monkeypatch):
    import plaqising.ed as ed

    def never(*args):
        raise AssertionError("block labels allocated past the budget")

    monkeypatch.setattr(ed, "_parity_labels", never)
    big = HamiltonianSpec(LatticeSpec(5, 4, Boundary.PERIODIC), 1.0, 1.0)
    with pytest.raises(TooLarge):
        full_spectrum(big)
    huge = HamiltonianSpec(LatticeSpec(7, 4, Boundary.PERIODIC), 1.0, 1.0)
    with pytest.raises(TooLarge):
        ground_spectrum(huge)


def _raises_too_large_before_allocating(build):
    # one label per state would take 2^21 * 8 bytes
    n = LANCZOS_MAX_SPINS + 1
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge):
            build(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (1 << n)


def test_compile_budget_is_checked_before_allocating():
    _raises_too_large_before_allocating(
        lambda n: HamiltonianOperator(n, [(1.0, sigma_x(0))]))


def test_parity_block_budget_is_checked_before_allocating():
    _raises_too_large_before_allocating(
        lambda n: parity_block(n, [(1.0, sigma_x(0))], [1], [1]))


@pytest.mark.parametrize("ps", [PauliString(((5, "Z"),)), sigma_x(5),
                                PauliString(((70, "Z"),))],
                         ids=["z5", "x5", "z70"])
@pytest.mark.parametrize("basis", [None, "even"])
def test_terms_off_the_operator_sites_are_rejected(ps, basis):
    # on 3 spins: a Z on site 5 would act as the identity, an X there would
    # leave the basis, and site 70 would overflow the uint64 masks
    labels = None if basis is None else np.array([0, 3, 5, 6], dtype=np.uint64)
    with pytest.raises(SiteOutOfRange):
        HamiltonianOperator(3, [(1.0, sigma_x(0) * sigma_x(1)), (1.0, ps)], labels)


def test_gap_from_levels_collapses_degeneracy():
    levels = np.array([0.0, 1e-12, 1e-12, 0.5, 0.5, 1.0])
    assert abs(gap_from_levels(levels) - 0.5) < 1e-15
    only_ground = np.array([1.0, 1.0 + 1e-13])
    assert gap_from_levels(only_ground) == 0.0


def test_expectation_on_product_state():
    # |+...+>: every sx gives 1, any string with a Y or Z gives 0
    n = 4
    v = np.full(2**n, 2.0 ** (-n / 2))
    assert abs(expectation(v, PauliString(((2, "X"),))) - 1.0) < 1e-12
    assert abs(expectation(v, PauliString(((1, "Z"),)))) < 1e-12
    assert abs(expectation(v, PauliString(((0, "X"), (3, "Y"))))) < 1e-12


def _random_string(rng, n: int, y_parity: int) -> PauliString:
    """A random string on ``n`` spins whose Y count has the given parity, and
    a random phase: an odd Y count gives an imaginary prefactor."""
    axes = list(rng.choice(["I", "X", "Y", "Z"], n))
    if axes.count("Y") % 2 != y_parity:
        j = int(rng.integers(n))
        axes[j] = "X" if axes[j] == "Y" else "Y"
    phase = (1, -1, 1j, -1j)[rng.integers(4)]
    return PauliString(tuple((j, a) for j, a in enumerate(axes) if a != "I"), phase)


@pytest.mark.parametrize("y_parity", [0, 1], ids=["even-y", "odd-y"])
@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("n", range(1, 9))
def test_expectation_matches_the_full_space_oracle(n, dtype, y_parity):
    rng = np.random.default_rng([n, y_parity, dtype is complex])
    for _ in range(8):
        v = rng.standard_normal(2**n)
        if dtype is complex:
            v = v + 1j * rng.standard_normal(2**n)
        v /= np.linalg.norm(v)
        ps = _random_string(rng, n, y_parity)
        assert abs(expectation(v, ps) - np.vdot(v, apply_pauli_string(ps, v))) <= 1e-13


@pytest.mark.parametrize("size", [3, 4])
def test_expectation_on_loop_sector_states_matches_the_oracle(size):
    # the sweep's strings (sx over 3 diagonal sites, 2 plaquettes) and the
    # longer ones, on states that are zero outside one loop sector
    spec = LatticeSpec(size, size, Boundary.PERIODIC)
    strings = [sx_string(spec, DiagonalSegment(size - 1, 1, k)) for k in range(size)]
    strings += [plaquette_string(spec, size - 1, 0, r) for r in range(1, size + 1)]
    for g in (0.3, 0.7):
        state, _ = ground_state_for_measurement(HamiltonianSpec(spec, g, 1.0 - g))
        assert np.count_nonzero(state) < state.size
        for ps in strings:
            P = ps.hadamard()
            oracle = np.vdot(state, apply_pauli_string(P, state))
            assert abs(expectation(state, P) - oracle) <= 1e-13


def test_expectation_of_the_zero_state_is_zero():
    v = np.zeros(2**4)
    for ps in (sigma_x(0), PauliString(((1, "Y"), (3, "Z")), 1j)):
        assert expectation(v, ps) == 0


@pytest.mark.parametrize("v, ps, error", [
    (np.ones(6), sigma_x(0), DimensionMismatch),
    (np.ones(0), sigma_x(0), DimensionMismatch),
    (np.ones((4, 4)), sigma_x(0), DimensionMismatch),
    (np.ones(8), sigma_x(3), SiteOutOfRange),
    (np.ones(8), PauliString(((70, "Z"),)), SiteOutOfRange),
], ids=["length-6", "empty", "matrix", "x-beyond", "z70"])
def test_expectation_raises_its_typed_errors_itself(v, ps, error):
    with pytest.raises(error) as info:
        expectation(v, ps)
    assert info.traceback[-1].name == "expectation"


def test_operator_ground_spectrum_from_custom_terms():
    # two-level check: H = -sz on one spin
    op = HamiltonianOperator(1, [(-1.0, PauliString(((0, "Z"),)))])
    res = operator_ground_spectrum(op, k=2)
    np.testing.assert_allclose(res.eigenvalues[:2], [-1.0, 1.0], atol=1e-12)
