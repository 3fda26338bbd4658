"""Free-fermion chain solver against dense chain diagonalization.

Dense spectra come from :func:`dense_matrix_from_terms` on the spin-chain
terms, which exercises a completely different code path (bit kernels) than
the quadratic-form solver under test.  Agreement bar: 1e-8.
"""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, strategies as st

from plaqising import (
    ChainBoundary,
    InvalidSpec,
    TFIMChainSpec,
    bdg_solve,
    disorder_parameter,
    magnetization_x,
    xx_correlator,
    zz_correlator,
)
from plaqising import freefermion
from plaqising.errors import IndexOutOfRange, NumericalFailure, TooLarge
from plaqising.ed import dense_matrix_from_terms, parity_block
from plaqising.freefermion import (
    _sv_noise_floor,
    _toeplitz_from,
    chain_terms,
    ring_block,
)
from plaqising.pauli import PauliString

from oracles import manybody_gap, manybody_levels, ring_sector_levels

OPEN = ChainBoundary.OPEN_CHAIN
RING = ChainBoundary.PERIODIC_CHAIN


def dense_levels(spec: TFIMChainSpec) -> np.ndarray:
    H = dense_matrix_from_terms(spec.length, chain_terms(spec))
    return np.linalg.eigvalsh(H)


def dense_ground(spec: TFIMChainSpec):
    H = dense_matrix_from_terms(spec.length, chain_terms(spec))
    vals, vecs = np.linalg.eigh(H)
    return vals, vecs


def parity_blocks(spec: TFIMChainSpec) -> dict[int, np.ndarray]:
    """Spectrum split by the spin-flip parity prod tx (penalty projection)."""
    L = spec.length
    H = dense_matrix_from_terms(L, chain_terms(spec))
    P = dense_matrix_from_terms(L, [(1.0, PauliString(tuple((j, "X") for j in range(L))))])
    out = {}
    shift = 10.0 * ((spec.field + spec.bond) * L + 1.0)
    for s in (+1, -1):
        proj = 0.5 * (np.eye(2**L) + s * P)
        blocked = proj @ H @ proj + shift * (np.eye(2**L) - proj)
        out[s] = np.sort(np.linalg.eigvalsh(blocked))[: 2 ** (L - 1)]
    return out


@pytest.mark.parametrize("boundary", [OPEN, RING])
@pytest.mark.parametrize("g_I", [0.0, 0.4, 1.0, 1.7])
@pytest.mark.parametrize("L", [2, 3, 5, 8])
def test_full_spectrum_matches_dense(boundary, g_I, L):
    spec = TFIMChainSpec(L, boundary, 0.9 * g_I, bond=0.9)
    np.testing.assert_allclose(
        manybody_levels(spec), dense_levels(spec), atol=1e-8
    )


@pytest.mark.parametrize("g_I", [0.3, 1.0, 2.2])
@pytest.mark.parametrize("L", [3, 4, 6])
def test_twisted_ring_spectrum_matches_dense(g_I, L):
    spec = TFIMChainSpec(L, RING, g_I, bond=1.0, twist=-1)
    np.testing.assert_allclose(
        manybody_levels(spec), dense_levels(spec), atol=1e-8
    )


def test_edge_field_chains_are_dense_only():
    # boundary tz terms break the quadratic form; the solver must say so
    # rather than silently drop them
    spec = TFIMChainSpec(5, OPEN, 0.8 * 1.1, bond=1.1,
                         edge_fields=((0, 1.0), (4, -1.0)))
    with pytest.raises(InvalidSpec):
        bdg_solve(spec)
    assert len(chain_terms(spec)) == 5 + 4 + 2


@pytest.mark.parametrize("twist", [1, -1])
def test_dense_parity_gather_matches_penalty_projection(twist):
    # two independent constructions of one spin-parity block: the label
    # block of ``ed.parity_block`` in the Hadamard frame versus a
    # penalty-shifted projector in the z basis
    from plaqising.duality import _dense_chain_levels

    spec = TFIMChainSpec(5, RING, 0.7, bond=1.0, twist=twist)
    blocks = parity_blocks(spec)
    for s in (+1, -1):
        np.testing.assert_allclose(
            _dense_chain_levels(spec, s), blocks[s], atol=1e-9
        )


def test_bondless_chain_is_free_spins():
    spec = TFIMChainSpec(4, OPEN, 0.7, 0.0)
    assert [t for t in chain_terms(spec)] == [
        (-0.7, PauliString(((j, "X"),))) for j in range(4)
    ]
    np.testing.assert_allclose(
        manybody_levels(spec), dense_levels(spec), atol=1e-12
    )
    assert manybody_gap(spec) == pytest.approx(2 * 0.7)


@pytest.mark.parametrize("twist", [1, -1])
@pytest.mark.parametrize("L", [2, 5, 6])
def test_bondless_ring_blocks_match_dense(L, twist):
    # the dual of the h = 0 model: both fermion grids give the free-spin
    # levels of each spin-flip block
    from plaqising.duality import _dense_chain_levels

    spec = TFIMChainSpec(L, RING, 0.7, 0.0, twist=twist)
    for s in (+1, -1):
        np.testing.assert_allclose(
            ring_sector_levels(spec, s), _dense_chain_levels(spec, s), rtol=0, atol=1e-12
        )
    assert manybody_gap(spec) == pytest.approx(2 * 0.7)


@pytest.mark.parametrize("twist", [1, -1])
@pytest.mark.parametrize("g_I", [0.5, 0.999, 1.0, 1.001, 1.5])
def test_ring_parity_sectors_match_dense_blocks(g_I, twist):
    # even and odd rings, and both sides of g = 1, where the periodic-grid
    # vacuum changes spin parity
    for L in (4, 5):
        spec = TFIMChainSpec(L, RING, g_I, bond=1.0, twist=twist)
        blocks = parity_blocks(spec)
        for s in (+1, -1):
            np.testing.assert_allclose(
                ring_sector_levels(spec, s), blocks[s], atol=1e-8
            )


@pytest.mark.parametrize("levels", [
    lambda: ring_sector_levels(TFIMChainSpec(21, RING, 1.0, 1.0), 1),
    lambda: manybody_levels(TFIMChainSpec(21, RING, 1.0, 1.0)),
    lambda: manybody_levels(TFIMChainSpec(21, OPEN, 1.0, 1.0)),
    lambda: manybody_levels(TFIMChainSpec(21, OPEN, 1.0, 0.0)),
], ids=["ring-block", "ring", "open", "zero-field"])
def test_level_lists_refuse_a_chain_beyond_the_ed_budget(levels):
    # 2^21 levels: refused before any subset sum is built, bytes in the message
    with pytest.raises(TooLarge, match=str(8 * 2**21)):
        levels()


def test_ring_sector_union_is_full_spectrum():
    spec = TFIMChainSpec(5, RING, 1.3, bond=1.0)
    union = np.sort(np.concatenate([
        ring_sector_levels(spec, +1), ring_sector_levels(spec, -1)
    ]))
    np.testing.assert_allclose(union, manybody_levels(spec), atol=1e-10)


@pytest.mark.parametrize("boundary,twist", [
    pytest.param(OPEN, 1, id=str(OPEN)),
    pytest.param(RING, 1, id=str(RING)),
    pytest.param(RING, -1, id=f"{RING}-twisted"),
])
@pytest.mark.parametrize("g_I", [0.2, 0.9, 1.0, 1.8])
def test_manybody_gap_matches_dense(boundary, twist, g_I):
    spec = TFIMChainSpec(7, boundary, g_I, bond=1.0, twist=twist)
    levels = dense_levels(spec)
    # collapse the (near-)degenerate ground band the same way the solver does
    above = levels[levels > levels[0] + 1e-8]
    dense_gap = above[0] - levels[0]
    assert abs(manybody_gap(spec) - dense_gap) < 1e-8


@pytest.mark.parametrize("twist", [1, -1])
def test_ring_energies_only_solve(twist):
    # each block's lowest level is the bottom of its dense parity block,
    # and the ring ground energy is the lower of the two
    spec = TFIMChainSpec(6, RING, 0.7 * 1.3, bond=1.3, twist=twist)
    blocks = parity_blocks(spec)
    for s in (+1, -1):
        assert abs(ring_block(spec, s).level - blocks[s][0]) < 1e-10, s
    assert abs(bdg_solve(spec).ground_energy - dense_levels(spec)[0]) < 1e-10


def test_single_site_chain():
    spec = TFIMChainSpec(1, OPEN, 2.0, bond=1.0)
    sol = bdg_solve(spec)
    np.testing.assert_allclose(sol.energies, [4.0], atol=1e-12)
    np.testing.assert_allclose(manybody_levels(spec), [-2.0, 2.0], atol=1e-12)
    assert manybody_gap(spec) == pytest.approx(4.0)


# ----------------------------------------------------------------------
# ground-state correlators vs dense expectation values
# ----------------------------------------------------------------------
def dense_gs_expect(spec: TFIMChainSpec, ps: PauliString) -> float:
    vals, vecs = dense_ground(spec)
    gs = vecs[:, 0]
    M = dense_matrix_from_terms(spec.length, [(1.0, ps)])
    return float(gs @ M @ gs)


@pytest.mark.parametrize(
    "boundary,g_I",
    [(OPEN, 0.5), (OPEN, 1.0), (OPEN, 1.9), (RING, 1.0), (RING, 1.9)],
)
def test_correlators_match_dense(boundary, g_I):
    # ring g_I < 1 is excluded: its two lowest states are split only
    # exponentially and dense eigh returns an arbitrary mix, while the
    # solver's Gaussian state is the definite-parity member
    L = 7
    spec = TFIMChainSpec(L, boundary, g_I, bond=1.0)
    sol = bdg_solve(spec)
    assert abs(
        magnetization_x(sol, 2) - dense_gs_expect(spec, PauliString(((1, "X"),)))
    ) < 1e-8
    for i, j in [(1, 2), (2, 5), (1, 7)]:
        zz = dense_gs_expect(spec, PauliString(((i - 1, "Z"), (j - 1, "Z"))))
        xx = dense_gs_expect(spec, PauliString(((i - 1, "X"), (j - 1, "X"))))
        assert abs(zz_correlator(sol, i, j) - zz) < 1e-8, (i, j)
        assert abs(xx_correlator(sol, i, j) - xx) < 1e-8, (i, j)
    for r in (1, 3, 5):
        mu = dense_gs_expect(spec, PauliString(tuple((k, "X") for k in range(r))))
        assert abs(disorder_parameter(sol, r) - mu) < 1e-8, r
    mu_mid = dense_gs_expect(spec, PauliString(tuple((k, "X") for k in (2, 3, 4))))
    assert abs(disorder_parameter(sol, 3, start=3) - mu_mid) < 1e-8


def test_ring_disorder_parameter_stops_at_the_ring_length():
    # up to r = L (the spin-flip parity) the string is one Wick block; a
    # longer one would cover sites twice and must not return a number
    L = 6
    spec = TFIMChainSpec(L, RING, 1.4, bond=1.0)
    sol = bdg_solve(spec)
    for r in (L - 1, L):
        mu = dense_gs_expect(spec, PauliString(tuple((k, "X") for k in range(r))))
        assert abs(disorder_parameter(sol, r) - mu) < 1e-8, r
    for r in (L + 1, L + 2, L + 3):
        with pytest.raises(IndexOutOfRange):
            disorder_parameter(sol, r)


def test_wrapped_ring_correlator_is_consistent():
    # ring correlators depend only on the chord separation; the long way
    # round (through the wrap-sign branch) must equal the short way
    spec = TFIMChainSpec(6, RING, 1.4, bond=1.0)
    sol = bdg_solve(spec)
    assert abs(zz_correlator(sol, 1, 3) - zz_correlator(sol, 3, 7)) < 1e-10
    assert abs(xx_correlator(sol, 1, 3) - xx_correlator(sol, 3, 7)) < 1e-10


def test_correlator_index_validation():
    spec = TFIMChainSpec(5, OPEN, 1.0, bond=1.0)
    sol = bdg_solve(spec)
    with pytest.raises(IndexOutOfRange):
        zz_correlator(sol, 3, 3)
    with pytest.raises(IndexOutOfRange):
        zz_correlator(sol, 0, 2)
    with pytest.raises(IndexOutOfRange):
        zz_correlator(sol, 2, 6)
    # one rule on a ring too: the first site is in 1..L, and a string spans
    # at most one whole ring
    ring = bdg_solve(TFIMChainSpec(6, RING, 1.4, bond=1.0))
    for start in (-2, 0, 7, 100):
        with pytest.raises(IndexOutOfRange):
            disorder_parameter(ring, 3, start)
    for read, args in ((zz_correlator, (10, 12)), (zz_correlator, (0, 2)),
                       (zz_correlator, (3, 3)), (zz_correlator, (2, 9)),
                       (xx_correlator, (1, 7)), (xx_correlator, (4, 4)),
                       (xx_correlator, (7, 8)), (magnetization_x, (7,)),
                       (magnetization_x, (0,))):
        with pytest.raises(IndexOutOfRange):
            read(ring, *args)


@pytest.mark.parametrize("L", [3, 4, 12])
@pytest.mark.parametrize("g_I", [0.0, 0.3, 1.0, 2.5])
@pytest.mark.parametrize("twist", [1, -1])
def test_whole_ring_strings_are_exactly_one(L, g_I, twist):
    # a block over the whole ring is orthogonal: prod tx is the even
    # block's parity and tz_i tz_{i+L} is tz_i^2, both exactly +1
    sol = bdg_solve(TFIMChainSpec(L, RING, g_I, bond=1.0, twist=twist))
    for i in range(1, L + 1):
        assert disorder_parameter(sol, L, i) == 1.0, i
        assert zz_correlator(sol, i, i + L) == 1.0, i


def test_truncated_correlator_block():
    spec = TFIMChainSpec(64, OPEN, 1.2, bond=1.0)
    full = bdg_solve(spec)
    part = bdg_solve(spec, corr_size=10)
    for i, j in [(1, 2), (3, 9)]:
        assert abs(zz_correlator(part, i, j) - zz_correlator(full, i, j)) < 1e-12
    with pytest.raises(IndexOutOfRange):
        zz_correlator(part, 1, 12)
    bare = bdg_solve(spec, corr_size=0)
    with pytest.raises(InvalidSpec):
        magnetization_x(bare, 1)


# ----------------------------------------------------------------------
# Wick blocks
# ----------------------------------------------------------------------
@pytest.mark.parametrize("twist", [1, -1])
@pytest.mark.parametrize("g_I", [0.6, 1.0, 1.4])
def test_ring_wick_block_equals_corr(twist, g_I):
    # every window of the ring, those across the wrap included, against the
    # lowest state of the dense spin-flip block prod tx = +1.  In that
    # block's Hadamard frame a tx string is diagonal: (-1)^popcount(b & mask),
    # and tz_i tz_j flips bits i and j.
    # A twisted ring below g_I = 1 keeps even parity on the periodic grid,
    # whose vacuum is odd, so the state is not the bare vacuum there.
    L = 8
    spec = TFIMChainSpec(L, RING, g_I, bond=1.0, twist=twist)
    op = parity_block(L, chain_terms(spec), [(1 << L) - 1], [1])
    _, vecs = np.linalg.eigh(op.dense())
    vec = vecs[:, 0]
    weight = vec ** 2
    sol = bdg_solve(spec)
    for r in range(1, L + 1):
        for start in range(1, L + 1):
            mask = sum(1 << ((start - 1 + j) % L) for j in range(r))
            odd = np.bitwise_count(op.basis & np.uint64(mask)) & np.uint64(1)
            mu = float(weight @ np.where(odd == 1, -1.0, 1.0))
            assert abs(disorder_parameter(sol, r, start) - mu) < 1e-10, (r, start)
            # the pair (start, start + r) crosses the closing bond once
            # start + r > L; that bond carries the twist
            flip = np.uint64((1 << (start - 1)) ^ (1 << ((start - 1 + r) % L)))
            zz = float(vec @ vec[np.searchsorted(op.basis, op.basis ^ flip)])
            assert abs(zz_correlator(sol, start, start + r) - zz) < 1e-10, (start, r)


@pytest.mark.parametrize("rows,cols", [
    ([0, 1], [1, 10]),     # column past the block
    ([9, 10], [0, 1]),     # row past the block
    ([-1, 0], [0, 1]),     # negative indices do not wrap
    ([0, 1], [-2, 0]),
])
def test_open_wick_block_rejects_out_of_block_indices(rows, cols):
    sol = bdg_solve(TFIMChainSpec(64, OPEN, 1.2, bond=1.0), corr_size=10)
    with pytest.raises(IndexOutOfRange):
        _toeplitz_from(sol, rows, cols)
    bare = bdg_solve(TFIMChainSpec(64, OPEN, 1.2, bond=1.0), corr_size=0)
    with pytest.raises(InvalidSpec):
        _toeplitz_from(bare, [0], [0])


def test_orthogonality_deviation_matches_full_product(monkeypatch):
    # the Gram bound 4 ||E||_F (1 + ||E||_F), E = N^T N - 1, covers the whole
    # product max |G G^T - 1| of the full G built from the same near-
    # orthonormal N: both parities, the middle of the chain and past it
    exact = freefermion._negative_modes

    def noisy(*args):
        eps, N = exact(*args)
        return eps, N + 1e-12 * np.random.default_rng(3).standard_normal(N.shape)

    monkeypatch.setattr(freefermion, "_negative_modes", noisy)
    for L in (2, 3, 40, 385, 771):
        sol = bdg_solve(TFIMChainSpec(L, OPEN, 1.5, bond=1.0))
        full = np.abs(sol._G @ sol._G.T - np.eye(L)).max()
        assert 1e-12 < full <= sol.orthogonality_bound < 1e-8, L


def test_open_solve_trips_on_lost_orthogonality(monkeypatch):
    exact = freefermion._negative_modes

    def noisy(*args):
        eps, N = exact(*args)
        return eps, N + 1e-6 * np.random.default_rng(5).standard_normal(N.shape)

    monkeypatch.setattr(freefermion, "_negative_modes", noisy)
    with pytest.raises(NumericalFailure):
        bdg_solve(TFIMChainSpec(12, OPEN, 1.5, bond=1.0))


def test_open_solve_trips_on_lost_orthogonality_past_the_first_slab(monkeypatch):
    # noise only in the rows of N past L / 2: the far half of the chain
    exact = freefermion._negative_modes
    L = 771

    def noisy(*args):
        eps, N = exact(*args)
        N[L // 2:] += 1e-6 * np.random.default_rng(5).standard_normal(N[L // 2:].shape)
        return eps, N

    monkeypatch.setattr(freefermion, "_negative_modes", noisy)
    with pytest.raises(NumericalFailure):
        bdg_solve(TFIMChainSpec(L, OPEN, 1.5, bond=1.0))


@pytest.mark.parametrize("fault", ["drop", "shift"])
def test_open_solve_trips_when_closed_form_misses_the_eigensolve(monkeypatch, fault):
    # a lost root changes the count of theta < 0 modes; a moved one, its
    # energy by far more than the noise floor
    exact = freefermion._negative_modes

    def faulty(*args):
        eps, N = exact(*args)
        if fault == "drop":
            return eps[1:], N[:, 1:]
        return eps + 1e-9 * (np.arange(eps.size) == 3), N

    monkeypatch.setattr(freefermion, "_negative_modes", faulty)
    with pytest.raises(NumericalFailure):
        bdg_solve(TFIMChainSpec(40, OPEN, 1.5, bond=1.0))
    assert bdg_solve(TFIMChainSpec(40, OPEN, 1.5, bond=1.0), corr_size=0).energies.size == 40


def test_each_open_solve_asks_lapack_for_eigenvalues_once(monkeypatch):
    exact = freefermion.scipy.linalg.eigh_tridiagonal
    calls = []

    def spy(*args, **kwargs):
        calls.append(kwargs)
        return exact(*args, **kwargs)

    monkeypatch.setattr(freefermion.scipy.linalg, "eigh_tridiagonal", spy)
    for corr_size in (0, 10, None):
        calls.clear()
        bdg_solve(TFIMChainSpec(64, OPEN, 0.9, bond=1.0), corr_size=corr_size)
        assert calls == [{"eigvals_only": True}], corr_size


def _negative_projector_by_eigensolve(L: int, f: float, b: float) -> np.ndarray:
    """``N N^T`` from every eigenvector of the folded ``M``: the columns with
    ``theta < 0`` above the noise floor, rows moved from the path order
    ``L-1, 0, L-2, 1, ...`` back to site order."""
    d = np.zeros(L)
    d[-1] = 2 * f if L % 2 else -2 * b
    theta, Q = scipy.linalg.eigh_tridiagonal(d, np.where(np.arange(L - 1) % 2, -2 * b, 2 * f))
    neg = (theta < 0) & (np.abs(theta) >= _sv_noise_floor(L, np.abs(theta).max()))
    s = np.arange(L)
    N = Q[np.where(2 * s + 1 < L, 2 * s + 1, 2 * (L - 1 - s))][:, neg]
    return N @ N.T


# both parities of L; either side of the threshold f = b L / (L + 1), where
# the lowest standing wave turns into the edge mode; (600, 0.97), whose edge
# mode is above the noise floor; vanishing and huge couplings
@pytest.mark.parametrize("L,f,b", [
    (L, f, 1.0) for L in (2, 3, 10, 11, 64, 65, 600, 601) for f in (0.5, 1.0, 1.3)
] + [
    (L, L / (L + 1) * (1 + s), 1.0) for L in (12, 13, 600, 601) for s in (1e-9, -1e-9)
] + [(600, 0.97, 1.0)] + [
    (L, f, b) for L in (12, 13, 601) for f, b in (
        (0.0, 1.0), (1e-14, 1.0), (1e-300, 1.0), (1.0, 0.0), (1.0, 1e-14),
        (1.0, 1e-300), (1e300, 1.0))
])
def test_closed_form_projector_matches_the_eigensolve(L, f, b):
    G = bdg_solve(TFIMChainSpec(L, OPEN, f, bond=b))._G
    # G = (1 - 2 N N^T) R, so N N^T = (1 - G R) / 2
    projector = (np.eye(L) - G[:, ::-1]) / 2
    assert np.abs(projector - _negative_projector_by_eigensolve(L, f, b)).max() <= 1e-13


# one chain of each kind the open solve handles: every mode well above zero,
# a zero mode below the noise floor (read as 0, never in N), and a suspect
# mode (above the floor, below 1e-4 of the top of the band)
def _mode_kind(sol) -> str:
    low, top = sol.energies[0], sol.energies[-1]
    return "zero" if low == 0.0 else "suspect" if low < 1e-4 * top else "gapped"


@pytest.mark.parametrize("L,f,kind", [
    (64, 0.5, "zero"), (20, 0.6, "suspect"), (600, 0.97, "suspect"),
])
def test_energies_only_solve_equals_the_full_solve(L, f, kind):
    spec = TFIMChainSpec(L, OPEN, f, bond=1.0)
    full, bare = bdg_solve(spec), bdg_solve(spec, corr_size=0)
    assert _mode_kind(full) == kind
    assert np.array_equal(bare.energies, full.energies)
    assert bare.ground_energy == full.ground_energy


def _suspect_modes_by_gathers(spec: TFIMChainSpec) -> np.ndarray:
    """``G = V U^T`` of a chain without zero modes from the eigenvectors
    ``U`` of ``Z Z^T`` and ``V = Z^T U / eps``, each suspect mode re-projected
    against the L x (L - 1) gather of the other modes."""
    L, f, b = spec.length, spec.field, spec.bond
    d = np.full(L, 4 * (f * f + b * b))
    d[0] = 4 * f * f
    _, U = scipy.linalg.eigh_tridiagonal(d, np.full(L - 1, -4 * f * b))
    V = 2 * f * U
    V[:-1] -= 2 * b * U[1:]
    eps = np.linalg.norm(V, axis=0)
    V /= eps
    for idx in np.nonzero(eps < 1e-4 * eps.max())[0]:
        others = np.arange(L) != idx
        w = V[:, idx] - V[:, others] @ (V[:, others].T @ V[:, idx])
        V[:, idx] = w / np.linalg.norm(w)
    return V @ U.T


@pytest.mark.parametrize("L,f", [(20, 0.6), (24, 0.6), (40, 0.75), (600, 0.97)])
def test_suspect_reprojection_matches_the_gather_formula(L, f):
    spec = TFIMChainSpec(L, OPEN, f, bond=1.0)
    sol = bdg_solve(spec)
    assert _mode_kind(sol) == "suspect"
    assert np.abs(sol._G - _suspect_modes_by_gathers(spec)).max() <= 1e-12


def _polar_factor_by_svd(L: int, f: float, b: float) -> np.ndarray:
    """``G = (U Vh)^T`` from the SVD of the dense ``Z``.  Below the noise
    floor the SVD's null pair has no computable relative sign, so it is
    replaced by the analytic edge pair ``u0 ~ (f/b)^j``, ``v0 = R u0``."""
    Z = 2 * f * np.eye(L) - 2 * b * np.eye(L, k=-1)
    U, s, Vh = np.linalg.svd(Z)
    if s[-1] < _sv_noise_floor(L, s[0]):
        u0 = (f / b) ** np.arange(L)
        u0 /= np.linalg.norm(u0)
        U[:, -1], Vh[-1] = u0, u0[::-1]
    return (U @ Vh).T


# (64, 0.5) and the seven chains after the grid have a mode below the noise
# floor and pin its sign: both parities of L, f = 0, and (40, 0.3) and
# (41, 0.3), where LAPACK's eigensolve returns that mode negative
@pytest.mark.parametrize("L,f,b", [
    (L, f, b) for L in (2, 3, 9, 10, 33, 64)
    for f, b in ((0.5, 1.0), (0.9, 1.0), (1.0, 1.0), (1.3, 1.0), (0.7, 0.0))
] + [(65, 0.5, 1.0), (200, 0.3, 1.0), (201, 0.3, 1.0), (40, 0.3, 1.0),
     (41, 0.3, 1.0), (6, 0.0, 1.0), (7, 0.0, 1.0)])
def test_folded_G_matches_the_svd_polar_factor(L, f, b):
    G = bdg_solve(TFIMChainSpec(L, OPEN, f, bond=b))._G
    assert np.abs(G - _polar_factor_by_svd(L, f, b)).max() <= 1e-13


@pytest.mark.parametrize("f,kind", [(1.5, "gapped"), (0.5, "zero"), (0.985, "suspect")])
def test_open_solve_keeps_two_square_arrays_live(f, kind):
    # the eigenvalues-only solve holds a few L-vectors, 0.0065 x 8L^2 here;
    # a full solve peaks at the L x L block of G next to N (L x L/2),
    # 1.51 x 8L^2: the Gram matrix is freed before the block is built.
    # Each bound is that peak plus 5 %
    L = 1024
    peaks = {}
    for corr_size in (0, None):
        tracemalloc.start()
        try:
            sol = bdg_solve(TFIMChainSpec(L, OPEN, f, bond=1.0), corr_size=corr_size)
            _, peaks[corr_size] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert _mode_kind(sol) == kind
    assert peaks[0] <= 0.0068 * 8 * L * L, peaks[0] / (8 * L * L)
    assert peaks[None] <= 1.59 * 8 * L * L, peaks[None] / (8 * L * L)


# ----------------------------------------------------------------------
# frozen critical-point constants (closed forms, large L)
# ----------------------------------------------------------------------
def test_critical_transverse_magnetization_is_two_over_pi():
    sol = bdg_solve(TFIMChainSpec(4096, RING, 1.0, bond=1.0))
    assert abs(magnetization_x(sol, 1) - 2.0 / math.pi) < 1e-7


def test_critical_connected_xx_asymptote():
    sol = bdg_solve(TFIMChainSpec(4096, RING, 1.0, bond=1.0))
    mx2 = magnetization_x(sol, 1) ** 2
    for n in (1, 2, 5, 10):
        conn = xx_correlator(sol, 1, 1 + n) - mx2
        ref = 4.0 / (math.pi**2 * (4 * n * n - 1))
        assert abs(conn - ref) < 1e-6, n


def test_disordered_string_plateau():
    # deep plateau of the x-string for g_I > 1: (1 - g_I^-2)^(1/8)
    g = 1.1
    sol = bdg_solve(TFIMChainSpec(4096, OPEN, g, bond=1.0), corr_size=1400)
    plateau = (1.0 - g**-2) ** 0.125
    assert abs(disorder_parameter(sol, 1200) - plateau) < 1e-4


def test_ordered_zz_plateau():
    # long-distance zz for g_I < 1 approaches (1 - g_I^2)^(1/4)
    g = 0.9
    sol = bdg_solve(TFIMChainSpec(4096, RING, g, bond=1.0))
    plateau = (1.0 - g * g) ** 0.25
    assert abs(zz_correlator(sol, 1, 601) - plateau) < 1e-4


@pytest.mark.parametrize("L", [12, 64, 257])
@pytest.mark.parametrize("g", [0.5, 0.9, 1.0, 1.3, 2.5])
def test_kramers_wannier_ring_identity(L, g):
    # the open-string / closed-string self-duality on the dual ring: r
    # consecutive tx at g_I equal tz tz at separation r at 1 / g_I
    disordered = bdg_solve(TFIMChainSpec(L, RING, g, bond=1.0))
    ordered = bdg_solve(TFIMChainSpec(L, RING, 1.0 / g, bond=1.0))
    for r in range(1, (L + 1) // 2):
        dev = disorder_parameter(disordered, r) - zz_correlator(ordered, 1, 1 + r)
        assert abs(dev) <= 1e-10, r


# ----------------------------------------------------------------------
# properties
# ----------------------------------------------------------------------
@given(
    st.integers(min_value=2, max_value=6),
    st.floats(min_value=0.0, max_value=2.5),
    st.sampled_from([OPEN, RING]),
    st.sampled_from([1, -1]),
)
def test_spectrum_property_vs_dense(L, g_I, boundary, twist):
    if boundary is OPEN and twist == -1:
        twist = 1  # twist is a ring concept
    spec = TFIMChainSpec(L, boundary, g_I, bond=1.0, twist=twist)
    np.testing.assert_allclose(
        manybody_levels(spec), dense_levels(spec), atol=1e-8
    )


@given(st.integers(min_value=2, max_value=40), st.floats(min_value=0.0, max_value=3.0))
def test_mode_energies_nonnegative_sorted(L, g_I):
    sol = bdg_solve(TFIMChainSpec(L, OPEN, g_I, bond=1.0))
    assert np.all(sol.energies >= -1e-12)
    assert np.all(np.diff(sol.energies) >= -1e-12)


@given(st.integers(min_value=2, max_value=24), st.floats(min_value=0.05, max_value=2.5))
def test_open_chain_G_is_orthogonal(L, g_I):
    sol = bdg_solve(TFIMChainSpec(L, OPEN, g_I, bond=1.0))
    G = sol._G
    np.testing.assert_allclose(G @ G.T, np.eye(L), atol=1e-8)


def test_chain_spec_validation():
    with pytest.raises(InvalidSpec):
        TFIMChainSpec(0, OPEN, 1.0, 1.0)
    with pytest.raises(InvalidSpec):
        TFIMChainSpec(3, OPEN, -0.5, 1.0)
    with pytest.raises(InvalidSpec):
        TFIMChainSpec(3, RING, 1.0, 1.0, edge_fields=((0, 1.0),))
    with pytest.raises(InvalidSpec):
        TFIMChainSpec(3, RING, 1.0, 1.0, twist=2)
    with pytest.raises(InvalidSpec):
        TFIMChainSpec(3, OPEN, 1.0, 1.0, twist=-1)
    with pytest.raises(InvalidSpec):
        TFIMChainSpec(4, OPEN, 1.0, 1.0, edge_fields=((4, 1.0),))
    with pytest.raises(InvalidSpec):
        TFIMChainSpec(3, OPEN, 1.0, -0.5)
    with pytest.raises(InvalidSpec):
        TFIMChainSpec(3, RING, 0.0, 0.0)
    with pytest.raises(InvalidSpec):
        TFIMChainSpec(3, RING, math.nan, 1.0)
    assert TFIMChainSpec(3, RING, 1.0, 0.0).bond == 0.0

