"""Free-fermion solution of transverse-field Ising chains.

Chain model
-----------
``H = -sum_j (field * tx_j + bond * tz_j tz_{j+1})`` on ``L`` sites, the
closing bond present only for periodic chains (with an optional sign twist);
critical at ``field = bond``, and ``bond = 0`` is a chain of free spins.
Open chains may carry extra single-``tz`` boundary fields; :func:`bdg_solve`
refuses them, and :mod:`plaqising.duality` solves those chains dense.

Fermionization conventions (fixed; every formula below assumes them):

* ``A_j = c_j + c^dag_j``, ``B_j = c_j - c^dag_j``;
* ``tx_j = B_j A_j = 1 - 2 n_j``;
* ``tz_j tz_{j+1} = -B_j A_{j+1}``;
* on a ring, ``tz_L tz_1 = + P * B_L A_1`` with ``P`` the fermion parity, so
  the even-parity (``P = +1``) block maps to antiperiodic fermions
  (momenta ``(2m+1) pi / L``) and the odd block to periodic fermions
  (``2 pi m / L``); a bond twist swaps the two grids.

The single-particle problem reduces to the ``L x L`` real matrix
``Z = 2 f * 1 - 2 b * S`` (field ``f``, bond ``b``, ``S`` the one-step lower
shift, plus the boundary corner on rings): mode energies are the singular
values of ``Z`` and the ground-state Majorana correlator is the orthogonal
polar factor ``G(i, j) = <B_i A_j> = (U Vh)^T`` from ``Z = U diag(s) Vh``.
The many-body ground energy is ``-1/2 sum_k eps_k`` exactly (field constants
cancel).

Open chains fold ``Z`` with the site reversal ``R``: ``Z^T = R Z R``, so
``M = R Z`` is symmetric, nonzero only at ``i + j = L - 1`` (``2f``) and
``i + j = L - 2`` (``-2b``).  In the path order ``L-1, 0, L-2, 1, ...`` it is
tridiagonal, with off-diagonal ``2f, -2b, 2f, ...`` and a zero diagonal but
for its last entry (``-2b`` for even ``L``, ``2f`` for odd ``L``).  Its
eigenvalues ``theta`` come from one eigenvalues-only tridiagonal solve; its
eigenvectors are known in closed form (Pfeuty 1970; Lieb, Schultz & Mattis
1961):

* the mode energies are ``|theta|``; a mode below :func:`_sv_noise_floor`
  (the edge mode of ``f < b``, an exact zero at ``f = 0``) reads 0;
* ``G = sign(M) R = (1 - 2 N N^T) R``, with ``N`` the eigenvectors of
  ``theta < 0`` in site order.  Those are standing waves
  ``v_j = sin(k (j + 1))``, ``k`` a root in ``(0, pi)`` of
  ``f sin(k (L + 1)) = b sin(k L)``, with ``eps = 2 |f - b e^{ik}|`` and
  ``theta = 2f sin k / sin kL``.  The edge mode (imaginary ``k``) has
  ``theta = 2f sinh kappa / sinh kappa L > 0``, so it is never in ``N``;
* the closed-form negative modes must match the solve's, in number and in
  energy within the noise floor, else :class:`NumericalFailure`;
* ``G G^T - 1 = 4 N E N^T`` with ``E = N^T N - 1``, so
  ``4 ||E||_F (1 + ||E||_F)`` bounds ``max |G G^T - 1|``; above ``1e-8`` the
  solve raises :class:`NumericalFailure`.

Strings
-------
Every string is a Majorana monomial ``sign * prod_k B_{b_k} A_{a_k}`` on one
chain (0-based sites, pairs in order) with value ``sign * det G[b, a]``, read
by one function, :func:`_wick`, under one index rule, one whole-ring rule and
one twist rule: a bond across a ring's closing bond carries the ring's
``twist``.  The block ``T[a, b] = G(rows[a], cols[b])`` is gathered in one
NumPy indexing step by :func:`_toeplitz_from`:

* open chains index the materialized block ``G[:m, :m]`` directly; an index
  outside it (negative ones included) raises :class:`IndexOutOfRange`;
* rings store one row, ``G(i, i + r) = _gvec[r]`` for ``0 <= r < L``, and
  wrap any separation as ``j - i = q L + r`` (floor division), so that
  ``G(i, j) = w**q * _gvec[r]`` with the wrap sign ``w = -1`` on the
  antiperiodic grid and ``w = +1`` on the periodic grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .ed import DEGENERACY_TOL, LANCZOS_MAX_SPINS, gap_from_levels
from .errors import IndexOutOfRange, InvalidSpec, NumericalFailure, TooLarge
from .lattice import ChainBoundary
from .pauli import PauliString


def _sv_noise_floor(L: int, eps_max: float) -> float:
    """Smallest open-chain mode energy distinguishable from an exact zero mode.

    The tridiagonal eigenvalues carry an absolute error of about
    ``p(L) * machine_eps * ||M||``; a mode below this floor is an exact zero
    as far as the solve can tell, and its energy is reported as 0.
    """
    return 32.0 * L * np.finfo(float).eps * max(eps_max, 1e-300)


@dataclass(frozen=True)
class TFIMChainSpec:
    """One transverse-field Ising chain (possibly a dual of a 2D lattice).

    ``H = -sum_j (field * tx_j + bond * tz_j tz_{j+1})
    - bond * sum strength * tz_pos``.  ``edge_fields`` is a tuple of
    ``(position, strength)`` single-``tz`` boundary terms (open chains only;
    produced by the 2D duality at lattice boundaries).  ``twist = -1`` flips
    the sign of the closing bond of a periodic chain (sector-resolved
    duality).  ``bond = 0`` is the dual of the ``h = 0`` plaquette model.
    """

    length: int
    boundary: ChainBoundary
    field: float
    bond: float
    edge_fields: tuple[tuple[int, float], ...] = ()
    twist: int = 1

    def __post_init__(self):
        if self.length < 1:
            raise InvalidSpec("chain length must be positive")
        couplings = (self.field, self.bond, *(s for _, s in self.edge_fields))
        if not all(math.isfinite(c) for c in couplings):
            raise InvalidSpec("chain couplings must be finite")
        if self.field < 0 or self.bond < 0:
            raise InvalidSpec("field and bond must be nonnegative magnitudes")
        if self.field + self.bond == 0:
            raise InvalidSpec("field + bond must be positive")
        if self.twist not in (1, -1):
            raise InvalidSpec("twist must be +1 or -1")
        if self.twist == -1 and self.boundary is not ChainBoundary.PERIODIC_CHAIN:
            raise InvalidSpec("twist applies to periodic chains only")
        if self.edge_fields and self.boundary is not ChainBoundary.OPEN_CHAIN:
            raise InvalidSpec("edge fields apply to open chains only")
        for pos, _ in self.edge_fields:
            if not 0 <= pos < self.length:
                raise InvalidSpec(f"edge field position {pos} outside chain")


def chain_terms(spec: TFIMChainSpec) -> list[tuple[float, PauliString]]:
    """Pauli-term list of the chain Hamiltonian (tx = X, tz = Z)."""
    L = spec.length
    terms: list[tuple[float, PauliString]] = []
    if spec.field != 0.0:
        for j in range(L):
            terms.append((-spec.field, PauliString(((j, "X"),))))
    if spec.bond != 0.0:
        ring = spec.boundary is ChainBoundary.PERIODIC_CHAIN and L > 1
        for j in range(L if ring else L - 1):
            w = spec.twist if j == L - 1 else 1
            terms.append(
                (-spec.bond * w, PauliString(((j, "Z"), ((j + 1) % L, "Z"))))
            )
        for pos, strength in spec.edge_fields:
            terms.append((-spec.bond * strength, PauliString(((pos, "Z"),))))
    return terms


# ----------------------------------------------------------------------
# BdG solutions
# ----------------------------------------------------------------------
@dataclass
class BdGSolution:
    """Single-particle solution of one chain: what its correlators read.

    ``energies`` are the ascending mode energies: every mode of an open
    chain, and on a ring those of the even spin-parity (correlator) grid.
    ``ground_energy`` is the many-body ground energy (on a ring, the lower
    of the two spin-parity blocks' lowest levels).  The correlators read the
    Majorana correlator ``G(i,j) = <B_i A_j>`` only through the one string
    reader :func:`_wick` and its block gather :func:`_toeplitz_from`.  An
    open chain holds ``G`` of its Gaussian vacuum in ``_G`` (only the
    leading ``m x m`` block, ``8 m^2`` bytes, when solved with
    ``corr_size = m``; nothing with ``corr_size = 0``), built from the
    closed-form eigenvectors of :func:`_negative_modes`, and the bound
    ``orthogonality_bound >= max |G G^T - 1|`` that its solve checked (0
    where no check ran); a ring holds one row of ``G`` in ``_gvec``
    (``8 L`` bytes), for the lowest state of its even spin-parity block.
    """

    chain: TFIMChainSpec
    energies: np.ndarray
    ground_energy: float
    _G: np.ndarray | None = None
    _gvec: np.ndarray | None = None  # periodic: G(i, i+r) = _gvec[r mod L] up to wrap sign
    _gvec_wrap_sign: int = -1  # -1 antiperiodic grid, +1 periodic grid
    orthogonality_bound: float = 0.0

    @property
    def L(self) -> int:
        return self.chain.length


def _negative_modes(
    f: float, b: float, L: int, floor: float
) -> tuple[np.ndarray, np.ndarray]:
    """The modes of the folded open chain ``M = R Z`` with ``theta < 0`` and
    energy at least ``floor``, in closed form: their energies, ascending, and
    their unit eigenvectors in site order, one per column of an ``L x k``
    array.

    The real modes are standing waves ``v_j = sin(k (j + 1))`` with ``k`` a
    root in ``(0, pi)`` of ``q(k) = (f sin k(L+1) - b sin kL) / sin k``.  The
    roots are bracketed on ``8 (L + 1)`` grid cells and bisected 60 times,
    all at once; ``q`` has the sign of its numerator inside ``(0, pi)`` and
    the limits ``f (L+1) - b L`` at 0 and ``(-1)^L (f (L+1) + b L)`` at
    ``pi``, where a float ``sin pi != 0`` would fake a root.  The signs of
    ``theta = 2f sin k / sin kL`` and ``theta sin k = 2f sin kL - 2b sin
    k(L-1)`` are both exact; the first does not cancel for ``f >= b``, the
    second for ``f < b``.  The edge mode (imaginary ``k``) is positive.
    """
    cells = 8 * (L + 1)
    grid = np.pi * np.arange(cells + 1) / cells

    def q_nonneg(k):
        return f * np.sin(k * (L + 1)) >= b * np.sin(k * L)

    pos = q_nonneg(grid)
    pos[0], pos[-1] = f * (L + 1) >= b * L, L % 2 == 0
    cell = np.flatnonzero(pos[:-1] != pos[1:])
    lo, hi, pos_lo = grid[cell], grid[cell + 1], pos[cell]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        right = q_nonneg(mid) == pos_lo
        lo, hi = np.where(right, mid, lo), np.where(right, hi, mid)
    k = 0.5 * (lo + hi)
    eps = 2 * np.hypot(f - b * np.cos(k), b * np.sin(k))
    if f >= b:
        neg = np.sin(k * L) < 0
    else:
        neg = f * np.sin(k * L) < b * np.sin(k * (L - 1))
    keep = neg & (eps >= floor)
    N = np.multiply.outer(np.arange(1.0, L + 1), k[keep])
    np.sin(N, out=N)
    N /= np.sqrt(np.einsum("ij,ij->j", N, N))
    return eps[keep], N


def bdg_solve(chain: TFIMChainSpec, corr_size: int | None = None) -> BdGSolution:
    """Solve one chain: mode energies and ground-state Majorana correlator.

    ``corr_size`` affects open chains only: ``0`` skips the correlator
    (energies only), ``m`` materializes the leading block ``G[:m, :m]`` and
    ``None`` the full matrix.  A ring always stores one correlator row, an
    FFT on the grid of its even spin-parity block (:func:`ring_block`) for
    that block's lowest state; its ground energy is the lower of the two
    blocks' lowest levels.

    Memory on an open chain, in the order it is live: LAPACK's
    eigenvalues-only solve of the folded tridiagonal ``M`` (``theta``, a few
    length-``L`` vectors); then ``N`` (``L x L/2``, ``4 L^2`` bytes), built in
    place from its sine arguments, with the ``L``-vectors of its root search;
    then the ``L/2 x L/2`` Gram matrix of the orthogonality check, freed
    before the ``m x m`` block of ``G`` is built.  With ``corr_size = 0``
    nothing after the eigenvalues is built.
    """
    if chain.edge_fields:
        raise InvalidSpec("boundary tz fields break the quadratic form; use dense ED")
    f, b, L = chain.field, chain.bond, chain.length

    if L == 1:
        # single spin in a field: levels -f and +f
        return BdGSolution(
            chain=chain,
            energies=np.array([2 * f]),
            ground_energy=-f,
            _G=np.array([[1.0]]),
        )

    if chain.boundary is ChainBoundary.OPEN_CHAIN:
        # the fold M = R Z, tridiagonal in the path order L-1, 0, L-2, 1, ...
        d = np.zeros(L)
        d[-1] = 2 * f if L % 2 else -2 * b
        e = np.where(np.arange(L - 1) % 2, -2 * b, 2 * f)
        theta = scipy.linalg.eigh_tridiagonal(d, e, eigvals_only=True)
        eps = np.abs(theta)
        floor = _sv_noise_floor(L, float(eps.max()))
        small = eps < floor
        energies = np.sort(np.where(small, 0.0, eps))
        ground_energy = -0.5 * float(energies.sum())
        if corr_size == 0:
            return BdGSolution(chain=chain, energies=energies, ground_energy=ground_energy)
        neg_eps, N = _negative_modes(f, b, L, floor)
        solved = np.sort(eps[(theta < 0) & ~small])
        if solved.shape != neg_eps.shape or np.any(np.abs(neg_eps - solved) > floor):
            raise NumericalFailure(
                f"closed-form modes disagree with the eigensolve: {neg_eps.size}"
                f" vs {solved.size} with theta < 0"
            )
        # G G^T - 1 = 4 N E N^T with E = N^T N - 1, so this bounds max|G G^T - 1|
        E = N.T @ N
        E[np.diag_indices_from(E)] -= 1.0
        gram = float(np.linalg.norm(E))
        del E
        bound = 4 * gram * (1 + gram)
        if bound > 1e-8:
            raise NumericalFailure(
                f"Majorana correlator lost orthogonality (bound {bound:.2e})"
            )
        # G = (1 - 2 N N^T) R: G(i, j) = [i + j = L - 1] - 2 N[i] . N[L - 1 - j]
        m = L if corr_size is None else min(corr_size, L)
        G = N[:m] @ N[::-1][:m].T
        G *= -2.0
        i = np.arange(L - m, m)
        G[i, L - 1 - i] += 1.0
        return BdGSolution(
            chain=chain,
            energies=energies,
            ground_energy=ground_energy,
            _G=G,
            orthogonality_bound=bound,
        )

    even, odd = ring_block(chain, 1), ring_block(chain, -1)
    return BdGSolution(
        chain=chain,
        energies=even.eps,
        ground_energy=min(even.level, odd.level),
        _gvec=_ring_gvec(f, b, even),
        _gvec_wrap_sign=1 if even.k[0] == 0.0 else -1,
    )


class RingBlock(NamedTuple):
    """One spin-parity block of a ring (see :func:`ring_block`)."""

    k: np.ndarray    # fermion momentum grid
    eps: np.ndarray  # mode energies on ``k``, ascending
    evac: float      # energy of the grid's Gaussian vacuum
    pvac: int        # spin parity of that vacuum
    level: float     # lowest level of the block


def ring_block(chain: TFIMChainSpec, spin_parity: int) -> RingBlock:
    """The fermion grid and lowest level of one spin-parity block of a ring.

    Even spin parity lives on the antiperiodic grid (momenta
    ``(2m+1) pi / L``) and odd parity on the periodic grid (``2 pi m / L``);
    a bond twist swaps the two.  The antiperiodic vacuum is even; on the
    periodic grid the unpaired ``k = 0`` mode has energy ``2(f - b)``, so
    that vacuum is odd for ``f < b``.  A state with occupied mode set ``S``
    has spin parity ``pvac * (-1)^|S|``, so the block's lowest level is the
    vacuum if its parity matches, else the vacuum plus the cheapest mode.  A
    lone spin (``L = 1``) has no closing bond: levels ``-f`` (even) and
    ``+f`` (odd).
    """
    if chain.boundary is not ChainBoundary.PERIODIC_CHAIN:
        raise InvalidSpec("spin-parity blocks are defined for ring chains")
    f, b, L = chain.field, chain.bond, chain.length
    periodic = (spin_parity == 1) == (chain.twist == -1)
    k = np.pi * (2 * np.arange(L) + (0 if periodic else 1)) / L
    if L == 1:
        eps, pvac = np.array([2 * f]), 1
    else:
        eps = np.sort(2 * np.sqrt((f - b * np.cos(k)) ** 2 + (b * np.sin(k)) ** 2))
        pvac = -1 if periodic and f < b else 1
    evac = -0.5 * float(eps.sum())
    level = evac + (0.0 if pvac == spin_parity else float(eps[0]))
    return RingBlock(k, eps, evac, pvac, level)


def _ring_gvec(f: float, b: float, even: RingBlock) -> np.ndarray:
    """Majorana correlator row ``G(i, i+r)`` of the even spin-parity block's
    lowest state, via one inverse FFT on its grid ``k``:
    ``G(i, i+r) = (1/L) sum_k e^{ikr} z_k / |z_k|`` with
    ``z_k = f - b e^{-ik}`` for the grid's vacuum.  Where that vacuum is odd
    (the periodic grid for ``f < b``), the lowest even state adds the
    ``k = 0`` mode, whose occupation flips the sign of its term."""
    k = even.k
    z = f - b * np.exp(-1j * k)
    az = np.abs(z)
    if np.any(az < 1e-15):
        f = np.where(az < 1e-15, 1.0, z / np.where(az < 1e-15, 1.0, az))
    else:
        f = z / az
    if even.pvac == -1:
        f[0] = -f[0]
    base = np.fft.ifft(f)  # index r: (1/L) sum_m e^{2 pi i m r / L} f_m
    phase = np.exp(1j * k[0] * np.arange(len(k)))  # k[0] is the grid offset
    return np.real(phase * base)


# ----------------------------------------------------------------------
# many-body levels and gaps
# ----------------------------------------------------------------------
def _sums_by_count_parity(eps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All subset sums of ``eps`` split by even/odd subset size."""
    even = np.zeros(1)
    odd = np.zeros(0)
    for e in eps:
        even, odd = (
            np.concatenate([even, odd + e]),
            np.concatenate([odd, even + e]),
        )
    return even, odd


def _check_level_budget(chain: TFIMChainSpec) -> None:
    """``TooLarge`` before a level list of ``2^L`` float64 subset sums is
    built for a chain longer than any lattice ED solves: a dual ring has at
    most as many sites as its 2D lattice has spins, so no longer list has a
    2D spectrum to be checked against."""
    if chain.length > LANCZOS_MAX_SPINS:
        raise TooLarge(
            f"{chain.length} modes give 2^{chain.length} levels "
            f"({8 << chain.length} bytes); level lists stop at "
            f"{LANCZOS_MAX_SPINS} modes"
        )


def ring_sector_levels(
    chain: TFIMChainSpec, spin_parity: int
) -> np.ndarray:
    """Every many-body level of one spin-parity block of a ring chain: the
    vacuum of the block's grid (:func:`ring_block`) plus each subset of
    modes whose size gives the block's parity."""
    _check_level_budget(chain)
    block = ring_block(chain, spin_parity)
    even_s, odd_s = _sums_by_count_parity(block.eps)
    return np.sort(block.evac + (even_s if block.pvac == spin_parity else odd_s))


def manybody_levels(chain: TFIMChainSpec) -> np.ndarray:
    """Full spin spectrum of the chain reconstructed from the mode energies."""
    _check_level_budget(chain)
    if chain.boundary is ChainBoundary.OPEN_CHAIN:
        sol = bdg_solve(chain, corr_size=0)
        even_s, odd_s = _sums_by_count_parity(sol.energies)
        return np.sort(sol.ground_energy + np.concatenate([even_s, odd_s]))
    return np.sort(
        np.concatenate(
            [ring_sector_levels(chain, +1), ring_sector_levels(chain, -1)]
        )
    )


def manybody_gap(chain: TFIMChainSpec) -> float:
    """Gap between the chain ground state and the first level above the
    degeneracy band, combining both spin-parity blocks for rings."""
    if chain.boundary is ChainBoundary.OPEN_CHAIN:
        sol = bdg_solve(chain, corr_size=0)
        above = sol.energies[sol.energies > DEGENERACY_TOL]
        return float(above[0]) if above.size else 0.0
    levels = []
    for parity in (1, -1):
        # a safe handful of each block's lowest levels, from its 8 lowest modes
        block = ring_block(chain, parity)
        even_s, odd_s = _sums_by_count_parity(block.eps[:8])
        levels.append(block.evac + np.sort(even_s if block.pvac == parity else odd_s)[:8])
    return gap_from_levels(np.concatenate(levels))


# ----------------------------------------------------------------------
# ground-state correlators (Wick determinants in G)
# ----------------------------------------------------------------------
def _toeplitz_from(sol: BdGSolution, row_offsets, col_offsets) -> np.ndarray:
    """The Wick block ``[G(i, j)]`` for ``i`` in rows, ``j`` in cols (0-based),
    gathered in one step; the only reader of ``sol._G`` and ``sol._gvec``."""
    rows = np.asarray(row_offsets, dtype=np.intp)
    cols = np.asarray(col_offsets, dtype=np.intp)
    if sol._gvec is not None:
        q, r = np.divmod(cols[None, :] - rows[:, None], sol.L)
        return np.where(q % 2 == 0, 1.0, float(sol._gvec_wrap_sign)) * sol._gvec[r]
    if sol._G is None:
        raise InvalidSpec("correlator block was not materialized")
    m = sol._G.shape[0]
    if any(((ix < 0) | (ix >= m)).any() for ix in (rows, cols)):
        raise IndexOutOfRange(
            f"Wick block reaches outside the materialized {sol._G.shape} block"
        )
    return sol._G[np.ix_(rows, cols)]


def _wick(sol: BdGSolution, bs, as_, sign: int) -> float:
    """``sign * det G[bs, as_]``: the ground-state value of the Majorana
    monomial ``sign * prod_k B_{bs[k]} A_{as_[k]}`` (0-based sites).

    1. Index rule: the first site ``bs[0] + 1`` is in ``1..L``; ``bs`` and
       ``as_`` each ascend within fewer than ``L`` positions (at most one
       whole ring, no Majorana twice); on an open chain every site is inside
       the materialized block (:func:`_toeplitz_from` raises otherwise).
    2. A pair with ``B`` and ``A`` on different laps of a ring is a bond
       across the closing bond.  The block's wrap sign follows the fermion
       grid, which a twist swaps, while ``tz_L tz_1 = P B_L A_1`` does not
       change; so the pair carries ``twist``.
    3. ``L`` pairs on a ring cover it whole: that block is orthogonal, so
       the value is its sign, exactly ``+-1``.
    """
    L = sol.L
    bs, as_ = np.asarray(bs, dtype=np.intp), np.asarray(as_, dtype=np.intp)
    if not (bs.size and 0 <= bs[0] < L and all(
            (np.diff(p) > 0).all() and p[-1] - p[0] < L for p in (bs, as_))):
        raise IndexOutOfRange(f"B sites {bs + 1}, A sites {as_ + 1}: need a first"
                              f" site in 1..{L}, ascending within one ring")
    sign *= sol.chain.twist ** int(np.count_nonzero(bs // L != as_ // L))
    s, logdet = np.linalg.slogdet(_toeplitz_from(sol, bs, as_))
    if s == 0:
        return 0.0
    if bs.size == L and sol.chain.boundary is ChainBoundary.PERIODIC_CHAIN:
        return float(sign * s)
    return float(sign * s * math.exp(logdet))


def magnetization_x(sol: BdGSolution, i: int) -> float:
    """``<tx_i>`` (1-based site): the monomial ``tx_i = B_i A_i``."""
    return _wick(sol, [i - 1], [i - 1], 1)


def zz_correlator(sol: BdGSolution, i: int, j: int) -> float:
    """``<tz_i tz_j>`` (1-based, ``i < j``): the ``r = j - i`` pairs of
    ``prod_{m=i}^{j-1} (-B_m A_{m+1})``, sign ``(-1)^r``.  On a ring, in the
    even block's lowest state for any ``j - i <= L`` (a bond across the
    closing bond carries the twist); ``j = i + L`` is ``tz_i^2``, exactly 1.
    """
    return _wick(sol, range(i - 1, j - 1), range(i, j), (-1) ** (j - i))


def xx_correlator(sol: BdGSolution, i: int, j: int) -> float:
    """``<tx_i tx_j>`` (1-based, ``i < j``, ``j - i < L`` on a ring): the
    monomial ``B_i A_i B_j A_j``."""
    return _wick(sol, [i - 1, j - 1], [i - 1, j - 1], 1)


def disorder_parameter(sol: BdGSolution, r: int, start: int = 1) -> float:
    """``<prod_{j=start..start+r-1} tx_j>``: an ``r x r`` block determinant.

    ``start`` is in ``1..L`` (default 1).  On a ring a window of ``r <= L``
    sites may wrap past site ``L``; ``r = L`` is the spin-flip parity,
    exactly 1 in the even block.
    """
    sites = range(start - 1, start - 1 + r)
    return _wick(sol, sites, sites, 1)
