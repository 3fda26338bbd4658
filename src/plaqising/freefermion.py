"""Free-fermion solution of transverse-field Ising chains.

Chain model
-----------
``H = -sum_j (field * tx_j + bond * tz_j tz_{j+1})`` on ``L`` sites, the
closing bond present only for periodic chains (with an optional sign twist);
critical at ``field = bond``, and ``bond = 0`` is a chain of free spins.
Open chains may carry extra single-``tz`` boundary fields, which are outside
the quadratic-fermion form and are rejected here (the dense path in
:mod:`plaqising.duality` covers them).

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

Wick blocks
-----------
Every string correlator is a determinant of a block
``T[a, b] = G(rows[a], cols[b])`` with 0-based site indices, gathered in one
NumPy indexing step:

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
import scipy.linalg.blas

from .ed import DEGENERACY_TOL, LANCZOS_MAX_SPINS, gap_from_levels
from .errors import IndexOutOfRange, InvalidSpec, NumericalFailure, TooLarge
from .lattice import ChainBoundary
from .pauli import PauliString

def _sv_noise_floor(L: int, eps_max: float) -> float:
    """Smallest open-chain mode energy distinguishable from an exact zero mode.

    Mode energies are measured as ``||Z^T u_k||``; for a true (underflowed)
    zero mode the computed norm is pure eigenvector noise,
    ``||Z^T eta|| <~ p(L) * machine_eps * ||Z||``, so anything below this
    floor is replaced by the analytic edge mode.
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
    Majorana correlator ``G(i,j) = <B_i A_j>`` only through the Wick-block
    gather :func:`_toeplitz_from`.  An open chain holds ``G`` of its Gaussian
    vacuum in ``_G`` (only the leading ``m x m`` block when solved with
    ``corr_size = m``); a ring holds one row of ``G`` in ``_gvec``, for the
    lowest state of its even spin-parity block.
    """

    chain: TFIMChainSpec
    energies: np.ndarray
    ground_energy: float
    _G: np.ndarray | None = None
    _gvec: np.ndarray | None = None  # periodic: G(i, i+r) = _gvec[r mod L] up to wrap sign
    _gvec_wrap_sign: int = -1  # -1 antiperiodic grid, +1 periodic grid

    @property
    def L(self) -> int:
        return self.chain.length


def _open_Z(L: int, f: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Diagonals of Z Z^T for an open chain (tridiagonal) as (diag, offdiag)."""
    d = np.full(L, 4 * (f * f + b * b))
    d[0] = 4 * f * f
    e = np.full(L - 1, -4 * f * b)
    return d, e


def _apply_Zt_open(U: np.ndarray, f: float, b: float) -> np.ndarray:
    """Z^T @ U for the open-chain Z (bidiagonal), without forming Z."""
    out = 2 * f * U
    out[:-1] -= 2 * b * U[1:]
    return out


def _orthogonality_deviation(G: np.ndarray) -> float:
    """``max |G G^T - 1|`` over all entries, from the upper triangle alone.

    ``dsyrk`` fills only the upper triangle of the symmetric product (half
    the flops of ``G @ G.T``) and leaves zeros below it, which cannot raise
    the maximum.
    """
    C = scipy.linalg.blas.dsyrk(1.0, G.T, trans=1)
    C[np.diag_indices(G.shape[0])] -= 1.0
    return float(max(C.max(), -C.min()))


def bdg_solve(chain: TFIMChainSpec, corr_size: int | None = None) -> BdGSolution:
    """Solve one chain: mode energies and ground-state Majorana correlator.

    ``corr_size`` affects open chains only: ``0`` skips the correlator
    (energies only), ``m`` materializes the leading block ``G[:m, :m]`` and
    ``None`` the full matrix.  A ring always stores one correlator row, an
    FFT on the grid of its even spin-parity block (:func:`ring_block`) for
    that block's lowest state; its ground energy is the lower of the two
    blocks' lowest levels.
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
        d, e = _open_Z(L, f, b)
        _, U = scipy.linalg.eigh_tridiagonal(d, e)
        V = _apply_Zt_open(U, f, b)
        # measure each mode energy as ||Z^T u_k||: unlike sqrt of the
        # tridiagonal eigenvalue (absolute error ~ eps * lam_max, i.e. a large
        # RELATIVE error for small modes), the directly computed norm is
        # accurate to ~machine eps relative, which keeps small-but-real edge
        # modes and the orthogonality of G at full precision
        eps = np.linalg.norm(V, axis=0)
        small = eps < _sv_noise_floor(L, float(eps.max()))
        eps = np.where(small, 0.0, eps)
        V /= np.where(small, 1.0, eps)
        if small.any():
            # near-null modes: analytic edge vectors (right null of Z decays
            # from the last site, left null from the first) paired so that
            # u^T Z v >= 0; a zero mode needs f < b, so b > 0 here
            g = f / b
            jj = np.arange(L)
            with np.errstate(under="ignore"):
                v0 = np.power(g, (L - 1 - jj).astype(float)) if g > 0 else (jj == L - 1).astype(float)
                u0 = np.power(g, jj.astype(float)) if g > 0 else (jj == 0).astype(float)
            v0 /= np.linalg.norm(v0)
            u0 /= np.linalg.norm(u0)
            for idx in np.nonzero(small)[0]:
                U[:, idx] = u0
                sv = float(v0 @ _apply_Zt_open(u0[:, None], f, b)[:, 0])  # = u0^T Z v0
                V[:, idx] = v0 if sv >= 0 else -v0
        suspect = (~small) & (eps < 1e-4 * float(eps.max()))
        for idx in np.nonzero(suspect)[0]:
            # a mode far below the top of the band keeps an amplified share
            # of the eigenvector noise after the 1/eps normalization; its
            # true direction is fixed by orthogonality to the (accurate)
            # rest of the frame, so project that out and renormalize
            others = np.ones(L, dtype=bool)
            others[idx] = False
            w = V[:, idx] - V[:, others] @ (V[:, others].T @ V[:, idx])
            V[:, idx] = w / np.linalg.norm(w)
        if corr_size == 0:
            return BdGSolution(
                chain=chain,
                energies=np.sort(eps),
                ground_energy=-0.5 * float(eps.sum()),
            )
        G = V @ U.T
        dev = _orthogonality_deviation(G)
        if dev > 1e-8:
            raise NumericalFailure(
                f"Majorana correlator lost orthogonality (deviation {dev:.2e})"
            )
        if corr_size is not None:
            G = np.ascontiguousarray(G[:corr_size, :corr_size])
        return BdGSolution(
            chain=chain,
            energies=np.sort(eps),
            ground_energy=-0.5 * float(eps.sum()),
            _G=G,
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


def _check_pair(sol: BdGSolution, i: int, j: int) -> None:
    if sol.chain.boundary is ChainBoundary.PERIODIC_CHAIN:
        if not (1 <= i < j and j - i < sol.L):
            raise IndexOutOfRange(
                f"need 1 <= i < j with j - i < L = {sol.L}, got ({i}, {j})"
            )
        return
    if not (1 <= i < j <= sol.L):
        raise IndexOutOfRange(f"need 1 <= i < j <= L = {sol.L}, got ({i}, {j})")


def magnetization_x(sol: BdGSolution, i: int) -> float:
    """``<tx_i>`` (1-based site)."""
    if not 1 <= i <= sol.L:
        raise IndexOutOfRange(f"site {i} outside 1..{sol.L}")
    return float(_toeplitz_from(sol, [i - 1], [i - 1])[0, 0])


def zz_correlator(sol: BdGSolution, i: int, j: int) -> float:
    """``<tz_i tz_j>`` (1-based, i < j) via the r x r Wick determinant.

    ``tz_i tz_j = prod_{m=i}^{j-1} (-B_m A_{m+1})``, so the value is
    ``(-1)^r det[ G(i-1+a, i+b) ]_{a,b=0..r-1}`` with ``r = j - i``.  For
    periodic chains this is the expectation in the even block's lowest
    state, exact as long as the string does not wrap (i.e. for the shorter
    of the two arcs).
    """
    _check_pair(sol, i, j)
    r = j - i
    rows = [i - 1 + a for a in range(r)]
    cols = [i + b for b in range(r)]
    T = _toeplitz_from(sol, rows, cols)
    sign, logdet = np.linalg.slogdet(T)
    return 0.0 if sign == 0 else float((-1) ** r * sign * math.exp(logdet))


def xx_correlator(sol: BdGSolution, i: int, j: int) -> float:
    """``<tx_i tx_j>`` (1-based, i < j): two-contraction Wick formula."""
    _check_pair(sol, i, j)
    T = _toeplitz_from(sol, [i - 1, j - 1], [i - 1, j - 1])
    return float(T[0, 0] * T[1, 1] - T[0, 1] * T[1, 0])


def disorder_parameter(sol: BdGSolution, r: int, start: int = 1) -> float:
    """``<prod_{j=start..start+r-1} tx_j>``: an r x r block determinant of G.

    The default segment is anchored at the first site.  For periodic chains
    positions past ``L`` wrap (with the grid's boundary sign), so any window
    of ``r <= L`` sites is allowed; ``r = L`` is the spin-flip parity.
    """
    if r < 1 or r > sol.L or (sol.chain.boundary is ChainBoundary.OPEN_CHAIN
                              and not 1 <= start <= start + r - 1 <= sol.L):
        raise IndexOutOfRange(f"segment [{start}, {start + r - 1}] outside 1..{sol.L}")
    rows = list(range(start - 1, start - 1 + r))
    T = _toeplitz_from(sol, rows, rows)
    sign, logdet = np.linalg.slogdet(T)
    return float(0.0 if sign == 0 else sign * math.exp(logdet))
