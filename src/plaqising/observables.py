"""Non-local string observables and their two evaluation routes.

Two families of strings live on the anti-diagonals:

* ``sx`` strings: ``prod sx`` over ``n_steps + 1`` consecutive sites along
  ``+x - y``.  Every interior site maps to one Ising bond of a dual chain, so
  the product telescopes to a two-point ``tz tz`` correlator at separation
  ``n_steps + 1``.
* plaquette strings: ``prod F_p`` over consecutive plaquettes of one chain,
  which maps to ``prod tx`` - the dual disorder parameter.

Both can be evaluated directly on a 2D eigenstate (small lattices) or through
the free-fermion solution of the dual chain (any size, torus only - the open
lattice's boundary fields break the quadratic form).  The direct route
measures in one loop sector: the Hamiltonian is solved only on the states
with a fixed eigenvalue of every conserved diagonal loop (all ``+1`` by
default), which after a Hadamard on every spin is a fixed bit parity per
site diagonal.  The degenerate endpoint cases (``h = 0`` topological
multiplet, ``g = 0`` free spins) thus measure in the all-``+1`` sector
deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .duality import DualModel, _site_image, map_hamiltonian
from .ed import (
    HamiltonianSpec,
    expectation,
    operator_ground_spectrum,
    sector_operator,
)
from .errors import InvalidSpec, NotMappable, SiteOutOfRange
from .freefermion import (
    BdGSolution,
    bdg_solve,
    disorder_parameter,
    zz_correlator,
)
from .lattice import (
    Boundary,
    LatticeSpec,
    plaquette_chain_position,
    plaquette_operator,
    site_diagonals,
)
from .pauli import PauliString

__all__ = [
    "DiagonalSegment",
    "segment_sites",
    "sx_string",
    "plaquette_string",
    "ground_state_for_measurement",
    "sx_string_expectation_ed",
    "plaquette_string_expectation_ed",
    "sx_string_expectation_dual",
    "plaquette_string_expectation_dual",
]


@dataclass(frozen=True)
class DiagonalSegment:
    """``n_steps`` hops along ``+x - y`` starting at ``(start_row, start_col)``:
    the segment covers ``n_steps + 1`` sites."""

    start_row: int
    start_col: int
    n_steps: int

    def __post_init__(self):
        if self.n_steps < 0:
            raise InvalidSpec("n_steps must be nonnegative")


def segment_sites(spec: LatticeSpec, seg: DiagonalSegment) -> tuple[int, ...]:
    """Site indices of the segment (wrapped on a torus)."""
    r, c = seg.start_row, seg.start_col
    out = []
    for _ in range(seg.n_steps + 1):
        if spec.boundary is Boundary.OPEN and not (
            0 <= r < spec.rows and 0 <= c < spec.cols
        ):
            raise SiteOutOfRange(f"segment leaves the open lattice at ({r},{c})")
        out.append(spec.site_index(r, c))
        r, c = r - 1, c + 1
    return tuple(out)


def sx_string(spec: LatticeSpec, seg: DiagonalSegment) -> PauliString:
    """``prod sx`` over the segment's sites."""
    return PauliString(tuple((s, "X") for s in segment_sites(spec, seg)))


def plaquette_string(
    spec: LatticeSpec, start_row: int, start_col: int, r: int
) -> PauliString:
    """``prod F_p`` over ``r`` consecutive plaquettes along ``+x - y``."""
    if r < 1:
        raise InvalidSpec("need at least one plaquette")
    ps = PauliString(())
    rr, cc = start_row, start_col
    for _ in range(r):
        if spec.boundary is Boundary.PERIODIC:
            rr, cc = rr % spec.rows, cc % spec.cols
        if not spec.plaquette_base_exists(rr, cc):
            raise SiteOutOfRange(f"no plaquette based at ({rr},{cc})")
        ps = ps * plaquette_operator(spec, rr * spec.cols + cc)
        rr, cc = rr - 1, cc + 1
    return ps


# ----------------------------------------------------------------------
# direct (2D exact-diagonalization) route
# ----------------------------------------------------------------------
def _hadamard_all(v: np.ndarray, n: int) -> np.ndarray:
    """``U v`` by ``n`` butterfly passes, one per spin (bit ``j`` of the label)."""
    r = np.sqrt(0.5)
    for j in range(n):
        v = v.reshape(-1, 2, 1 << j)
        v = np.stack(((v[:, 0] + v[:, 1]) * r, (v[:, 0] - v[:, 1]) * r), axis=1)
    return v.reshape(-1)


def ground_state_for_measurement(
    hs: HamiltonianSpec, sector: tuple[int, ...] | None = None
) -> tuple[np.ndarray, float]:
    """``(state, energy)`` of the lowest level of one loop sector, the state
    rotated back to a dense z-basis vector.

    ``sector`` gives the eigenvalue ``w_b = +-1`` of each conserved diagonal
    loop ``W_b`` (default all ``+1``, the sector of the global ground state).
    Where sectors are degenerate (topological multiplets at ``h = 0``, free
    spins at ``g = 0``) the label alone picks the state.
    """
    nd = len(site_diagonals(hs.lattice))
    if sector is None:
        sector = (1,) * nd
    if len(sector) != nd or any(x not in (1, -1) for x in sector):
        raise InvalidSpec(f"sector must be a +-1 tuple of length {nd}")
    op = sector_operator(hs, sector)
    res = operator_ground_spectrum(op, k=1, want_vectors=True)
    rotated = np.zeros(1 << hs.n_spins)
    rotated[op.basis] = res.eigenvectors[:, 0]
    return _hadamard_all(rotated, hs.n_spins), res.ground_energy


def sx_string_expectation_ed(
    hs: HamiltonianSpec, seg: DiagonalSegment, state: np.ndarray | None = None
) -> float:
    """``<prod sx>`` on a 2D eigenstate (ground sector by default)."""
    if state is None:
        state, _ = ground_state_for_measurement(hs)
    return expectation(state, sx_string(hs.lattice, seg)).real


def plaquette_string_expectation_ed(
    hs: HamiltonianSpec,
    start_row: int,
    start_col: int,
    r: int,
    state: np.ndarray | None = None,
) -> float:
    """``<prod F>`` on a 2D eigenstate (ground sector by default)."""
    if state is None:
        state, _ = ground_state_for_measurement(hs)
    return expectation(state, plaquette_string(hs.lattice, start_row, start_col, r)).real


# ----------------------------------------------------------------------
# dual (free-fermion) route, torus only
# ----------------------------------------------------------------------
def _dual_model(hs: HamiltonianSpec, cache: dict | None) -> DualModel:
    """The dual model of ``hs``, built once per ``cache`` (one sweep point)."""
    if cache is None:
        return map_hamiltonian(hs)
    if "model" not in cache:
        cache["model"] = map_hamiltonian(hs)
    return cache["model"]


def _dual_chain_solution(model: DualModel, ci: int, cache: dict | None = None) -> BdGSolution:
    if cache is not None and ci in cache:
        return cache[ci]
    sol = bdg_solve(model.chains[ci])
    if cache is not None:
        cache[ci] = sol
    return sol


def sx_string_expectation_dual(
    hs: HamiltonianSpec, seg: DiagonalSegment, _cache: dict | None = None
) -> float:
    """Ground-sector ``<prod sx>`` via the dual ``tz tz`` correlator.

    Torus only: the telescoped image is ``tz_k tz_{k + n_steps + 1}`` on one
    ring, evaluated in the even block's lowest state (= the 2D ground
    sector).  The first site ``(r, c)`` is the bond between the plaquettes
    based at ``(r, c - 1)`` and ``(r - 1, c)``, which sit at consecutive
    positions ``k, k + 1`` of one ring; site ``m`` of the segment is then
    the bond ``(k + m, k + m + 1) mod ell``.
    """
    if hs.lattice.boundary is not Boundary.PERIODIC:
        raise NotMappable("dual string evaluation needs the torus chains")
    model = _dual_model(hs, _cache)
    spec = hs.lattice
    first = spec.site_index(seg.start_row, seg.start_col)
    (ci, start), _ = _site_image(spec, first)
    ell = model.chains[ci].length
    r = seg.n_steps + 1
    if r >= ell:
        raise NotMappable(f"segment covers the whole ring (length {ell})")
    sol = _dual_chain_solution(model, ci, _cache)
    return zz_correlator(sol, start + 1, start + 1 + r)


def plaquette_string_expectation_dual(
    hs: HamiltonianSpec,
    start_row: int,
    start_col: int,
    r: int,
    _cache: dict | None = None,
) -> float:
    """Ground-sector ``<prod F>`` via the dual disorder determinant."""
    if hs.lattice.boundary is not Boundary.PERIODIC:
        raise NotMappable("dual string evaluation needs the torus chains")
    model = _dual_model(hs, _cache)
    spec = hs.lattice
    base = spec.site_index(start_row, start_col)
    ci, k = plaquette_chain_position(spec, base)
    ell = model.chains[ci].length
    if r > ell:
        raise NotMappable(f"string of {r} plaquettes exceeds the ring length {ell}")
    sol = _dual_chain_solution(model, ci, _cache)
    if r == ell:
        # whole-ring product: the chain parity, +1 in the ground sector
        return 1.0
    return disorder_parameter(sol, r, start=k + 1)
