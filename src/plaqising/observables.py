"""Non-local string observables and their two evaluation routes.

Two families of strings live on the anti-diagonals:

* ``sx`` strings: ``prod sx`` over ``n_steps + 1`` consecutive sites along
  ``+x - y``.  Every interior site maps to one Ising bond of a dual chain, so
  the product telescopes to a two-point ``tz tz`` correlator at separation
  ``n_steps + 1``.
* plaquette strings: ``prod F_p`` over consecutive plaquettes of one chain,
  which maps to ``prod tx`` - the dual disorder parameter.

Both can be evaluated directly on a 2D eigenstate (small lattices) or through
the free-fermion solution of the dual chain (any size, torus only: dual
strings on an open lattice are not implemented and raise ``NotMappable``).
A dual string is one Majorana monomial on one ring, read by the one Wick
reader of :mod:`plaqising.freefermion` (a whole loop gives its label, exactly
+1).  Both routes check a string's length before any solve.  A dual cache
holds one point: a model cached at other couplings or on another lattice
raises ``InvalidSpec``.  On the direct route a sweep shares one loop-sector
block (labels and flip row maps) between its points through
:func:`ground_state_for_measurement`'s ``_cache``.
The direct route measures in one loop sector: the Hamiltonian is solved
only on the states with a fixed eigenvalue of every conserved diagonal loop
(all ``+1`` by default), which after a Hadamard on every spin is a fixed bit
parity per site diagonal; the state stays in that frame, and each string is
rotated into it.  The degenerate endpoint cases (``h = 0`` topological
multiplet, ``g = 0`` free spins) thus measure in the all-``+1`` sector
deterministically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .duality import _site_image, map_hamiltonian
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


def _check_wrap(spec: LatticeSpec, r: int, what: str) -> None:
    """The length rule of both routes: a string covers at least one site or
    plaquette (else :class:`InvalidSpec`) and on a torus at most one diagonal
    loop, ``ell = lcm(N, M)`` (else :class:`NotMappable`)."""
    if r < 1:
        raise InvalidSpec(f"{what} is empty")
    if spec.boundary is Boundary.PERIODIC:
        ell = math.lcm(spec.rows, spec.cols)
        if r > ell:
            raise NotMappable(f"{what} exceeds the ring length {ell}")


# ----------------------------------------------------------------------
# direct (2D exact-diagonalization) route
# ----------------------------------------------------------------------
def ground_state_for_measurement(
    hs: HamiltonianSpec, sector: tuple[int, ...] | None = None,
    _cache: dict | None = None,
) -> tuple[np.ndarray, float]:
    """``(state, energy)`` of the lowest level of one loop sector, the state
    in the Hadamard frame it was solved in (the block eigenvector scattered
    onto its rotated labels): measure a string ``P`` as
    ``expectation(state, P.hadamard())``.

    ``sector`` gives the eigenvalue ``w_b = +-1`` of each conserved diagonal
    loop ``W_b`` (default all ``+1``, the sector of the global ground state).
    Where sectors are degenerate (topological multiplets at ``h = 0``, free
    spins at ``g = 0``) the label alone picks the state.

    ``_cache`` (one per sweep) keeps the sector's labels and flip row maps
    between calls, as ``blocks`` of :func:`~plaqising.ed.parity_block`; each
    call compiles its own weights, and its operator is freed on return.
    """
    if sector is None:
        sector = (1,) * len(site_diagonals(hs.lattice))
    op = sector_operator(hs, sector, _cache)
    res = operator_ground_spectrum(op, k=1, want_vectors=True)
    state = np.zeros(1 << hs.n_spins)
    state[op.basis] = res.eigenvectors[:, 0]
    return state, res.ground_energy


def sx_string_expectation_ed(
    hs: HamiltonianSpec, seg: DiagonalSegment, state: np.ndarray | None = None
) -> float:
    """``<prod sx>`` on a 2D eigenstate (ground sector by default)."""
    r = seg.n_steps + 1
    _check_wrap(hs.lattice, r, f"segment of {r} sites")
    ps = sx_string(hs.lattice, seg)
    if state is None:
        state, _ = ground_state_for_measurement(hs)
    return expectation(state, ps.hadamard()).real


def plaquette_string_expectation_ed(
    hs: HamiltonianSpec,
    start_row: int,
    start_col: int,
    r: int,
    state: np.ndarray | None = None,
) -> float:
    """``<prod F>`` on a 2D eigenstate (ground sector by default)."""
    _check_wrap(hs.lattice, r, f"string of {r} plaquettes")
    ps = plaquette_string(hs.lattice, start_row, start_col, r)
    if state is None:
        state, _ = ground_state_for_measurement(hs)
    return expectation(state, ps.hadamard()).real


# ----------------------------------------------------------------------
# dual (free-fermion) route, torus only
# ----------------------------------------------------------------------
def _check_dual(hs: HamiltonianSpec, r: int, what: str) -> None:
    """Torus and length check of both dual strings, before any solve."""
    if hs.lattice.boundary is not Boundary.PERIODIC:
        raise NotMappable("dual string evaluation needs the torus chains")
    _check_wrap(hs.lattice, r, what)


def _ring_solution(hs: HamiltonianSpec, ci: int, cache: dict | None = None) -> BdGSolution:
    """Dual ring ``ci`` of ``hs``; the model and each ring are built once per
    ``cache`` (one sweep point).  A sweep may seed ``cache["model"]`` with
    its one map at this point's couplings (:meth:`DualModel.at`); a model of
    another lattice or other couplings raises :class:`InvalidSpec`."""
    cache = {} if cache is None else cache
    if "model" not in cache:
        cache["model"] = map_hamiltonian(hs)
    model = cache["model"]
    if (model.lattice, model.g, model.h) != (hs.lattice, hs.g, hs.h):
        raise InvalidSpec(f"the cached dual model is at (g, h) = ({model.g}, {model.h})"
                          f" on {model.lattice}, not ({hs.g}, {hs.h}) on {hs.lattice}")
    if ci not in cache:
        cache[ci] = bdg_solve(model.chains[ci])
    return cache[ci]


def sx_string_expectation_dual(
    hs: HamiltonianSpec, seg: DiagonalSegment, _cache: dict | None = None
) -> float:
    """Ground-sector ``<prod sx>`` via the dual ``tz tz`` correlator.

    Torus only: the telescoped image is ``tz_k tz_{k + n_steps + 1}`` on one
    ring, evaluated in the even block's lowest state (= the 2D ground
    sector).  The first site ``(r, c)`` is the bond between the plaquettes
    based at ``(r, c - 1)`` and ``(r - 1, c)``, which sit at consecutive
    positions ``k, k + 1`` of one ring; site ``m`` of the segment is then
    the bond ``(k + m, k + m + 1) mod ell``.  A segment of exactly ``ell``
    sites is the whole conserved loop, ``tz_k^2``, whose determinant is
    exactly +1; a longer one raises :class:`NotMappable`, as on the ED route.
    """
    r = seg.n_steps + 1
    _check_dual(hs, r, f"segment of {r} sites")
    spec = hs.lattice
    (ci, start), _ = _site_image(spec, spec.site_index(seg.start_row, seg.start_col))
    return zz_correlator(_ring_solution(hs, ci, _cache), start + 1, start + 1 + r)


def plaquette_string_expectation_dual(
    hs: HamiltonianSpec,
    start_row: int,
    start_col: int,
    r: int,
    _cache: dict | None = None,
) -> float:
    """Ground-sector ``<prod F>`` via the dual disorder determinant; a whole
    ring is the chain parity, exactly +1 in the ground sector."""
    _check_dual(hs, r, f"string of {r} plaquettes")
    spec = hs.lattice
    ci, k = plaquette_chain_position(spec, spec.site_index(start_row, start_col))
    return disorder_parameter(_ring_solution(hs, ci, _cache), r, start=k + 1)
