"""Exact mapping between the 2D plaquette model and decoupled Ising chains.

The plaquette operators ``F_p`` along an anti-diagonal (step ``+x - y``)
form chains: ``F_p -> tx`` at the plaquette's chain position, and the field
``sx_j`` at a site adjacent to plaquettes ``j - x`` and ``j - y`` becomes the
Ising bond ``tz tz`` between their (consecutive) chain positions.  Boundary
sites with a single adjacent plaquette become single-``tz`` edge fields; the
two corner sites of an open lattice with no adjacent plaquette stay unmapped.

The map is one dual copy per symmetry sector.  The conserved diagonal
``prod sx`` loops ``W_b`` (one per site diagonal) have eigenvalues
``w_b = +-1``; the plain dual chains represent the all ``+1`` sector, and the
other sectors are obtained by

* periodic lattice (``d = gcd(rows, cols)`` loops): chain ``a`` (labelled by
  the diagonal of its plaquette bases mod ``d``) is restricted to spin-parity
  ``v_a = w_a * w_{(a+2) mod d}`` and its closing bond twisted by
  ``t_a = w_{(a+1) mod d}``;
* open lattice (one label per site diagonal): the product of the edge-field
  signs on the chain dual to diagonal ``b`` equals ``w_b``, and each free
  corner site contributes energy ``-h * w_b``.

The union over sectors reproduces the full 2D spectrum with multiplicity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import product as iproduct

import numpy as np

from .ed import (
    HamiltonianSpec,
    full_spectrum,
    gap_from_levels,
    symmetry_blocks,
)
from .errors import InvalidSpec, NotMappable
from .freefermion import TFIMChainSpec, chain_terms, ring_block
from .lattice import (
    Boundary,
    ChainBoundary,
    LatticeSpec,
    chain_decompose,
    plaquette_chain_position,
    site_adjacent_plaquettes,
)

__all__ = [
    "DualModel",
    "map_hamiltonian",
    "sector_chain_specs",
    "assemble_sector_spectrum",
    "duality_spectrum_check",
    "dual_lattice_gap",
]


@dataclass(frozen=True)
class DualModel:
    """The dual chains of one 2D model, plus the free corner sites of an
    open lattice.

    ``chains[a]`` is the spec of the chain on the plaquettes
    ``chain_decompose(lattice)[a]``, and
    :func:`~plaqising.lattice.plaquette_chain_position` gives a plaquette's
    chain and position.  Chain ``a`` is dual to site diagonal ``a`` on a
    torus (``(r + c) mod d`` of its plaquette bases) and to site diagonal
    ``a + 1`` on an open lattice (``r + c`` of its bond and edge sites).
    """

    lattice: LatticeSpec
    g: float
    h: float
    chains: tuple[TFIMChainSpec, ...]
    free_sites: tuple[int, ...]
    n_diagonals: int

    def at(self, g: float, h: float) -> DualModel:
        """The same map at the couplings ``(g, h)``: the lattice, free sites
        and edge-field signs depend on the lattice only, so each chain keeps
        them and takes ``field = g`` and ``bond = h``.  Equal to
        ``map_hamiltonian`` of that lattice at ``(g, h)``; each chain spec
        checks the couplings."""
        # a torus repeats one ring spec d times: each distinct spec once
        new = {sp: replace(sp, field=g, bond=h) for sp in set(self.chains)}
        return replace(self, g=g, h=h, chains=tuple(new[sp] for sp in self.chains))


def _site_image(spec: LatticeSpec, s: int) -> tuple[tuple[int, int], ...]:
    """``(chain, position)`` of each plaquette that ``sx_s`` anticommutes with.

    Empty for a free corner, one entry for an edge field ``tz``, two for an
    Ising bond ``tz tz``.  A bond's positions must be consecutive on one
    chain, across a ring's closing bond too, or the site is not mappable.
    """
    image = tuple(plaquette_chain_position(spec, b)
                  for b in site_adjacent_plaquettes(spec, s))
    if len(image) == 2:
        (c1, k1), (c2, k2) = image
        periodic = spec.boundary is Boundary.PERIODIC
        ring = math.lcm(spec.rows, spec.cols) if periodic else 0  # 0: no wrap
        if c1 != c2 or abs(k1 - k2) not in (1, ring - 1):
            raise NotMappable(
                f"site {s}: adjacent plaquettes not consecutive in one chain")
    return image


def map_hamiltonian(hs: HamiltonianSpec) -> DualModel:
    """Decompose the 2D model into its dual chains (all-``+1`` sector copy)."""
    spec = hs.lattice
    chains = chain_decompose(spec)

    if spec.boundary is Boundary.PERIODIC:
        d = math.gcd(spec.rows, spec.cols)
        if [sum(spec.site_rc(bases[0])) % d for bases in chains] != list(range(d)):
            raise InvalidSpec("chain/diagonal labelling is inconsistent")
        ring = TFIMChainSpec(len(chains[0]), ChainBoundary.PERIODIC_CHAIN, hs.g, hs.h)
        return DualModel(spec, hs.g, hs.h, (ring,) * d, (), d)

    # open lattice
    edge_fields: list[list[tuple[int, float]]] = [[] for _ in chains]
    free: list[int] = []
    for s in range(spec.n_sites):
        image = _site_image(spec, s)
        if not image:
            free.append(s)
        elif len(image) == 1:
            (ci, k), = image
            edge_fields[ci].append((k, 1.0))
    specs = tuple(TFIMChainSpec(len(bases), ChainBoundary.OPEN_CHAIN, hs.g, hs.h,
                                edge_fields=tuple(sorted(ef)))
                  for bases, ef in zip(chains, edge_fields))
    return DualModel(spec, hs.g, hs.h, specs, tuple(free),
                     spec.rows + spec.cols - 1)


# ----------------------------------------------------------------------
# sector-resolved spectra
# ----------------------------------------------------------------------
def _ring_sector(wa: int, wb: int, wc: int) -> tuple[int, int]:
    """``(twist, spin parity)`` of torus ring ``a`` in a sector whose labels
    read ``w_a, w_{a+1}, w_{a+2} = wa, wb, wc``: twist ``w_{a+1}``, parity
    ``w_a * w_{a+2}``."""
    return wb, wa * wc


def sector_chain_specs(model: DualModel, w: tuple[int, ...]):
    """Chain specs (and constraints) of one symmetry sector.

    Returns ``(specs, parities, free_energy)``: per-chain
    :class:`TFIMChainSpec` with the sector's twist/edge-sign flips applied,
    the per-chain spin-parity restriction (``0`` for none), and the additive
    energy of the free corner sites.
    """
    if len(w) != model.n_diagonals or any(x not in (1, -1) for x in w):
        raise InvalidSpec(f"sector label must be +-1^{model.n_diagonals}")
    specs: list[TFIMChainSpec] = []
    parities: list[int] = []
    if model.lattice.boundary is Boundary.PERIODIC:
        d = model.n_diagonals
        for a, sp in enumerate(model.chains):
            twist, parity = _ring_sector(w[a], w[(a + 1) % d], w[(a + 2) % d])
            specs.append(replace(sp, twist=twist))
            parities.append(parity)
        return tuple(specs), tuple(parities), 0.0

    free_energy = 0.0
    for s in model.free_sites:
        r, c = model.lattice.site_rc(s)
        free_energy += -model.h * w[r + c]
    for a, sp in enumerate(model.chains):
        if w[a + 1] == -1:  # chain a is dual to diagonal a + 1
            if not sp.edge_fields:
                raise InvalidSpec("open chain without edge fields cannot flip sector")
            ef = list(sp.edge_fields)
            ef[0] = (ef[0][0], -ef[0][1])
            sp = replace(sp, edge_fields=tuple(ef))
        specs.append(sp)
        parities.append(0)
    return tuple(specs), tuple(parities), free_energy


def _dense_chain_levels(sp: TFIMChainSpec, parity: int = 0) -> np.ndarray:
    """Exact levels of one chain, or of its spin-flip block ``prod tx = parity``.

    The flip is ``prod tx`` over all ``L`` sites, so a parity block is the
    ``parity_block`` of the single mask ``2^L - 1``, with ``2^(L-1)`` states;
    ``parity = 0`` takes the whole ``2^L`` space.  The block is solved in
    its momentum blocks (:func:`~plaqising.ed.symmetry_blocks`): on a ring
    the generator is the translation ``j -> j + 1``, times ``tx`` on site 0
    where the ring is twisted, which carries the twisted bond along; its
    ``L``-th power is the spin flip, so a twisted ring's ``parity = -1``
    block splits at half-odd momenta.  On an open chain it is reversal,
    which splits the chain where its edge fields are mirror images.
    ``TooLarge`` comes above the dense spin budget before anything is
    allocated.
    """
    L = sp.length
    masks, signs = (((1 << L) - 1,), (parity,)) if parity else ((), ())
    if sp.boundary is ChainBoundary.PERIODIC_CHAIN:
        step = ([(j + 1) % L for j in range(L)], 1 if sp.twist == -1 else 0)
    else:
        step = ([L - 1 - j for j in range(L)], 0)
    blocks = symmetry_blocks(L, chain_terms(sp), masks, signs, step)
    return np.sort(np.concatenate([np.tile(np.linalg.eigvalsh(H), k) for H, k in blocks]))


def _tensor_sum(parts: list[np.ndarray]) -> np.ndarray:
    vals = np.zeros(1)
    for p in parts:
        vals = (vals[:, None] + p[None, :]).ravel()
    return vals


def assemble_sector_spectrum(model: DualModel, w: tuple[int, ...]) -> np.ndarray:
    """All 2D levels of sector ``w`` from dense chain diagonalization."""
    specs, parities, free_e = sector_chain_specs(model, w)
    parts = [_dense_chain_levels(sp, par) for sp, par in zip(specs, parities)]
    return np.sort(_tensor_sum(parts) + free_e)


def full_dual_spectrum(model: DualModel) -> np.ndarray:
    """Union of all sector spectra: the exact 2D spectrum with multiplicity."""
    labels = list(iproduct((1, -1), repeat=model.n_diagonals))
    return np.sort(np.concatenate([assemble_sector_spectrum(model, w)
                                   for w in labels]))


# ----------------------------------------------------------------------
# the spectrum comparison report
# ----------------------------------------------------------------------
@dataclass
class DualityReport:
    lattice: LatticeSpec
    g: float
    h: float
    sector_resolved: bool
    n_levels_2d: int
    n_levels_dual: int
    max_deviation: float
    ground_energy_2d: float
    ground_energy_dual: float
    gap_2d: float
    gap_dual: float
    tol: float
    passed: bool
    notes: str = ""


def _distinct(values: np.ndarray, tol: float) -> np.ndarray:
    """Cluster sorted values whose neighbours differ by more than ``tol``."""
    v = np.sort(values)
    if v.size == 0:
        return v
    keep = [v[0]]
    for x in v[1:]:
        if x - keep[-1] > tol:
            keep.append(x)
    return np.array(keep)


def duality_spectrum_check(
    hs: HamiltonianSpec, tol: float = 1e-9, sector_resolved: bool = False
) -> DualityReport:
    """Compare the 2D spectrum against the dual-chain prediction.

    ``sector_resolved = False`` runs the naive comparison: distinct 2D
    eigenvalues against distinct values of the plain tensor sum of untwisted
    chain spectra (one dual copy).  That ignores the sector structure, and on
    a torus it genuinely disagrees beyond the ground level - the report then
    carries ``passed = False``.  ``sector_resolved = True`` assembles the
    union over symmetry sectors and compares the full spectra with
    multiplicity, which is an exact identity.
    """
    levels_2d = full_spectrum(hs).eigenvalues
    model = map_hamiltonian(hs)

    if sector_resolved:
        dual = full_dual_spectrum(model)
        n2, nd = len(levels_2d), len(dual)
        dev = float(np.abs(levels_2d - dual).max()) if n2 == nd else math.inf
        dual_sorted = dual
    else:
        parts = [_dense_chain_levels(sp) for sp in model.chains]
        for _ in model.free_sites:
            parts.append(np.array([-hs.h, hs.h]))
        dual_all = _tensor_sum(parts)
        d2d = _distinct(levels_2d, 0.5 * tol)
        ddu = _distinct(dual_all, 0.5 * tol)
        n2, nd = len(d2d), len(ddu)
        dev = float(np.abs(d2d - ddu).max()) if n2 == nd else math.inf
        dual_sorted = np.sort(dual_all)

    e0_2d = float(levels_2d[0])
    e0_du = float(dual_sorted[0])
    gap2 = gap_from_levels(levels_2d)
    gapd = gap_from_levels(dual_sorted)
    passed = (n2 == nd) and dev <= tol
    notes = ""
    if not sector_resolved:
        notes = (
            "plain tensor-sum comparison; conserved-loop sectors are ignored, "
            "so excited levels need not match on a torus"
        )
    return DualityReport(
        lattice=hs.lattice, g=hs.g, h=hs.h, sector_resolved=sector_resolved,
        n_levels_2d=n2, n_levels_dual=nd, max_deviation=dev,
        ground_energy_2d=e0_2d, ground_energy_dual=e0_du,
        gap_2d=gap2, gap_dual=gapd, tol=tol, passed=passed, notes=notes,
    )


# ----------------------------------------------------------------------
# scalable 2D gap on the torus
# ----------------------------------------------------------------------
def dual_lattice_gap(rows: int, cols: int, g: float, h: float) -> float:
    """Exact torus gap from the dual chains, for any lattice size.

    The torus has ``d = gcd(rows, cols)`` dual rings of one length; a sector
    puts each ring in a (twist, spin parity) block, whose lowest level comes
    from :func:`~plaqising.freefermion.ring_block`.  The gap is the cheapest of
    (a) a two-fermion excitation inside the ground sector (untwisted, even)
    and (b) the cheapest sector switch.  That is a closed min-plus walk of
    ``d`` steps over the states ``(w_a, w_{a+1}, flipped)``: the step to
    ``w_{a+2}`` costs ring ``a``'s block above the ground block, with the
    twist and parity of :func:`_ring_sector`, and ``flipped`` records
    whether any label is ``-1``.  The ``d``-step walk is the min-plus power
    ``T^d``, taken by repeated squaring: min-plus products are associative,
    so at most ``2 log2 d`` products of 8x8 matrices give the same walk.
    Away from ``g = h`` the sector splittings are exponentially small in the
    chain length - the reported gap is then the topological ground-space
    splitting, not a bulk gap.
    """
    # validates the sizes and the couplings (finite, nonnegative, not both 0)
    HamiltonianSpec(LatticeSpec(rows, cols, Boundary.PERIODIC), g, h)
    if min(rows, cols) < 3:
        raise InvalidSpec("periodic duality requires at least 3 rows and columns")
    if h == 0:  # ED gives 4g; bench/reference/dual_torus.json pins 2g at step 10
        return 2.0 * g
    d = math.gcd(rows, cols)
    ell = (rows * cols) // d
    blocks = {(w, p): ring_block(TFIMChainSpec(ell, ChainBoundary.PERIODIC_CHAIN,
                                              g, h, twist=w), p)
              for w, p in iproduct((1, -1), repeat=2)}
    delta = {wp: b.level - blocks[(1, 1)].level for wp, b in blocks.items()}
    eps = blocks[(1, 1)].eps
    pair = float(eps[0] + eps[1])

    states = list(iproduct((1, -1), (1, -1), (False, True)))
    index = {s: i for i, s in enumerate(states)}
    T = np.full((len(states), len(states)), np.inf)
    for wa, wb, flipped in states:
        for wc in (1, -1):
            T[index[(wa, wb, flipped)], index[(wb, wc, flipped or wc == -1)]] = \
                delta[_ring_sector(wa, wb, wc)]
    walk = T  # T^d by squaring, reading d's bits from the top
    for bit in bin(d)[3:]:
        walk = np.min(walk[:, :, None] + walk[None], axis=1)
        if bit == "1":
            walk = np.min(walk[:, :, None] + T[None], axis=1)
    switch = min(walk[index[(x, y, x == -1 or y == -1)], index[(x, y, True)]]
                 for x, y in iproduct((1, -1), repeat=2))
    return float(min(pair, switch))
