"""Oracles that only the tests call: the Pauli commutation test, a Pauli
string applied on the full space, the loop operators, the operator image under
the duality, the many-body level lists of a free-fermion chain and its dense
levels and ground-state expectation values.

No run of the package needs them; each one checks a package result against
an independent reading of the same physics.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

from plaqising.duality import DualModel, _site_image
from plaqising.ed import (
    DEGENERACY_TOL,
    LANCZOS_MAX_SPINS,
    _pauli_kernel,
    dense_matrix_from_terms,
    gap_from_levels,
)
from plaqising.errors import InvalidSpec, NotMappable, TooLarge
from plaqising.freefermion import TFIMChainSpec, bdg_solve, chain_terms, ring_block
from plaqising.lattice import (
    ChainBoundary,
    LatticeSpec,
    enumerate_plaquettes,
    plaquette_chain_position,
    plaquette_operator,
    site_diagonals,
)
from plaqising.pauli import PauliString


# ----------------------------------------------------------------------
# Pauli strings and lattice loops
# ----------------------------------------------------------------------
def commutes_with(a: PauliString, b: PauliString) -> bool:
    """True iff the two strings commute (they always either commute
    or anticommute)."""
    return ((a.x & b.z) ^ (a.z & b.x)).bit_count() % 2 == 0


def apply_pauli_string(ps: PauliString, v: np.ndarray) -> np.ndarray:
    """``P v`` on all ``2^n`` labels (new array, input untouched): the
    full-space reading that ``ed.expectation`` restricts to the labels where
    ``v`` is nonzero."""
    v = np.asarray(v)
    perm, signs, pref = _pauli_kernel(np.arange(v.shape[0], dtype=np.uint64), ps)
    return pref * (signs * v)[perm.astype(np.intp)]


def diagonal_loop_operator(spec: LatticeSpec, which: int) -> PauliString:
    """sx product over the site family ``site_diagonals(spec)[which]`` (a
    conserved loop/line)."""
    diags = site_diagonals(spec)
    if not 0 <= which < len(diags):
        raise InvalidSpec(f"diagonal {which} outside 0..{len(diags) - 1}")
    return PauliString(tuple((s, "X") for s in diags[which]))


# ----------------------------------------------------------------------
# operator mapping on the generated algebra
# ----------------------------------------------------------------------
def _xor_solve(vectors: list[int], target: int) -> list[int] | None:
    """Indices of ``vectors`` whose XOR is ``target``, or ``None``.

    The vectors enter an XOR basis in order, so only the earliest independent
    ones are used, and on them the combination is unique.
    """
    basis: dict[int, tuple[int, int]] = {}   # leading bit -> (vector, indices)

    def reduce(v: int, used: int) -> tuple[int, int]:
        while v and (v.bit_length() - 1) in basis:
            bv, bused = basis[v.bit_length() - 1]
            v, used = v ^ bv, used ^ bused
        return v, used

    for i, v in enumerate(vectors):
        v, used = reduce(v, 1 << i)
        if v:
            basis[v.bit_length() - 1] = (v, used)
    rest, used = reduce(target, 0)
    return None if rest else [i for i in range(len(vectors)) if used >> i & 1]


def dual_site_offsets(model: DualModel) -> tuple[list[int], dict[int, int]]:
    """Chain position offsets in the concatenated dual register, and the
    coordinate assigned to each free 2D site, a site whose ``sx`` touches no
    plaquette (empty :func:`_site_image`), appended after all chains."""
    *offsets, end = accumulate((sp.length for sp in model.chains), initial=0)
    spec = model.lattice
    free = [s for s in range(spec.n_sites) if not _site_image(spec, s)]
    return offsets, {s: end + i for i, s in enumerate(free)}


def map_operator(model: DualModel, ps) -> "PauliString":
    """Image of a 2D Pauli string under the duality.

    Defined on the algebra generated by the plaquette operators and the
    single-site ``sx``; anything outside it raises :class:`NotMappable`.
    The image acts on the concatenated chain register (chain 0 positions
    first, then chain 1, ..., then one coordinate per free site).  Note the
    conserved diagonal loops map to the identity: the plain dual copy is the
    all-``+1`` sector.

    The generators obey relations (the plaquette product along a closed chain
    equals a product of diagonal loops), so composite inputs are resolved
    only up to conserved chain parities; a generator itself always returns
    its defining image, and composites use a fixed elimination order.
    """
    spec = model.lattice
    n = spec.n_sites
    offsets, free_coord = dual_site_offsets(model)

    generators: list[PauliString] = []
    images: list[PauliString] = []
    # sx generators
    for s in range(n):
        generators.append(PauliString(((s, "X"),)))
        image = _site_image(spec, s)
        if image:
            images.append(PauliString(tuple((offsets[ci] + k, "Z") for ci, k in image)))
        else:
            images.append(PauliString(((free_coord[s], "X"),)))
    # plaquette generators
    for base in enumerate_plaquettes(spec):
        generators.append(plaquette_operator(spec, base))
        ci, k = plaquette_chain_position(spec, base)
        images.append(PauliString(((offsets[ci] + k, "X"),)))

    for gen, img in zip(generators, images):
        if (gen.x, gen.z) == (ps.x, ps.z):
            return img * PauliString(phase=ps.phase / gen.phase)

    # one int per string: its X/Y sites, then its Y/Z sites above them
    used = _xor_solve([gen.x | gen.z << n for gen in generators], ps.x | ps.z << n)
    if used is None:
        raise NotMappable("operator is outside the mapped algebra")
    prod2d = PauliString(())
    imgd = PauliString(())
    for gi in used:
        prod2d = prod2d * generators[gi]
        imgd = imgd * images[gi]
    # the generator product can differ from ps by a phase only, unless ps
    # reaches site n or beyond, where its int aliases a string on the lattice
    if (prod2d.x, prod2d.z) != (ps.x, ps.z):
        raise NotMappable("operator is outside the mapped algebra")
    return imgd * PauliString(phase=ps.phase / prod2d.phase)


# ----------------------------------------------------------------------
# many-body levels and gaps of one chain
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
# dense references for one chain
# ----------------------------------------------------------------------
def dense_levels(spec: TFIMChainSpec) -> np.ndarray:
    """Every level of the chain, from its dense ``2^L`` matrix."""
    H = dense_matrix_from_terms(spec.length, chain_terms(spec))
    return np.linalg.eigvalsh(H)


def dense_gs_expect(spec: TFIMChainSpec, ps: PauliString) -> float:
    """``<ps>`` in the lowest eigenvector of the chain's dense matrix."""
    H = dense_matrix_from_terms(spec.length, chain_terms(spec))
    _, vecs = np.linalg.eigh(H)
    gs = vecs[:, 0]
    M = dense_matrix_from_terms(spec.length, [(1.0, ps)])
    return float(gs @ M @ gs)
