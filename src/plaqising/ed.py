"""Exact diagonalization of Pauli-string Hamiltonians on up to 20 spins.

The Hamiltonian of the plaquette model is

    H = -g * sum_p F_p  -  h * sum_j sx_j        (g, h >= 0)

with ``F_p`` the four-corner plaquette string (see :mod:`plaqising.lattice`).
Both term families are real in the z basis (each plaquette string carries two
Y factors, so its prefactor is i^2 = -1 times a sign pattern), hence all
state vectors and spectra here are real float64.

Each diagonal loop ``W_b`` (``prod sx`` over a site diagonal) commutes with
``H``.  After a Hadamard on every spin a product of ``sx`` is a bit parity,
so a Z2 block is a list of labels closed under the rotated terms.
:func:`parity_block` builds both the ``2^d`` loop sectors of every 2D spectrum
and the spin-flip blocks of the dual chains (symmetry-block ED, Sandvik
arXiv:1101.3281).  Two symmetries save work.  On a torus the column
translation sends loop ``b`` to loop ``b + 1``, so the orbits are label
rotations: the spectra solve one loop sector per rotation class of its
label (:func:`_sector_orbits`); on an open lattice each sector stands alone.
One generator from the caller, a translation on a torus or ring and reversal
on an open lattice or chain, splits a block into its momentum blocks,
filled straight from its compiled operator (:func:`symmetry_blocks`).  The
generator may come times a ``prod sx`` gauge string, a signed permutation
of the rotated labels that carries a ring's sign-twisted closing bond
along; where its ``N``-th power is the sign -1 the momenta are half-odd.
A block without the symmetry, or of at most ``DENSE_WHOLE_STATES``
states, is densified whole.

Operator application is matrix-free: a Pauli string acts on the basis-state
integer labels by an XOR flip mask plus a popcount sign, vectorized over the
whole block.  Terms with one flip mask are merged when the operator compiles
(in the Hadamard frame every ``sx`` is diagonal), so a matvec is one diagonal
product plus one gather per distinct mask.  A flip's gather rows depend on
the block's labels only: the operators of one block may share its labels
and row maps (:func:`parity_block`'s ``blocks``), so a coupling sweep finds
them once and compiles only each point's weights.  Lanczos solves every
ground-state block: a recursion with full reorthogonalization and a
deterministic start vector.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import product

import numpy as np
import scipy.linalg

from .errors import (
    DimensionMismatch,
    InvalidSpec,
    NotConverged,
    SiteOutOfRange,
    TooLarge,
)
from .lattice import (
    Boundary,
    LatticeSpec,
    enumerate_plaquettes,
    plaquette_operator,
    site_diagonals,
)
from .pauli import PauliString, sigma_x

DENSE_MAX_SPINS = 14       # full_spectrum budget
DENSE_WHOLE_STATES = 128   # symmetry_blocks densifies blocks this small whole
LANCZOS_MAX_SPINS = 20
DEGENERACY_TOL = 1e-8      # eigenvalues this close to E0 count as ground space
LANCZOS_RESIDUAL_TOL = 1e-10
_RITZ_EVERY = 4            # Lanczos iterations between Ritz checks
_HUGEPAGE_BYTES = 1 << 22  # numpy advises huge pages for arrays from this size up
_SEED_NOISE = 1e-2         # relative amplitude of the deterministic seed noise
_SEED_STREAM = 0xA5EED


# ----------------------------------------------------------------------
# Hamiltonian terms
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class HamiltonianSpec:
    """Couplings of ``H = -g * sum F - h * sum sx`` on a lattice."""

    lattice: LatticeSpec
    g: float
    h: float

    def __post_init__(self):
        if not (math.isfinite(self.g) and math.isfinite(self.h)):
            raise InvalidSpec("couplings g, h must be finite")
        if self.g < 0 or self.h < 0:
            raise InvalidSpec("couplings g, h must be nonnegative magnitudes")
        if self.g + self.h == 0:
            raise InvalidSpec("g + h must be positive")

    @property
    def n_spins(self) -> int:
        return self.lattice.n_sites


def hamiltonian_terms(hs: HamiltonianSpec) -> list[tuple[float, PauliString]]:
    """``H = sum_k coeff_k * P_k`` with real coefficients and real strings."""
    terms: list[tuple[float, PauliString]] = []
    if hs.g != 0.0:
        for base in enumerate_plaquettes(hs.lattice):
            terms.append((-hs.g, plaquette_operator(hs.lattice, base)))
    if hs.h != 0.0:
        for j in range(hs.lattice.n_sites):
            terms.append((-hs.h, sigma_x(j)))
    return terms


# ----------------------------------------------------------------------
# matrix-free application
# ----------------------------------------------------------------------
def _pauli_kernel(ids: np.ndarray, ps: PauliString):
    """The one bit kernel: ``P |b> = pref * signs[b] |perm[b]>`` for ``b`` in ``ids``.

    With ``x`` and ``z`` the string's X/Y and Y/Z site masks,
    ``perm = ids ^ x`` and ``signs = (-1)^popcount(ids & z)``, and ``pref``
    is the phase times ``i`` per Y site (see :meth:`PauliString.masks`), so
    ``P v = pref * (signs * v)[perm]``.
    """
    x, z, pref = ps.masks()
    perm = ids ^ np.uint64(x)
    signs = 1.0 - 2.0 * (
        np.bitwise_count(ids & np.uint64(z)) & np.uint64(1)
    ).astype(np.float64)
    return perm, signs, pref


class HamiltonianOperator:
    """Precompiled matrix-free real Pauli-term sum on ``n`` spins, for matvecs.

    Terms that share a flip mask act on the same pairs of labels, so they are
    merged at compile time: the diagonal terms (flip mask 0, every ``sx`` in
    the Hadamard frame) into one weight vector ``diag``, and the others into
    one gather ``perm`` (XOR by the mask) with its weights ``wp`` already
    gathered, so one matvec is ``diag * v + sum wp * v[perm]`` — no complex
    arithmetic is ever needed for this model.  With a ``basis`` (a sorted
    array of basis-state labels closed under every term) the operator acts
    on that block only: row ``i`` is label ``basis[i]``; without one it acts
    on the block of all ``2^n`` labels, through the same compile.  A basis
    whose labels are not strictly increasing, or not all below ``2^n``,
    raises ``InvalidSpec`` before anything compiles.

    ``rows`` maps a flip mask to the row reached from each row of
    ``basis``.  The operators of one block may share it (see
    :func:`parity_block`): a flip's rows depend on the labels only, so each
    is computed, and checked to stay in the block, once, the first time a
    term with that flip compiles.
    """

    def __init__(self, n: int, terms, basis: np.ndarray | None = None,
                 rows: dict[int, np.ndarray] | None = None):
        if basis is None:
            if n > LANCZOS_MAX_SPINS:
                raise TooLarge(f"{n} spins exceeds the {LANCZOS_MAX_SPINS}-spin budget")
            basis = np.arange(1 << n, dtype=np.uint64)
        elif np.any(basis[1:] <= basis[:-1]):
            raise InvalidSpec("basis labels must be strictly increasing")
        elif len(basis) and int(basis[-1]) >> n:
            raise InvalidSpec(f"basis label {int(basis[-1])} is not below 2^{n}")
        self.basis = basis
        self._rows = {} if rows is None else rows
        self._compile(n, terms)

    def _compile(self, n: int, terms: list[tuple[float, PauliString]]) -> None:
        """Merge the terms on ``n`` spins over the rows of ``self.basis``."""
        ids, rows = self.basis, self._rows
        self.dim = len(ids)
        weights: dict[int, np.ndarray] = {}  # flip mask -> summed weight of each row
        for coeff, ps in terms:
            if (ps.x | ps.z) >> n:
                raise SiteOutOfRange(f"a term touches site {(ps.x | ps.z).bit_length() - 1}"
                                     f" of an operator on {n} spins")
            perm, signs, pref = _pauli_kernel(ids, ps)
            if pref.imag != 0.0:
                raise InvalidSpec("model terms must be real in the z basis")
            flip = ps.x
            if flip in weights:
                weights[flip] += coeff * pref.real * signs
                continue
            if flip and flip not in rows:  # flip 0 keeps every row
                row = np.searchsorted(ids, perm)
                if np.any(np.take(ids, row, mode="clip") != perm):
                    raise InvalidSpec("a term maps a basis label outside the basis")
                rows[flip] = row
            weights[flip] = coeff * pref.real * signs
        self._diag = weights.pop(0, np.zeros(self.dim))
        self._gathers = [(rows[f], w[rows[f]]) for f, w in weights.items()]

    def matvec(self, v: np.ndarray) -> np.ndarray:
        if v.shape[0] != self.dim:
            raise DimensionMismatch(
                f"state length {v.shape[0]} != operator dimension {self.dim}"
            )
        out = self._diag * v
        for perm, wp in self._gathers:
            out += wp * v[perm]
        return out

    def dense(self) -> np.ndarray:
        """Materialize H as a dense symmetric float64 matrix."""
        H = np.diag(self._diag)
        ids = np.arange(self.dim)
        for perm, wp in self._gathers:
            H[ids, perm] = wp
        return H


# ----------------------------------------------------------------------
# Z2 parity blocks
# ----------------------------------------------------------------------
def _parity_labels(n: int, masks, signs) -> np.ndarray:
    """Sorted labels ``b < 2^n`` with ``(-1)^popcount(b & mask) = sign`` for
    each pair; the ``2^n`` temporaries are freed before the block compiles."""
    labels = np.arange(1 << n, dtype=np.uint64)
    keep = np.ones(labels.shape, dtype=bool)
    for mask, sign in zip(masks, signs):
        odd = np.bitwise_count(labels & np.uint64(mask)) & np.uint64(1)
        keep &= odd == (sign == -1)
    return labels[keep]


def parity_block(n: int, terms, masks, signs,
                 blocks: dict | None = None) -> HamiltonianOperator:
    """``sum c P`` on the block where ``prod sx`` over the sites of each
    ``masks[i]`` is ``signs[i] = +-1``, in the Hadamard frame: row ``i`` is the
    rotated label ``op.basis[i]``.  A sign other than one ``+-1`` per mask,
    a mask outside the ``n`` sites or a term that breaks a block raises
    ``InvalidSpec``.

    ``blocks`` keeps, per ``(n, masks, signs)``, the block's labels and the
    row map of each flip it has compiled.  Every operator built through the
    same dict shares them, so a coupling sweep finds its labels once and
    only re-weights the terms; the weights are each operator's own, summed
    exactly as in a fresh compile."""
    if n > LANCZOS_MAX_SPINS:
        raise TooLarge(f"{n} spins exceeds the {LANCZOS_MAX_SPINS}-spin budget")
    if len(signs) != len(masks) or any(s not in (1, -1) for s in signs):
        raise InvalidSpec(f"need one +-1 sign per mask, got {tuple(signs)}")
    if any(mask >> n for mask in masks):
        raise InvalidSpec(f"a mask has a site outside the {n} spins")
    blocks = {} if blocks is None else blocks
    key = (n, tuple(masks), tuple(signs))
    if key not in blocks:
        blocks[key] = (_parity_labels(n, masks, signs), {})
    labels, rows = blocks[key]
    return HamiltonianOperator(n, [(c, ps.hadamard()) for c, ps in terms], labels, rows)


def _loop_masks(spec: LatticeSpec) -> list[int]:
    """Bit mask of each site diagonal: the sites of loop ``W_b``."""
    return [sum(1 << s for s in diag) for diag in site_diagonals(spec)]


def _sector_orbits(hs: HamiltonianSpec) -> list[tuple[tuple[int, ...], int]]:
    """``(representative, multiplicity)`` per orbit of the loop sectors under
    the column translation.  On a torus it sends loop ``b`` (sites with ``r +
    c = b mod d``) to loop ``b + 1`` and keeps every term, so the orbits are
    label rotations: the rotation class of ``w`` is isospectral.  On an open
    lattice each sector stands alone.  Representatives come first in
    ``product`` order."""
    d = len(site_diagonals(hs.lattice))
    turns = d if hs.lattice.boundary is Boundary.PERIODIC else 1
    rep: dict[tuple[int, ...], tuple[int, ...]] = {}
    for w in product((1, -1), repeat=d):
        for i in range(turns):
            rep.setdefault(w[i:] + w[:i], w)
    return list(Counter(rep.values()).items())


def sector_operator(hs: HamiltonianSpec, sector: tuple[int, ...],
                    blocks: dict | None = None) -> HamiltonianOperator:
    """``H`` on the loop sector ``W_b = sector[b]``, in the Hadamard frame:
    row ``i`` is the rotated label ``op.basis[i]``; ``blocks`` as in
    :func:`parity_block`."""
    return parity_block(hs.n_spins, hamiltonian_terms(hs), _loop_masks(hs.lattice),
                        sector, blocks)


# ----------------------------------------------------------------------
# spectra
# ----------------------------------------------------------------------
@dataclass
class SpectrumResult:
    eigenvalues: np.ndarray                 # sorted ascending
    ground_energy: float = field(init=False)
    gap: float = field(init=False)          # see gap_from_levels
    eigenvectors: np.ndarray | None = None  # columns match eigenvalues
    info: dict = field(default_factory=dict)

    def __post_init__(self):
        self.ground_energy = float(self.eigenvalues[0])
        self.gap = gap_from_levels(self.eigenvalues)


def gap_from_levels(levels: np.ndarray) -> float:
    """First level strictly above the ground band, minus E0.

    Levels within ``DEGENERACY_TOL`` of E0 belong to the (near-degenerate)
    ground space and do not count as the gap.  Returns 0.0 if every supplied
    level is in the band (caller should then ask for more levels).
    """
    levels = np.sort(np.asarray(levels, dtype=np.float64))
    e0 = levels[0]
    above = levels[levels > e0 + DEGENERACY_TOL]
    return float(above[0] - e0) if above.size else 0.0


def _lanczos_seed(dim: int) -> np.ndarray:
    """Deterministic start vector: uniform plus a small fixed-stream noise.

    Every loop is fixed inside a block, but lattice translations still act
    there: a uniform vector stays in one momentum sector and hides the levels
    of all others.  The fixed-stream noise breaks the lattice symmetry while
    keeping runs bit-reproducible.
    """
    rng = np.random.Generator(np.random.PCG64(_SEED_STREAM))
    v = np.ones(dim) + _SEED_NOISE * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _orthogonalized(w: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """``w`` with its components along the orthonormal rows of ``basis``
    removed in place: Gram-Schmidt twice, for float safety."""
    for _ in range(2):
        w -= basis.T @ (basis @ w)
    return w


def _lanczos(op: HamiltonianOperator, k: int, want_vectors: bool,
             max_iter: int | None = None):
    """The ``k`` lowest converged Ritz pairs of ``op``: Lanczos with full
    reorthogonalization from :func:`_lanczos_seed`; a degenerate level comes
    back once per copy that rounding let the Krylov space find.

    The one Ritz check (tridiagonal eigensolve plus the residual bound
    ``beta_m |s_mi|``) runs at ``m = k, k + _RITZ_EVERY, ...`` iterations,
    whenever the Krylov space closes from ``m = k`` on, and always at the
    last iteration.  A run therefore takes fewer than ``_RITZ_EVERY``
    iterations beyond convergence, and the returned pairs and the
    ``NotConverged`` diagnostics (at ``m = max_iter``) come from that check.
    If the space closes before ``k`` pairs exist, the run goes on from a
    deterministic fresh direction; when none is left, that is the last
    iteration and every level found is returned (so a ``k`` above the block
    gives them all).

    The Krylov basis starts with as many rows as stay under
    ``_HUGEPAGE_BYTES`` (127 on a 4096-state block) and doubles when full,
    up to ``max_iter``.  All ``max_iter = 220`` rows at once would be 7.2
    MB there, which numpy advises for huge pages: whether the ~30 rows a
    sweep point touches then cost one 2 MiB page more was left to the
    address the basis got.
    """
    dim = op.dim
    if max_iter is None:
        max_iter = min(dim, max(220, 24 * k))
    V = np.empty((min(max_iter, max(1, (_HUGEPAGE_BYTES - 1) // (8 * dim))), dim))
    alphas: list[float] = []
    betas: list[float] = []
    V[0] = _lanczos_seed(dim)
    inject = 0
    for j in range(max_iter):
        m = j + 1
        w = op.matvec(V[j])
        if j > 0:
            w -= betas[-1] * V[j - 1]
        alphas.append(float(V[j] @ w))
        w -= alphas[-1] * V[j]
        w = _orthogonalized(w, V[:m])
        beta = norm = float(np.linalg.norm(w))
        exhausted = beta < 1e-13
        last = m == max_iter
        if exhausted and m < k:
            # an invariant subspace closed before k pairs exist: go on from a
            # deterministic fresh direction orthogonal to everything so far
            inject += 1
            w = np.zeros(dim)
            w[(2654435761 * (j + inject)) % dim] = 1.0
            w = _orthogonalized(w, V[:m])
            beta, norm = 0.0, float(np.linalg.norm(w))
            last = last or norm < 1e-8  # the space is spent
        if last or (m >= k and ((m - k) % _RITZ_EVERY == 0 or exhausted)):
            theta, s = scipy.linalg.eigh_tridiagonal(np.array(alphas), np.array(betas))
            res = beta * np.abs(s[-1, :k])
            if np.all(res <= LANCZOS_RESIDUAL_TOL * np.maximum(1.0, np.abs(theta[:k]))):
                break
            if last:
                raise NotConverged(
                    f"Lanczos did not converge {k} eigenpairs in {m} iterations",
                    diagnostics={
                        "iterations": m,
                        "residuals": res.tolist(),
                        "ritz_values": theta[:k].tolist(),
                        "injections": inject,
                    },
                )
        betas.append(beta)
        if m == len(V):
            V = np.concatenate((V, np.empty((min(m, max_iter - m), dim))))
        V[m] = w / norm

    vecs = None
    if want_vectors:
        vecs = V[:m].T @ s[:, :k]
        vecs /= np.linalg.norm(vecs, axis=0)
    return theta[:k], vecs, {"method": "lanczos", "iterations": m, "injections": inject}


def ground_spectrum(hs: HamiltonianSpec, k: int = 2) -> SpectrumResult:
    """The sorted union of every loop-sector block's ``k`` lowest levels.

    Lanczos solves one block per orbit, and the orbits are label rotations
    on a torus (:func:`_sector_orbits`; ``info`` lists 6 ``"blocks"`` for
    16 ``"sectors"`` on 4x4).  Each block's levels are repeated once per
    sector of its orbit.  The union is not cut to ``k``: its gap needs from
    each block only the lowest level and, if that is in the ground band, the
    next, so ``k = 2`` gives the degeneracy-tolerant gap (cut to ``k``, a
    topological multiplet split by less than ``DEGENERACY_TOL`` would read
    as a gap of 0).  A block may return a degenerate level once or more
    (4x4, ``g = h = 0.93``: sector ``(1, -1, -1, 1)`` gives its fourfold
    lowest level twice, its translates once), so only the lowest level and
    the gap are exact.
    """
    orbits = _sector_orbits(hs)
    parts = [operator_ground_spectrum(op, k)
             for op in (sector_operator(hs, w) for w, _ in orbits)]
    vals = np.sort(np.concatenate([np.tile(r.eigenvalues, mult)
                                   for r, (_, mult) in zip(parts, orbits)]))
    return SpectrumResult(vals, info={"blocks": [r.info for r in parts],
                                      "sectors": sum(mult for _, mult in orbits)})


def operator_ground_spectrum(
    op: HamiltonianOperator, k: int = 2, want_vectors: bool = False
) -> SpectrumResult:
    """The ``k`` lowest levels of a precompiled operator: Lanczos for every
    ground-state block, whatever its size.

    They are the ``k`` lowest converged Ritz values of :func:`_lanczos`:
    each is a level of the block, but a degenerate level may come back once
    or more, so the lowest level and the gap are exact.  A ``k`` above the
    block returns every level.
    """
    if k < 1:
        raise InvalidSpec("k must be >= 1")
    vals, vecs, info = _lanczos(op, k, want_vectors)
    return SpectrumResult(np.asarray(vals), eigenvectors=vecs, info=info)


def full_spectrum(hs: HamiltonianSpec) -> SpectrumResult:
    """All 2^n eigenvalues (n <= 14), sorted, with multiplicity: a dense
    solve of one loop-sector block per translation orbit, split into its
    momentum blocks (:func:`symmetry_blocks`), its levels repeated once per
    sector of the orbit.  The generator is the diagonal step ``(r, c) -> (r
    - 1, c + 1)`` on a torus, which keeps every loop (order ``lcm(N, M)``:
    12 on 4x3 and 3x4), and reversal on an open lattice.  ``info`` is laid
    out as in :func:`ground_spectrum`; each orbit's entry lists the
    ``"sizes"`` of the blocks it solved, each once per multiplicity, so they
    sum to the sector's states."""
    terms, masks = hamiltonian_terms(hs), _loop_masks(hs.lattice)
    n, rows, cols = hs.n_spins, hs.lattice.rows, hs.lattice.cols
    if hs.lattice.boundary is Boundary.PERIODIC:
        step = [(s // cols - 1) % rows * cols + (s + 1) % cols for s in range(n)]
    else:
        step = [n - 1 - s for s in range(n)]
    levels, blocks = [], []
    for w, mult in _sector_orbits(hs):
        sizes = []
        for H, k in symmetry_blocks(n, terms, masks, w, (step, 0)):
            levels.append(np.tile(scipy.linalg.eigh(H, eigvals_only=True), k * mult))
            sizes += [len(H)] * k
        blocks.append({"method": "dense", "sizes": sizes})
    return SpectrumResult(np.sort(np.concatenate(levels)),
                          info={"blocks": blocks, "sectors": 2 ** len(masks)})


def _dense_block(n: int, terms, masks, signs) -> HamiltonianOperator:
    """The compiled block that :func:`dense_matrix_from_terms` densifies;
    ``TooLarge`` above ``DENSE_MAX_SPINS`` and the label check of
    :func:`parity_block` (also for signs without masks) come before any
    allocation."""
    if n > DENSE_MAX_SPINS:
        raise TooLarge(f"{n} spins exceeds the {DENSE_MAX_SPINS}-spin dense budget")
    if masks or signs:
        return parity_block(n, terms, masks, signs)
    return HamiltonianOperator(n, terms)


def dense_matrix_from_terms(
    n: int, terms: list[tuple[float, PauliString]], masks=(), signs=()
) -> np.ndarray:
    """Dense matrix of a real Pauli-term sum (n <= 14 spins).

    With no ``masks`` it is the whole ``2^n`` space in the z basis; with
    them, the :func:`parity_block` that ``masks`` and ``signs`` select, in
    the Hadamard frame.  ``TooLarge``, and ``InvalidSpec`` for other than
    one sign per mask, come before any allocation.
    """
    return _dense_block(n, terms, masks, signs).dense()


def _permute_bits(labels: np.ndarray, perm) -> np.ndarray:
    """Each label with site ``j`` moved to site ``perm[j]``."""
    out = np.zeros_like(labels)
    for j, k in enumerate(perm):
        out |= ((labels >> np.uint64(j)) & np.uint64(1)) << np.uint64(k)
    return out


def _is_symmetry(perm, terms, masks, signs, gauge: int = 0) -> bool:
    """Whether ``g = gauge * T``, ``T`` the site permutation ``j -> perm[j]``,
    maps the term list onto itself, coefficients included, and the set of
    ``(mask, sign)`` pairs onto itself.  ``gauge`` is the site mask of a
    ``prod sx`` string: it commutes with every mask and flips the sign of
    each moved term with an odd number of Y or Z factors on its sites."""
    moved = Counter()
    for c, ps in terms:
        image = PauliString(tuple((perm[s], ax) for s, ax in ps.factors), ps.phase)
        moved[-c if (image.z & gauge).bit_count() % 2 else c, image] += 1
    image = _permute_bits(np.asarray(masks, dtype=np.uint64), perm).tolist()
    return moved == Counter(terms) and set(zip(image, signs)) == set(zip(masks, signs))


def symmetry_blocks(n, terms, masks, signs, generator) -> list[tuple[np.ndarray, int]]:
    """The :func:`dense_matrix_from_terms` block, split into ``(block,
    multiplicity)`` pairs by the cyclic group of one signed site permutation,
    the required ``generator = (perm, gauge)``: ``g = gauge * T``, ``T`` the site
    permutation ``j -> perm[j]``, ``gauge`` the site mask of a ``prod sx``
    string (a twisted ring's closing bond rides along with ``sx`` on one
    site).

    On the block's rows ``g |b> = s(b) |g b>`` (in the Hadamard frame the
    gauge is the bit parity of ``b`` on its sites).  ``g`` is used only where
    it is a symmetry of the block (:func:`_is_symmetry`) and its order ``N``
    on the rows gives ``g^N = sigma``, one sign on every row.  Its characters
    are the momenta ``theta = pi k / N`` with ``k = 2m + delta``, ``delta =
    0`` for ``sigma = +1`` and ``1`` for ``sigma = -1``.  A representative
    ``a`` (least row of its orbit) with period ``p`` and ``g^p |a> = sigma_a
    |a>`` lives at ``theta`` iff ``k p = N [sigma_a = -1] (mod 2N)``, and
    ``B[b, a] = sum_c H[c, a] t_c e^(-i theta l_c) sqrt(p_a / p_b)`` over the
    entries of row ``a``, where ``g^(l_c) |c> = t_c |b>``.  ``H`` is real, so
    ``theta`` and ``2 pi - theta`` share their levels: each pair is solved
    once with multiplicity 2; ``theta`` in ``{0, pi}`` gives a real block,
    the others complex Hermitian ones (Sandvik, arXiv:1101.3281).

    The pieces are summed from the compiled operator's diagonal and merged
    gathers at the representative rows, so the whole block is never built.
    It comes back whole, ``[(H, 1)]``, where ``g`` is no symmetry or
    ``g^N`` is no one sign, and at ``2^n / 2^len(masks) <=
    DENSE_WHOLE_STATES`` states, where splitting costs more than it saves.
    """
    if ((1 << n) >> len(masks) <= DENSE_WHOLE_STATES
            or not _is_symmetry(generator[0], terms, masks, signs, generator[1])):
        return [(dense_matrix_from_terms(n, terms, masks, signs), 1)]
    op = _dense_block(n, terms, masks, signs)
    # g in the block's frame: Hadamard for a parity block, z basis for the
    # whole space
    sites, gauge = generator
    sx = PauliString(tuple((j, "X") for j in range(n) if gauge >> j & 1))
    labels, s, _ = _pauli_kernel(_permute_bits(op.basis, sites),
                                 sx.hadamard() if masks else sx)
    row = np.searchsorted(op.basis, labels)
    # g^k |i> = sign[k, i] |orbit[k, i]>, up to the first k = N at which g^N
    # is diagonal
    orbit, sign = [np.arange(op.dim)], [np.ones(op.dim)]
    while len(orbit) == 1 or np.any(orbit[-1] != orbit[0]):
        sign.append(sign[-1] * s[orbit[-1]])
        orbit.append(row[orbit[-1]])
    orbit, sign, N = np.array(orbit), np.array(sign), len(orbit) - 1
    if np.any(sign[N] != sign[N, 0]):
        return [(op.dense(), 1)]
    delta = int(sign[N, 0] < 0)
    rep_of, steps = orbit.min(axis=0), orbit.argmin(axis=0)  # steps[c] = l_c
    reps = np.flatnonzero(rep_of == np.arange(op.dim))
    period = np.argmax(orbit[1:, reps] == reps, axis=0) + 1
    odd = sign[period, reps] < 0              # sigma_a = -1
    # H[c, a] for each representative a: its diagonal, then one entry per gather
    cols = np.stack([reps] + [perm[reps] for perm, _ in op._gathers])
    vals = np.stack([op._diag[reps]] + [wp[reps] for _, wp in op._gathers])
    target, shift = np.searchsorted(reps, rep_of[cols]), steps[cols]
    vals *= sign[shift, cols] * np.sqrt(period / period[target])
    roots = np.exp(-1j * np.pi / N * np.arange(2 * N))  # e^(-i pi j / N)
    blocks = []
    for k in range(delta, N + 1, 2):          # theta = pi k / N in [0, pi]
        keep = (k * period - N * odd) % (2 * N) == 0
        if not keep.any():
            continue
        pos, m = np.cumsum(keep) - 1, int(keep.sum())
        live = keep & keep[target]
        flat = (pos[target] * m + pos)[live]
        weights = (vals * roots[k * shift % (2 * N)])[live]
        B = np.bincount(flat, weights.real, minlength=m * m)
        if 0 < k < N:
            B = B + 1j * np.bincount(flat, weights.imag, minlength=m * m)
        blocks.append((B.reshape(m, m), 1 + (0 < k < N)))
    return blocks


def expectation(v: np.ndarray, ps: PauliString) -> complex:
    """``<v|P|v>`` for a normalized state, summed over the labels where ``v``
    is nonzero.

    With ``P |c> = pref * s(c) |c ^ x>`` (:func:`_pauli_kernel`),
    ``<v|P|v> = pref * sum_c conj(v[c ^ x]) * s(c) * v[c]``, and every term
    with ``v[c] = 0`` drops out.  A loop-sector state scattered onto ``2^n``
    labels is nonzero on at most one label in ``2^d``, so the sum runs over
    its sector only.  It is a NumPy reduction, not a BLAS dot, so no BLAS
    thread pool takes part and the value does not depend on the BLAS thread
    count.
    """
    v = np.asarray(v)
    if v.ndim != 1:
        raise DimensionMismatch(f"state has shape {v.shape}, not one vector")
    dim = v.shape[0]
    n = dim.bit_length() - 1
    if dim < 1 or dim != 1 << n:
        raise DimensionMismatch(f"state length {dim} is not a power of two")
    if (ps.x | ps.z) >> n:
        raise SiteOutOfRange(
            f"operator touches site {(ps.x | ps.z).bit_length() - 1} "
            f"but the state has only {n} spins"
        )
    ids = np.flatnonzero(v)
    perm, signs, pref = _pauli_kernel(ids.astype(np.uint64), ps)
    terms = np.conj(v[perm.astype(np.intp)]) * signs * v[ids]
    return complex(pref * terms.sum())
