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
arXiv:1101.3281).  Site permutations that map the terms and masks onto
themselves (:func:`_is_symmetry`) save work twice: the spectra solve one
loop sector per column-translation orbit (:func:`_sector_orbits`), and
reversal and the half-shift split a block into dense symmetry blocks filled
straight from its compiled operator (:func:`symmetry_blocks`); only a block
with no such symmetry is densified whole.  The half-shift may also come
times a ``prod sx`` gauge string, a signed permutation of the rotated
labels: it carries a ring's sign-twisted closing bond onto itself and
splits the block where it squares to one, i.e. in spin-flip parity +1.

Operator application is matrix-free: a Pauli string acts on the basis-state
integer labels by an XOR flip mask plus a popcount sign, vectorized over the
whole block.  Terms with one flip mask are merged when the operator compiles
(in the Hadamard frame every ``sx`` is diagonal), so a matvec is one diagonal
product plus one gather per distinct mask.  Blocks of up to
``DENSE_GROUND_STATES`` states are solved dense; larger ones by a Lanczos
recursion with full reorthogonalization and a deterministic start vector.
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
    LatticeSpec,
    enumerate_plaquettes,
    plaquette_operator,
    site_diagonals,
)
from .pauli import PauliString, sigma_x

DENSE_MAX_SPINS = 14       # full_spectrum budget
DENSE_GROUND_STATES = 512  # operator_ground_spectrum uses Lanczos above this
LANCZOS_MAX_SPINS = 20
DEGENERACY_TOL = 1e-8      # eigenvalues this close to E0 count as ground space
LANCZOS_RESIDUAL_TOL = 1e-10
_RITZ_EVERY = 4            # Lanczos iterations between Ritz checks
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


def apply_pauli_string(ps: PauliString, v: np.ndarray) -> np.ndarray:
    """Apply one Pauli string to a state vector (new array, input untouched)."""
    v = np.asarray(v)
    dim = v.shape[0]
    n = dim.bit_length() - 1
    if dim != 1 << n:
        raise DimensionMismatch(f"state length {dim} is not a power of two")
    if (ps.x | ps.z) >> n:
        raise SiteOutOfRange(
            f"operator touches site {(ps.x | ps.z).bit_length() - 1} "
            f"but the state has only {n} spins"
        )
    perm, signs, pref = _pauli_kernel(np.arange(dim, dtype=np.uint64), ps)
    if pref.imag == 0.0 and not np.iscomplexobj(v):
        pref = pref.real
    return pref * (signs * v)[perm.astype(np.intp)]


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
    on the block of all ``2^n`` labels, through the same compile.
    """

    def __init__(self, n: int, terms, basis: np.ndarray | None = None):
        if basis is None:
            if n > LANCZOS_MAX_SPINS:
                raise TooLarge(f"{n} spins exceeds the {LANCZOS_MAX_SPINS}-spin budget")
            basis = np.arange(1 << n, dtype=np.uint64)
        self.basis = basis
        self._compile(n, terms)

    def _compile(self, n: int, terms: list[tuple[float, PauliString]]) -> None:
        """Merge the terms on ``n`` spins over the rows of ``self.basis``."""
        ids = self.basis
        self.dim = len(ids)
        perms: dict[int, np.ndarray] = {}    # flip mask -> row reached from each row
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
            rows = np.searchsorted(ids, perm)
            if np.any(np.take(ids, rows, mode="clip") != perm):
                raise InvalidSpec("a term maps a basis label outside the basis")
            perms[flip], weights[flip] = rows, coeff * pref.real * signs
        perms.pop(0, None)
        self._diag = weights.pop(0, np.zeros(self.dim))
        self._gathers = [(perms[f], w[perms[f]]) for f, w in weights.items()]

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


def parity_block(n: int, terms, masks, signs) -> HamiltonianOperator:
    """``sum c P`` on the block where ``prod sx`` over the sites of each
    ``masks[i]`` is ``signs[i] = +-1``, in the Hadamard frame: row ``i`` is the
    rotated label ``op.basis[i]``.  A sign other than one ``+-1`` per mask,
    a mask outside the ``n`` sites or a term that breaks a block raises
    ``InvalidSpec``."""
    if n > LANCZOS_MAX_SPINS:
        raise TooLarge(f"{n} spins exceeds the {LANCZOS_MAX_SPINS}-spin budget")
    if len(signs) != len(masks) or any(s not in (1, -1) for s in signs):
        raise InvalidSpec(f"need one +-1 sign per mask, got {tuple(signs)}")
    if any(mask >> n for mask in masks):
        raise InvalidSpec(f"a mask has a site outside the {n} spins")
    labels = _parity_labels(n, masks, signs)
    return HamiltonianOperator(n, [(c, ps.hadamard()) for c, ps in terms], labels)


def _loop_masks(spec: LatticeSpec) -> list[int]:
    """Bit mask of each site diagonal: the sites of loop ``W_b``."""
    return [sum(1 << s for s in diag) for diag in site_diagonals(spec)]


def _sector_orbits(hs: HamiltonianSpec) -> list[tuple[tuple[int, ...], int]]:
    """``(representative, multiplicity)`` per orbit of the loop sectors under
    the column translation, which maps a sector onto an isospectral one where
    it is a symmetry of the terms and masks; elsewhere (open lattices) each
    sector stands alone.  Representatives come first in ``product`` order."""
    masks, m = _loop_masks(hs.lattice), hs.lattice.cols
    shift = [s - s % m + (s + 1) % m for s in range(hs.n_spins)]
    moved = _permute_bits(np.asarray(masks, dtype=np.uint64), shift).tolist()
    symmetric = _is_symmetry(shift, hamiltonian_terms(hs), masks, [1] * len(masks))
    rep: dict[tuple[int, ...], tuple[int, ...]] = {}
    for w in product((1, -1), repeat=len(masks)):
        v = w
        while v not in rep:
            rep[v] = w
            v = tuple(v[moved.index(mask)] for mask in masks) if symmetric else w
    return list(Counter(rep.values()).items())


def sector_operator(hs: HamiltonianSpec, sector: tuple[int, ...]) -> HamiltonianOperator:
    """``H`` on the loop sector ``W_b = sector[b]``, in the Hadamard frame:
    row ``i`` is the rotated label ``op.basis[i]``."""
    return parity_block(hs.n_spins, hamiltonian_terms(hs), _loop_masks(hs.lattice), sector)


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
    """
    dim = op.dim
    if max_iter is None:
        max_iter = min(dim, max(220, 24 * k))
    V = np.empty((max_iter, dim))
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
        V[m] = w / norm

    vecs = None
    if want_vectors:
        vecs = V[:m].T @ s[:, :k]
        vecs /= np.linalg.norm(vecs, axis=0)
    return theta[:k], vecs, {"method": "lanczos", "iterations": m, "injections": inject}


def ground_spectrum(hs: HamiltonianSpec, k: int = 2) -> SpectrumResult:
    """The sorted union of every loop-sector block's ``k`` lowest levels.

    One block per translation orbit is solved, its levels repeated once per
    sector of the orbit (:func:`_sector_orbits`; ``info`` lists 6
    ``"blocks"`` for 16 ``"sectors"`` on 4x4).  The union is not cut to
    ``k``: its gap needs from each block only the lowest level and, if that
    is in the ground band, the next, so ``k = 2`` gives the
    degeneracy-tolerant gap (cut to ``k``, a topological multiplet split by
    less than ``DEGENERACY_TOL`` would read as a gap of 0).  A Lanczos block
    may return a degenerate level once or more (4x4, ``g = h = 0.93``:
    sector ``(1, -1, -1, 1)`` gives its fourfold lowest level twice, its
    translates once), so only the lowest level and the gap are exact.
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
    """The ``k`` lowest levels of a precompiled operator (dense or Lanczos).

    Blocks of up to ``DENSE_GROUND_STATES`` (512) states are solved dense and
    return the lowest ``k`` eigenvalues with multiplicity.  Larger ones go to
    Lanczos, which returns the ``k`` lowest converged Ritz values: each is a
    level of the block, but a degenerate level may come back once or more
    (see :func:`_lanczos`).  The lowest level and the gap agree on both
    paths, and a ``k`` above the block returns every level on both.
    """
    if k < 1:
        raise InvalidSpec("k must be >= 1")
    if op.dim <= DENSE_GROUND_STATES:
        out = scipy.linalg.eigh(op.dense(), eigvals_only=not want_vectors)
        vals, vecs = (out[0][:k], out[1][:, :k]) if want_vectors else (out[:k], None)
        info = {"method": "dense"}
    else:
        vals, vecs, info = _lanczos(op, k, want_vectors)
    return SpectrumResult(np.asarray(vals), eigenvectors=vecs, info=info)


def full_spectrum(hs: HamiltonianSpec) -> SpectrumResult:
    """All 2^n eigenvalues (n <= 14), sorted, with multiplicity: a dense
    solve of one loop-sector block per translation orbit, split by its site
    symmetries (:func:`symmetry_blocks`), its levels repeated once per sector
    of the orbit.  ``info`` is laid out as in :func:`ground_spectrum`; each
    orbit's entry lists the ``"sizes"`` of the blocks it solved."""
    terms, masks = hamiltonian_terms(hs), _loop_masks(hs.lattice)
    levels, blocks = [], []
    for w, mult in _sector_orbits(hs):
        split = symmetry_blocks(hs.n_spins, terms, masks, w)
        levels.append(np.tile(np.concatenate(
            [scipy.linalg.eigh(H, eigvals_only=True) for H in split]), mult))
        blocks.append({"method": "dense", "sizes": [len(H) for H in split]})
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


def _is_symmetry(perm, terms, masks, signs, gauge: PauliString = PauliString()) -> bool:
    """Whether ``g = gauge * T``, ``T`` the site permutation ``j -> perm[j]``,
    maps the term list onto itself, coefficients included, and the set of
    ``(mask, sign)`` pairs onto itself.  The gauge is a ``prod sx`` string:
    it commutes with every mask and flips the sign of each moved term that
    it anticommutes with."""
    moved = Counter()
    for c, ps in terms:
        image = PauliString(tuple((perm[s], ax) for s, ax in ps.factors), ps.phase)
        moved[c if gauge.commutes_with(image) else -c, image] += 1
    image = _permute_bits(np.asarray(masks, dtype=np.uint64), perm).tolist()
    return moved == Counter(terms) and set(zip(image, signs)) == set(zip(masks, signs))


def symmetry_blocks(n: int, terms, masks=(), signs=()) -> list[np.ndarray]:
    """The :func:`dense_matrix_from_terms` block, split by the group ``G``
    generated by those of three candidates that are exact symmetries of the
    block (:func:`_is_symmetry`): reversal ``j -> n - 1 - j`` and, for even
    ``n``, the half-shift ``j -> j + n/2 mod n``, plain and times ``prod sx``
    over sites ``n/2 .. n-1``, which carries a sign-twisted closing bond
    onto itself.

    On the block's rows each candidate ``g`` is a signed permutation
    ``g |b> = s_g(b) |g b>``: the site permutation, then the gauge string
    (in the Hadamard frame a ``prod sx`` is the bit parity of ``b`` on its
    sites).  It joins ``G`` only where it squares to one and commutes with
    every element already in ``G``, both checked on the rows and signs, and
    not where it equals one of them (on 2 sites the half-shift is the
    reversal).  The gauged half-shift squares to the all-sites flip, so it
    splits a twisted ring's parity +1 block and is refused in the parity -1
    one.

    ``G`` is abelian and every element squares to one, so each real
    character ``chi`` gets one block on the orbit representatives ``a``
    (least rows; site permutations commute with the Hadamard frame) at which ``chi(g) s_g(a) = 1`` for every ``g`` of the
    stabilizer: ``B[a, b] = sqrt(|O_a| |O_b|) / |G| * sum_g chi(g) s_g(b)
    H[a, g b]``; with reversal alone, the even and odd halves.  The blocks
    hold every level of the block; without a symmetry the list is the one
    whole block.  Where a symmetry applies the whole block is never built:
    each ``B`` is summed from the compiled operator's diagonal and merged
    gathers at the representative rows (at most one entry per flip mask),
    the entry ``H[a, c]`` landing on ``b``, the representative of ``c = g
    b``, with weight ``chi(g) s_g(c) sqrt(|Stab_b| / |Stab_a|)``.
    """
    candidates = [([n - 1 - j for j in range(n)], PauliString())]
    if n % 2 == 0:
        shift = [(j + n // 2) % n for j in range(n)]
        upper = PauliString(tuple((j, "X") for j in range(n // 2, n)))
        candidates += [(shift, PauliString()), (shift, upper)]
    gens = [(perm, gauge) for perm, gauge in candidates
            if _is_symmetry(perm, terms, masks, signs, gauge)]
    if not gens:
        return [dense_matrix_from_terms(n, terms, masks, signs)]
    op = _dense_block(n, terms, masks, signs)
    orbit = np.arange(op.dim)[None]           # orbit[g, i]: the row g sends row i to
    sign = np.ones((1, op.dim))               # sign[g, i]: its sign s_g(i)
    for perm, gauge in gens:                  # bit i of g: generator i applied
        # the gauge in the block's frame: Hadamard for a parity block, z basis
        # for the whole space
        labels, s, _ = _pauli_kernel(_permute_bits(op.basis, perm),
                                     gauge.hadamard() if masks else gauge)
        row = np.searchsorted(op.basis, labels)
        # refuse g unless it squares to one, commutes with every element so
        # far and is none of them
        if (np.any(row[row] != orbit[0]) or np.any(s * s[row] < 0)
                or np.any(orbit[:, row] != row[orbit])
                or np.any(sign[:, row] * s != s[orbit] * sign)
                or np.any(np.all(orbit == row, axis=1) & np.all(sign == s, axis=1))):
            continue
        sign = np.concatenate([sign, s[orbit] * sign])
        orbit = np.concatenate([orbit, row[orbit]])
    # every g is an involution, so the g that sends a row to its
    # representative also sends the representative back to the row, with
    # the same sign
    rep_of, g_of = orbit.min(axis=0), orbit.argmin(axis=0)
    reps = np.flatnonzero(rep_of == np.arange(op.dim))
    fixed = orbit[:, reps] == reps            # g stabilizes representative a
    scale = 1.0 / np.sqrt(fixed.sum(axis=0))  # sqrt(|O_a| / |G|)
    group = np.arange(len(orbit))
    chi = 1.0 - 2.0 * (np.bitwise_count(group[:, None] & group) & 1)  # chi[t, g]
    keep = ~np.any(fixed & (chi[:, :, None] * sign[:, reps] < 0), axis=1)  # keep[t, a]
    # H[a, c] for each representative a: its diagonal, then one entry per gather
    cols = np.stack([reps] + [perm[reps] for perm, _ in op._gathers])
    vals = np.stack([op._diag[reps]] + [wp[reps] for _, wp in op._gathers])
    target = np.searchsorted(reps, rep_of[cols])
    vals *= scale / scale[target] * sign[g_of[cols], cols]
    blocks = []
    for t in group[keep.any(axis=1)]:
        pos, m = np.cumsum(keep[t]) - 1, int(keep[t].sum())
        live = keep[t] & keep[t][target]
        flat = (pos * m + pos[target])[live]
        weights = (vals * chi[t, g_of[cols]])[live]
        blocks.append(np.bincount(flat, weights, minlength=m * m).reshape(m, m))
    return blocks


def expectation(v: np.ndarray, ps: PauliString) -> complex:
    """``<v|P|v>`` for a normalized state."""
    w = apply_pauli_string(ps, v)
    return complex(np.vdot(v, w))
