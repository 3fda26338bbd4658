"""Square-lattice geometry, plaquette enumeration and anti-diagonal chains.

Conventions
-----------
* ``LatticeSpec(rows=N, cols=M, boundary)``; sites are indexed row-major,
  ``site = r * M + c`` with ``r`` in ``0..N-1``, ``c`` in ``0..M-1``.
* The unit steps are ``e_x = +1 column`` and ``e_y = +1 row``.
* A plaquette is its base site ``i``: its corners are
  ``(i, i+e_x, i+e_x+e_y, i+e_y)`` carrying the fixed axis pattern
  ``(X, Y, X, Y)``, and :func:`plaquette_operator` builds
  ``F_i = sx(i) sy(i+e_x) sx(i+e_x+e_y) sy(i+e_y)``.
* Chains run along the anti-diagonal direction ``e_x - e_y``
  (column +1, row -1): two plaquettes ``p`` and ``p + (e_x - e_y)`` are
  commutation-adjacent because the transverse operator at the shared site
  ``p + e_x`` anticommutes with both plaquette operators.  Chains hold
  plaquette base sites.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegenerateLattice, InvalidSpec, SiteOutOfRange
from .pauli import PauliString


class Boundary(Enum):
    OPEN = "Open"
    PERIODIC = "Periodic"


class ChainBoundary(Enum):
    OPEN_CHAIN = "OpenChain"
    PERIODIC_CHAIN = "PeriodicChain"


@dataclass(frozen=True)
class LatticeSpec:
    rows: int
    cols: int
    boundary: Boundary

    def __post_init__(self):
        if self.rows < 2 or self.cols < 2:
            raise InvalidSpec(
                f"lattice must be at least 2x2, got {self.rows}x{self.cols}"
            )
        if not isinstance(self.boundary, Boundary):
            raise InvalidSpec(f"boundary must be a Boundary, got {self.boundary!r}")

    @property
    def n_sites(self) -> int:
        return self.rows * self.cols

    def site_index(self, r: int, c: int) -> int:
        """Row-major site index; coordinates are wrapped when periodic."""
        if self.boundary is Boundary.PERIODIC:
            return (r % self.rows) * self.cols + (c % self.cols)
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise InvalidSpec(f"site ({r},{c}) outside open {self.rows}x{self.cols}")
        return r * self.cols + c

    def site_rc(self, i: int) -> tuple[int, int]:
        return divmod(i, self.cols)

    def plaquette_base_exists(self, r: int, c: int) -> bool:
        """Is there a plaquette whose base (lower-left in row/col terms) is (r,c)?"""
        if self.boundary is Boundary.PERIODIC:
            return 0 <= r < self.rows and 0 <= c < self.cols
        return 0 <= r < self.rows - 1 and 0 <= c < self.cols - 1


def enumerate_plaquettes(spec: LatticeSpec) -> list[int]:
    """Base sites of all plaquettes, ascending.

    Periodic lattices need N, M >= 3: on a torus two rows (or columns) wide
    the plaquettes based at ``(0, c)`` and ``(1, c)`` (or ``(r, 0)`` and
    ``(r, 1)``) would cover the same four sites.
    """
    n, m = spec.rows, spec.cols
    if spec.boundary is Boundary.PERIODIC:
        if n < 3 or m < 3:
            raise DegenerateLattice(
                f"periodic {n}x{m}: two plaquettes would cover the same four sites"
            )
        return list(range(n * m))
    return [r * m + c for r in range(n - 1) for c in range(m - 1)]


def plaquette_operator(spec: LatticeSpec, base: int) -> PauliString:
    """``F_p = sx(p) sy(p+e_x) sx(p+e_x+e_y) sy(p+e_y)`` for the plaquette
    based at site ``p = base``."""
    r, c = spec.site_rc(base)
    if not spec.plaquette_base_exists(r, c):
        raise SiteOutOfRange(f"no plaquette based at ({r},{c})")
    return PauliString(((base, "X"), (spec.site_index(r, c + 1), "Y"),
                        (spec.site_index(r + 1, c + 1), "X"),
                        (spec.site_index(r + 1, c), "Y")))


def chain_decompose(spec: LatticeSpec) -> tuple[tuple[int, ...], ...]:
    """Split the plaquettes into maximal chains of base sites along ``e_x - e_y``.

    ``chains[a]`` is the ordered tuple of plaquette base sites of chain ``a``;
    consecutive entries differ by one ``e_x - e_y`` step.  Both boundaries are
    closed forms.  Open lattices: chain ``a`` holds the bases with
    ``r + c == a``, from row ``min(a, N - 2)`` (the head, whose ``(r+1, c-1)``
    neighbour is off-lattice) down to row ``max(0, a - M + 2)``; these chains
    terminate.  Periodic lattices: chains are the wrapped diagonal orbits;
    there are ``d = gcd(N, M)`` of them, each of length ``l = lcm(N, M)``.
    Chain ``a < d`` starts at base ``(0, a)`` and its ``k``-th member is
    ``((-k) mod N, (a + k) mod M)``, computed as one ``(d, l)`` integer
    array.  Both forms list the chains by their smallest base site, which is
    diagonal order, and :func:`plaquette_chain_position` inverts them; the
    coverage check below verifies that they partition the plaquettes.
    """
    n, m = spec.rows, spec.cols
    if spec.boundary is Boundary.OPEN:
        chains = tuple(tuple(r * m + a - r
                             for r in range(min(a, n - 2), max(0, a - m + 2) - 1, -1))
                       for a in range(n + m - 3))
        bases = [b for chain in chains for b in chain]
    else:
        d = math.gcd(n, m)
        k = np.arange(n * m // d)
        bases = ((-k) % n) * m + (np.arange(d)[:, None] + k) % m
        chains = tuple(map(tuple, bases.tolist()))
    if not np.array_equal(np.sort(bases, axis=None), enumerate_plaquettes(spec)):
        raise InvalidSpec("chain decomposition did not cover every plaquette")
    return chains


def plaquette_chain_position(spec: LatticeSpec, base: int) -> tuple[int, int]:
    """``(chain, k)`` with ``chain_decompose(spec)[chain][k] == base``.

    Torus, ``d = gcd(N, M)``: the chain is ``a = (r + c) mod d`` and ``k``
    solves ``k = -r (mod N)``, ``a + k = c (mod M)``; with ``k = k0 + N t``,
    ``k0 = (-r) mod N``, that is ``N t = c - a - k0 (mod M)``, where
    ``c - a - k0`` is a multiple of ``d``.  Open lattice: chain ``r + c``,
    whose rows run down from its head in row ``min(r + c, N - 2)``.
    """
    r, c = spec.site_rc(base)
    if not spec.plaquette_base_exists(r, c):
        raise InvalidSpec(f"no plaquette based at site {base}")
    n, m = spec.rows, spec.cols
    if spec.boundary is Boundary.OPEN:
        return r + c, min(r + c, n - 2) - r
    d = math.gcd(n, m)
    a, k0 = (r + c) % d, (-r) % n
    t = (c - a - k0) // d * pow(n // d, -1, m // d) % (m // d)
    return a, k0 + n * t


def expected_chain_count(spec: LatticeSpec) -> dict[str, int]:
    """The two natural chain-count conventions for this lattice.

    ``plaquette_chains`` counts maximal plaquette chains (what
    :func:`chain_decompose` returns).  ``site_diagonals`` counts anti-diagonal
    site lines, which on open lattices exceeds the plaquette count by the two
    corner diagonals that carry no plaquette at all (their transverse spins
    decouple); both numbers circulate as "the" chain count, so both are
    reported.
    """
    n, m = spec.rows, spec.cols
    if spec.boundary is Boundary.PERIODIC:
        d = math.gcd(n, m)
        return {"plaquette_chains": d, "site_diagonals": d}
    return {"plaquette_chains": n + m - 3, "site_diagonals": n + m - 1}


def site_adjacent_plaquettes(spec: LatticeSpec, site: int) -> tuple[int, ...]:
    """Base sites of the plaquettes whose operators anticommute with sx(site).

    The plaquette operator based at ``p`` carries Y factors at ``p + e_x``
    and ``p + e_y``, so ``sx(j)`` anticommutes with it iff ``j`` is one of
    those two corners; equivalently the plaquettes are based at ``j - e_x``
    and ``j - e_y`` where those bases exist.
    """
    r, c = spec.site_rc(site)
    out = []
    for rr, cc in ((r, c - 1), (r - 1, c)):
        if spec.boundary is Boundary.PERIODIC:
            rr, cc = rr % spec.rows, cc % spec.cols
        if spec.plaquette_base_exists(rr, cc):
            out.append(spec.site_index(rr, cc))
    return tuple(out)


def site_diagonals(spec: LatticeSpec) -> list[tuple[int, ...]]:
    """Anti-diagonal site families (orbits of ``site -> site + e_x - e_y``).

    Open: the ``N + M - 1`` diagonals ``r + c = const`` ordered by that sum.
    Periodic: the ``gcd(N, M)`` wrapped orbits labelled by ``(r + c) mod gcd``.
    The product of sx over any one family commutes with every plaquette
    operator and every sx, so these label conserved sectors.
    """
    n, m = spec.rows, spec.cols
    count = expected_chain_count(spec)["site_diagonals"]
    diags: list[list[int]] = [[] for _ in range(count)]
    for r in range(n):
        for c in range(m):
            diags[(r + c) % count].append(r * m + c)  # wraps only on a torus
    return [tuple(d) for d in diags]
