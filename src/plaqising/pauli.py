"""Pauli strings in the binary form of Aaronson & Gottesman (PRA 70, 052328).

Conventions
-----------
* Axes are the characters ``"X"``, ``"Y"``, ``"Z"``.
* The computational basis is the sigma^z eigenbasis; bit value 1 means
  spin-down (sigma^z = -1), bit 0 spin-up (sigma^z = +1).  Site ``j``
  corresponds to bit ``j`` of the basis-state integer label and of each mask.
* A :class:`PauliString` is ``phase * prod_j P_j`` with at most one factor
  per site; ``phase`` is one of ``{1, -1, 1j, -1j}``.  It is stored as two
  site masks, ``x`` (the X and Y sites) and ``z`` (the Y and Z sites), and
  the phase: as ``Y = i X Z`` the operator is ``phase * i^|x & z| X^x Z^z``
  (``|m|`` the popcount), so products and the Hadamard rotation are exact
  integer arithmetic on the masks.  The constructor reads its
  factor sequence left to right as an operator product, merging
  duplicate-site factors algebraically (``X*Y = i Z`` etc.).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidSpec

_PHASES = (1, 1j, -1, -1j)                         # i^k for k = 0..3
_EXPONENT = {p: k for k, p in enumerate(_PHASES)}
_BITS = {"X": (1, 0), "Y": (1, 1), "Z": (0, 1)}    # axis -> (x bit, z bit)
_AXIS = {bits: axis for axis, bits in _BITS.items()}


def _phase_exponent(phase: complex) -> int:
    """The ``k`` with ``phase = i^k``; any other phase is rejected."""
    for k, p in enumerate(_PHASES):
        if abs(phase - p) < 1e-12:
            return k
    raise InvalidSpec(f"phase {phase!r} is not a fourth root of unity")


def _product(x1: int, z1: int, x2: int, z2: int) -> tuple[int, int, int]:
    """``(x, z, k)`` with ``i^|x1&z1| X^x1 Z^z1 * i^|x2&z2| X^x2 Z^z2 =
    i^k i^|x&z| X^x Z^z``: moving ``X^x2`` left past ``Z^z1`` gives
    ``(-1)^|z1&x2|``."""
    x, z = x1 ^ x2, z1 ^ z2
    return x, z, ((x1 & z1).bit_count() + (x2 & z2).bit_count()
                  + 2 * (z1 & x2).bit_count() - (x & z).bit_count())


@dataclass(frozen=True, init=False)
class PauliString:
    """``phase * i^|x & z| X^x Z^z``: ``x`` holds the X and Y sites, ``z``
    the Y and Z sites.

    ``PauliString(factors, phase)`` multiplies the ``(site, axis)`` factors
    in the given order, so ``PauliString([(0,'X'),(0,'Y')])`` is ``i Z_0``;
    :attr:`factors` gives them back sorted by site.
    """

    x: int
    z: int
    phase: complex

    def __init__(self, factors=(), phase: complex = 1):
        x, z, k = 0, 0, _phase_exponent(complex(phase))
        for site, axis in factors:
            site = int(site)
            if site < 0:
                raise InvalidSpec(f"negative site index {site}")
            if axis not in _BITS:
                raise InvalidSpec(f"unknown Pauli axis {axis!r}")
            bx, bz = _BITS[axis]
            # only this site's bits change, so the product runs on them alone
            k += _product(x >> site & 1, z >> site & 1, bx, bz)[2]
            x, z = x ^ bx << site, z ^ bz << site
        self.__dict__.update(x=x, z=z, phase=_PHASES[k % 4])

    @staticmethod
    def _of(x: int, z: int, k: int) -> "PauliString":
        ps = object.__new__(PauliString)
        ps.__dict__.update(x=x, z=z, phase=_PHASES[k % 4])
        return ps

    # ------------------------------------------------------------------
    # algebra
    # ------------------------------------------------------------------
    def __mul__(self, other: "PauliString") -> "PauliString":
        if not isinstance(other, PauliString):
            return NotImplemented
        x, z, k = _product(self.x, self.z, other.x, other.z)
        return PauliString._of(x, z, k + _EXPONENT[self.phase] + _EXPONENT[other.phase])

    def hadamard(self) -> "PauliString":
        """``U P U`` for ``U`` the Hadamard on every site: X -> Z, Y -> -Y,
        Z -> X, i.e. the masks swap and each Y site gives a -1."""
        return PauliString._of(self.z, self.x, _EXPONENT[self.phase]
                               + 2 * (self.x & self.z).bit_count())

    @property
    def factors(self) -> tuple[tuple[int, str], ...]:
        """The ``(site, axis)`` factors, sorted by site."""
        return tuple((s, _AXIS[self.x >> s & 1, self.z >> s & 1])
                     for s in self.support)

    @property
    def support(self) -> tuple[int, ...]:
        m = self.x | self.z
        return tuple(s for s in range(m.bit_length()) if m >> s & 1)

    # ------------------------------------------------------------------
    # bit-kernel view (consumed by the ED module)
    # ------------------------------------------------------------------
    def masks(self) -> tuple[int, int, complex]:
        """Return ``(x, z, prefactor)`` for z-basis application.

        Acting on basis state ``|b>``:
        ``P|b> = prefactor * (-1)^popcount(b & z) |b ^ x>``, where
        ``prefactor = phase * i^|x & z|`` (one ``i`` per Y site).
        """
        k = _EXPONENT[self.phase] + (self.x & self.z).bit_count()
        return self.x, self.z, complex(_PHASES[k % 4])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        body = " ".join(f"{ax}{site}" for site, ax in self.factors) or "1"
        pre = {1: "", -1: "-", 1j: "i", -1j: "-i"}[self.phase]
        return f"PauliString({pre}{body})"


def sigma_x(site: int) -> PauliString:
    return PauliString(((site, "X"),))
