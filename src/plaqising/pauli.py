"""Pauli strings: products of single-site Pauli operators with a tracked phase.

Conventions
-----------
* Axes are the characters ``"X"``, ``"Y"``, ``"Z"``.
* The computational basis is the sigma^z eigenbasis; bit value 1 means
  spin-down (sigma^z = -1), bit 0 spin-up (sigma^z = +1).  Site ``j``
  corresponds to bit ``j`` of the basis-state integer label.
* A :class:`PauliString` is ``phase * prod_j P_j`` with at most one factor
  per site; ``phase`` is one of ``{1, -1, 1j, -1j}``.  Construction merges
  duplicate-site factors algebraically (``X*Y = i Z`` etc.), reading the
  supplied factor sequence left to right as an operator product.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidSpec

_AXES = ("X", "Y", "Z")

# single-site products: (left, right) -> (phase, axis or None for identity)
_PRODUCT = {
    ("X", "X"): (1, None),
    ("Y", "Y"): (1, None),
    ("Z", "Z"): (1, None),
    ("X", "Y"): (1j, "Z"),
    ("Y", "X"): (-1j, "Z"),
    ("Y", "Z"): (1j, "X"),
    ("Z", "Y"): (-1j, "X"),
    ("Z", "X"): (1j, "Y"),
    ("X", "Z"): (-1j, "Y"),
}


def _normalize_phase(phase: complex) -> complex:
    for p in (1, -1, 1j, -1j):
        if abs(phase - p) < 1e-12:
            return p
    raise InvalidSpec(f"phase {phase!r} is not a fourth root of unity")


@dataclass(frozen=True)
class PauliString:
    """An ordered-merged product of single-site Paulis times a phase.

    ``factors`` is stored sorted by site; the merge of the constructor input
    preserves operator ordering, so ``PauliString([(0,'X'),(0,'Y')])`` is
    ``i Z_0``.
    """

    factors: tuple[tuple[int, str], ...]
    phase: complex = 1

    def __init__(self, factors=(), phase: complex = 1):
        merged: dict[int, str] = {}
        ph = complex(phase)
        for site, axis in factors:
            site = int(site)
            if site < 0:
                raise InvalidSpec(f"negative site index {site}")
            if axis not in _AXES:
                raise InvalidSpec(f"unknown Pauli axis {axis!r}")
            if site in merged:
                extra, new_axis = _PRODUCT[(merged[site], axis)]
                ph *= extra
                if new_axis is None:
                    del merged[site]
                else:
                    merged[site] = new_axis
            else:
                merged[site] = axis
        object.__setattr__(self, "factors", tuple(sorted(merged.items())))
        object.__setattr__(self, "phase", _normalize_phase(ph))

    # ------------------------------------------------------------------
    # algebra
    # ------------------------------------------------------------------
    def __mul__(self, other: "PauliString") -> "PauliString":
        if not isinstance(other, PauliString):
            return NotImplemented
        # factors on distinct sites commute, so concatenation is a valid
        # ordered product as long as same-site pairs keep left/right order
        return PauliString(self.factors + other.factors, self.phase * other.phase)

    def commutes_with(self, other: "PauliString") -> bool:
        """True iff the two strings commute (they always either commute
        or anticommute)."""
        mine = dict(self.factors)
        clashes = sum(
            1 for site, axis in other.factors if mine.get(site, axis) != axis
        )
        return clashes % 2 == 0

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(site for site, _ in self.factors)

    @property
    def is_identity(self) -> bool:
        return not self.factors

    @property
    def is_hermitian(self) -> bool:
        return self.phase in (1, -1)

    # ------------------------------------------------------------------
    # bit-kernel views (consumed by the ED module)
    # ------------------------------------------------------------------
    def masks(self) -> tuple[int, int, complex]:
        """Return ``(flip_mask, sign_mask, prefactor)`` for z-basis application.

        Acting on basis state ``|b>``:
        ``P|b> = prefactor * (-1)^popcount(b & sign_mask) |b ^ flip_mask>``,
        where ``flip_mask`` has the X/Y sites, ``sign_mask`` the Y/Z sites and
        ``prefactor = phase * i^(#Y)``.
        """
        flip = 0
        sign = 0
        n_y = 0
        for site, axis in self.factors:
            if axis in ("X", "Y"):
                flip |= 1 << site
            if axis in ("Y", "Z"):
                sign |= 1 << site
            if axis == "Y":
                n_y += 1
        return flip, sign, self.phase * (1j ** n_y)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @staticmethod
    def sigma(axis: str, site: int) -> "PauliString":
        return PauliString(((site, axis),))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        body = " ".join(f"{ax}{site}" for site, ax in self.factors) or "1"
        pre = {1: "", -1: "-", 1j: "i", -1j: "-i"}[self.phase]
        return f"PauliString({pre}{body})"


def sigma_x(site: int) -> PauliString:
    return PauliString.sigma("X", site)


def sigma_y(site: int) -> PauliString:
    return PauliString.sigma("Y", site)


def sigma_z(site: int) -> PauliString:
    return PauliString.sigma("Z", site)
