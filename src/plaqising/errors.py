"""Exception types shared across the package."""

from __future__ import annotations


class PlaqIsingError(Exception):
    """Base class for all package errors."""


class InvalidSpec(PlaqIsingError):
    """A lattice / Hamiltonian / chain / sweep specification is malformed."""


class DegenerateLattice(InvalidSpec):
    """Periodic lattice too small: a plaquette would touch the same site twice."""


class SiteOutOfRange(PlaqIsingError):
    """An operator factor addresses a site outside the system."""


class IndexOutOfRange(PlaqIsingError):
    """A correlator index is outside the chain."""


class DimensionMismatch(PlaqIsingError):
    """A state vector length does not match the operator's Hilbert space."""


class TooLarge(PlaqIsingError):
    """The requested diagonalization exceeds the supported size budget."""


class NotConverged(PlaqIsingError):
    """The iterative eigensolver did not reach the requested residual tolerance.

    Carries a ``diagnostics`` dict (iterations, best residuals, Ritz values).
    """

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class NotMappable(PlaqIsingError):
    """An operator is not a product of plaquette and transverse-field factors."""


class NumericalFailure(PlaqIsingError):
    """A linear-algebra sanity check failed beyond tolerance."""
