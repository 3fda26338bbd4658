"""Numerical laboratory for a transverse-field plaquette spin model and its
exact rewriting as decoupled transverse-field Ising chains.

The 2D model lives on a square lattice of spins,

    H = -g * sum_p F_p - h * sum_j sx_j,    F_p = sx sy sx sy around p,

and maps, diagonal by diagonal, onto independent Ising chains whose free-
fermion solution gives spectra, gaps and correlators at sizes far beyond
brute-force reach.  Subpackages:

- ``lattice``      geometry, plaquettes, diagonal chains, conserved loops
- ``pauli`` / ``ed``  Pauli-string algebra and exact diagonalization
- ``duality``      chain map, sector bookkeeping, spectrum checks, torus gap
- ``freefermion``  chain solver (mode energies, correlators, strings)
- ``observables``  2D string order parameters via either route
- ``sweep`` / ``cli``  batch experiments and the command-line front end
"""

import os
import sys

# numpy and scipy each load their own OpenBLAS, each with one thread per
# core.  After a call, a pool's idle workers spin 2^28 cycles (~134 ms at
# 2 GHz) before they sleep, so a scipy call right after a numpy one (or the
# reverse) shares the cores with the other pool's spinning threads.  At
# 2^24 cycles (~8 ms) the idle pool sleeps in time, while a Lanczos loop's
# GEMVs, under 1 ms apart, still find warm threads.  On 2 cores this cut
# the 4x3 duality-check's 165-180-state eigvalsh calls from up to 13.5 ms
# to at most 5.3 ms.  Both libraries read the variable when they load, so
# it is set before any import of numpy; a value already set wins.  It
# changes only when idle threads sleep, never how work is split, so every
# result is unchanged.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "24")
# the value both OpenBLAS builds read, or None where numpy loaded before it
_blas_thread_timeout = (None if "numpy" in sys.modules
                        else os.environ["OPENBLAS_THREAD_TIMEOUT"])

from .duality import (
    DualModel,
    dual_lattice_gap,
    duality_spectrum_check,
    full_dual_spectrum,
    map_hamiltonian,
    sector_chain_specs,
)
from .ed import (
    HamiltonianSpec,
    SpectrumResult,
    expectation,
    full_spectrum,
    ground_spectrum,
    hamiltonian_terms,
)
from .errors import (
    DegenerateLattice,
    DimensionMismatch,
    IndexOutOfRange,
    InvalidSpec,
    NotConverged,
    NotMappable,
    NumericalFailure,
    PlaqIsingError,
    SiteOutOfRange,
    TooLarge,
)
from .freefermion import (
    BdGSolution,
    TFIMChainSpec,
    bdg_solve,
    disorder_parameter,
    magnetization_x,
    xx_correlator,
    zz_correlator,
)
from .lattice import (
    Boundary,
    ChainBoundary,
    LatticeSpec,
    chain_decompose,
    enumerate_plaquettes,
    expected_chain_count,
    plaquette_chain_position,
    plaquette_operator,
    site_adjacent_plaquettes,
    site_diagonals,
)
from .observables import (
    DiagonalSegment,
    ground_state_for_measurement,
    plaquette_string,
    plaquette_string_expectation_dual,
    plaquette_string_expectation_ed,
    segment_sites,
    sx_string,
    sx_string_expectation_dual,
    sx_string_expectation_ed,
)
from .pauli import PauliString

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "PlaqIsingError", "InvalidSpec", "DegenerateLattice", "SiteOutOfRange",
    "IndexOutOfRange", "DimensionMismatch", "TooLarge", "NotConverged",
    "NotMappable", "NumericalFailure",
    # pauli / lattice
    "PauliString", "Boundary", "ChainBoundary", "LatticeSpec",
    "enumerate_plaquettes", "plaquette_operator",
    "chain_decompose", "plaquette_chain_position",
    "expected_chain_count", "site_adjacent_plaquettes", "site_diagonals",
    # ed
    "HamiltonianSpec", "SpectrumResult", "hamiltonian_terms",
    "expectation",
    "full_spectrum", "ground_spectrum",
    # duality
    "DualModel", "map_hamiltonian",
    "sector_chain_specs", "full_dual_spectrum", "duality_spectrum_check",
    "dual_lattice_gap",
    # freefermion
    "TFIMChainSpec", "BdGSolution", "bdg_solve",
    "magnetization_x", "zz_correlator", "xx_correlator",
    "disorder_parameter",
    # observables
    "DiagonalSegment", "segment_sites", "sx_string",
    "plaquette_string", "ground_state_for_measurement",
    "sx_string_expectation_ed", "plaquette_string_expectation_ed",
    "sx_string_expectation_dual", "plaquette_string_expectation_dual",
]
