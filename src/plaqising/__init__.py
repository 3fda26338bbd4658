"""Numerical laboratory for a transverse-field plaquette spin model and its
exact rewriting as decoupled transverse-field Ising chains.

The 2D model lives on a square lattice of spins,

    H = -g * sum_p F_p - h * sum_j sx_j,    F_p = sx sy sx sy around p,

and maps, diagonal by diagonal, onto independent Ising chains whose free-
fermion solution gives spectra, gaps and correlators at sizes far beyond
brute-force reach.  Subpackages:

- ``lattice``      geometry, plaquettes, diagonal chains, conserved loops
- ``pauli`` / ``ed``  Pauli-string algebra and exact diagonalization
- ``duality``      operator map, sector bookkeeping, spectrum checks
- ``freefermion``  chain solver (spectra, gaps, correlators, strings)
- ``observables``  2D string order parameters via either route
- ``sweep`` / ``cli``  batch experiments and the command-line front end
"""

from .duality import (
    DualityReport,
    DualModel,
    dual_lattice_gap,
    duality_spectrum_check,
    full_dual_spectrum,
    map_hamiltonian,
    map_operator,
    sector_chain_specs,
)
from .ed import (
    HamiltonianSpec,
    SpectrumResult,
    apply_pauli_string,
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
    manybody_gap,
    manybody_levels,
    ring_sector_levels,
    xx_correlator,
    zz_correlator,
)
from .lattice import (
    Boundary,
    ChainBoundary,
    ChainDecomposition,
    LatticeSpec,
    chain_decompose,
    diagonal_loop_operator,
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
    "ChainDecomposition", "enumerate_plaquettes", "plaquette_operator",
    "chain_decompose", "plaquette_chain_position",
    "expected_chain_count", "site_adjacent_plaquettes", "site_diagonals",
    "diagonal_loop_operator",
    # ed
    "HamiltonianSpec", "SpectrumResult", "hamiltonian_terms",
    "apply_pauli_string", "expectation",
    "full_spectrum", "ground_spectrum",
    # duality
    "DualModel", "DualityReport", "map_hamiltonian", "map_operator",
    "sector_chain_specs", "full_dual_spectrum", "duality_spectrum_check",
    "dual_lattice_gap",
    # freefermion
    "TFIMChainSpec", "BdGSolution", "bdg_solve",
    "ring_sector_levels", "manybody_levels", "manybody_gap",
    "magnetization_x", "zz_correlator", "xx_correlator",
    "disorder_parameter",
    # observables
    "DiagonalSegment", "segment_sites", "sx_string",
    "plaquette_string", "ground_state_for_measurement",
    "sx_string_expectation_ed", "plaquette_string_expectation_ed",
    "sx_string_expectation_dual", "plaquette_string_expectation_dual",
]
