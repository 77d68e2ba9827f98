"""Detect, construct, and sample maximally entangled qubit states.

The central fact: a pure n-qubit state has every single-site reduced
density equal to I/2 (equivalently, every reduced entropy equal to ln 2)
exactly when all 3n local Pauli expectations vanish. This package checks
that criterion, parametrizes the full 2-qubit solution set, searches for
criterion states numerically, and simulates local measurements on them.
"""

from .entanglement import (
    ConstraintReport,
    CriterionReport,
    EntropyReport,
    apply_local_unitaries,
    commutator_defect,
    constraint_check,
    criterion_check,
    reduced_density,
    reduced_entropy,
    schmidt_coefficients,
    trace_invariant,
)
from .linalg import apply_single_site, hermitian_eigenvalues_2x2, partial_trace_single_site
from .measurement import (
    CorrelationMatrix,
    ShotRecord,
    axes_from_chars,
    born_probabilities,
    correlation,
    correlation_matrix,
    empirical_correlation,
    empirical_expectation,
    empirical_moments,
    local_expectation,
    local_expectations,
    local_variance,
    mutual_information,
    pauli,
    sample_outcomes,
)
from .search import (
    ConstraintParams,
    SearchOutcome,
    cost,
    generate_constrained,
    haar_random_state,
    haar_random_su2,
    multi_start,
    optimize,
    random_constraint_params,
)
from .statefile import (
    StateFileError,
    format_state,
    parse_state,
    read_state_file,
    write_state_file,
)
from .states import (
    EXAMPLE_STATE_NAMES,
    State,
    as_coefficient_matrix,
    basis_index,
    basis_label,
    epr_family,
    example_state,
    from_amplitudes,
    ghz,
    schmidt_state,
)

__version__ = "0.1.0"

__all__ = [
    "ConstraintParams",
    "ConstraintReport",
    "CorrelationMatrix",
    "CriterionReport",
    "EXAMPLE_STATE_NAMES",
    "EntropyReport",
    "SearchOutcome",
    "ShotRecord",
    "State",
    "StateFileError",
    "apply_local_unitaries",
    "apply_single_site",
    "as_coefficient_matrix",
    "axes_from_chars",
    "basis_index",
    "basis_label",
    "born_probabilities",
    "commutator_defect",
    "constraint_check",
    "correlation",
    "correlation_matrix",
    "cost",
    "criterion_check",
    "empirical_correlation",
    "empirical_expectation",
    "empirical_moments",
    "epr_family",
    "example_state",
    "format_state",
    "from_amplitudes",
    "generate_constrained",
    "ghz",
    "haar_random_state",
    "haar_random_su2",
    "hermitian_eigenvalues_2x2",
    "local_expectation",
    "local_expectations",
    "local_variance",
    "multi_start",
    "mutual_information",
    "optimize",
    "parse_state",
    "partial_trace_single_site",
    "pauli",
    "random_constraint_params",
    "read_state_file",
    "reduced_density",
    "reduced_entropy",
    "sample_outcomes",
    "schmidt_coefficients",
    "schmidt_state",
    "trace_invariant",
    "write_state_file",
]
