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
    reduced_entropy,
    schmidt_coefficients,
    site_marginals,
    trace_invariant,
)
from .linalg import apply_single_site, partial_trace_single_site
from .measurement import (
    CorrelationMatrix,
    ShotRecord,
    axes_from_chars,
    born_probabilities,
    correlation_matrices,
    correlation_matrix,
    empirical_correlation,
    empirical_expectation,
    empirical_moments,
    local_expectation,
    local_expectations,
    mutual_information,
    mutual_information_matrix,
    sample_outcomes,
)
from .search import (
    ConstraintParams,
    SearchOutcome,
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
    "born_probabilities",
    "commutator_defect",
    "constraint_check",
    "correlation_matrices",
    "correlation_matrix",
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
    "local_expectation",
    "local_expectations",
    "multi_start",
    "mutual_information",
    "mutual_information_matrix",
    "optimize",
    "parse_state",
    "partial_trace_single_site",
    "random_constraint_params",
    "read_state_file",
    "reduced_entropy",
    "sample_outcomes",
    "schmidt_coefficients",
    "schmidt_state",
    "site_marginals",
    "trace_invariant",
    "write_state_file",
]
