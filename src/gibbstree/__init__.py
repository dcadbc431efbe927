"""Periodic boundary fields of the antiferromagnetic q-state model on Cayley trees.

The package finds the boundary-field vectors compatible with the tree
recursion at period two, classifies them as translation invariant or
genuinely alternating, counts the symmetry orbits they generate, and checks
everything against an exact finite-volume consistency oracle.
"""
from .catalog import (
    Classification,
    CountReport,
    MeasureDescriptor,
    classify,
    count_im,
    count_im_prime,
    describe,
    orbit_expand,
    total_lower_bound,
)
from .errors import (
    BudgetError,
    ConvergenceError,
    DomainError,
    EvaluationError,
    GibbsTreeError,
    HypothesisError,
    ParameterError,
    ResidualError,
    SelectorSyntaxError,
    ShapeError,
)
from .invariants import (
    InvariantSetId,
    ReducedScalar,
    SetKind,
    embed_full,
    im_prime_coeffs,
    im_prime_poly,
    im_prime_poly_mp,
    im_prime_poly_slope_at_one,
    im_prime_system_residual,
    mobius_deriv,
    mobius_map,
    mobius_pow_k,
    recover_t_from_z,
    theta_critical,
    two_step_map,
    two_step_slope_at_one,
)
from .model import (
    ModelParams,
    PeriodTwoField,
    as_field,
    compat_map,
    finite_volume_log_weight,
    finite_volume_weight,
    hamiltonian,
    period2_residual,
    residual_norm,
)
from .oracle import (
    ConsistencyReport,
    FiniteTree,
    build_tree,
    check_consistency,
    finite_difference,
)
from .solver import (
    Bracket,
    RejectedRoot,
    SolverConfig,
    refine,
    scan_sign_changes,
    solve_im,
    solve_im_prime,
)
from .sweep import (
    CSV_HEADER,
    SweepRecord,
    SweepRow,
    csv_text,
    parse_set_spec,
    read_csv,
    run_sweep,
    solve_set,
    sweep_records,
    write_bifurcation_svg,
    write_csv,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetError", "Bracket", "CSV_HEADER", "Classification", "ConsistencyReport",
    "ConvergenceError", "CountReport", "DomainError", "EvaluationError",
    "FiniteTree", "GibbsTreeError", "HypothesisError", "InvariantSetId",
    "MeasureDescriptor", "ModelParams", "ParameterError", "PeriodTwoField",
    "ReducedScalar", "RejectedRoot", "ResidualError", "SetKind", "ShapeError",
    "SolverConfig", "SweepRecord", "SweepRow", "as_field", "build_tree",
    "SelectorSyntaxError",
    "check_consistency", "classify", "compat_map", "count_im",
    "count_im_prime", "csv_text", "describe", "embed_full", "finite_difference",
    "finite_volume_log_weight",
    "finite_volume_weight", "hamiltonian", "im_prime_coeffs", "im_prime_poly",
    "im_prime_poly_mp",
    "im_prime_poly_slope_at_one", "im_prime_system_residual", "mobius_deriv",
    "mobius_map", "mobius_pow_k", "orbit_expand", "parse_set_spec",
    "period2_residual", "read_csv", "recover_t_from_z", "refine",
    "residual_norm", "run_sweep", "scan_sign_changes", "solve_im",
    "solve_im_prime", "solve_set", "sweep_records", "theta_critical",
    "total_lower_bound", "two_step_map", "two_step_slope_at_one",
    "write_bifurcation_svg", "write_csv", "__version__",
]
