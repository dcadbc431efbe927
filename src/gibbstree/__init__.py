"""Periodic boundary fields of the antiferromagnetic q-state model on Cayley trees.

The package finds the boundary-field vectors compatible with the tree
recursion at period two, classifies them as translation invariant or
genuinely alternating, counts the symmetry orbits they generate, and checks
everything against an exact finite-volume consistency oracle.

The names below are the library surface; the submodules hold the rest
(CSV and SVG output in sweep, the command line in cli).
"""
from .catalog import Classification, classify, orbit_expand, total_lower_bound
from .errors import (
    BudgetError,
    ConvergenceError,
    DomainError,
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
    im_prime_poly,
    im_prime_poly_mp,
    im_prime_poly_slope_at_one,
    mobius_deriv,
    mobius_map,
    theta_critical,
    two_step_map,
    two_step_slope_at_one,
)
from .model import ModelParams, PeriodTwoField, compat_map
from .oracle import build_tree, check_consistency, finite_difference
from .solver import solve_im, solve_im_prime

__version__ = "0.1.0"

__all__ = [
    "BudgetError", "Classification", "ConvergenceError", "DomainError",
    "GibbsTreeError", "HypothesisError", "InvariantSetId", "ModelParams",
    "ParameterError", "PeriodTwoField", "ReducedScalar", "ResidualError",
    "SelectorSyntaxError", "SetKind", "ShapeError", "build_tree",
    "check_consistency", "classify", "compat_map", "embed_full",
    "finite_difference", "im_prime_poly", "im_prime_poly_mp",
    "im_prime_poly_slope_at_one", "mobius_deriv", "mobius_map", "orbit_expand",
    "solve_im", "solve_im_prime", "theta_critical", "total_lower_bound",
    "two_step_map", "two_step_slope_at_one", "__version__",
]
