"""Root solvers for the scalar block and mirror systems.

Both families hand a root polynomial in z = x^(1/k) to the exact kernel
(gibbstree.exact), which returns each positive root as its nearest float:
the sparse block polynomial T(z) = z U(z^k) - V(z^k) of
invariants.im_coeffs, whose positive roots are the k-th roots of those of
R(x) = x U(x)^k - V(x)^k (the kernel rounds x = z^k), or the mirror
polynomial of invariants.im_prime_coeffs.  The roots above 1 are the
partners of those below it: F = f^k is decreasing with F(1) = 1 and maps
fixed points of F o F to fixed points, so y = F(x) pairs the block roots
across 1; the mirror system z = N/D of invariants.im_prime_system_residual
is symmetric in z and t, and N - D = (theta - 1)(t^k - 1) with D > 0, so
the partner t pairs the mirror roots across 1 the same way.  So in the
ascending root list, 1 included, the partner of the i-th root is the i-th
from the end, already rounded: each row pairs the list with its reverse.
Block set q-m is the image of block set m under x -> 1/x.  Each root known
from another root in these ways is rounded inside the image of its source
float's half-ulp cell (exact._derived_roots).

scan_sign_changes, refine, Bracket and SolverConfig form a generic grid
scan that no solver calls; perfbench/tracing.py still hooks
scan_sign_changes and refine by name.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConvergenceError, EvaluationError, ParameterError
from .exact import _certified_roots, _derived_roots, _homogeneous, _two_step_sign
from .invariants import (
    InvariantSetId,
    ReducedScalar,
    SetKind,
    embed_full,
    im_coeffs,
    im_map_coeffs,
    im_prime_bases,
    im_prime_coeffs,
    im_prime_poly,  # noqa: F401  unused; perfbench/tracing.py counts its calls here
    im_prime_poly_mp,  # noqa: F401  unused; perfbench/tracing.py counts its calls here
    im_prime_system_residual,
    two_step_map,  # noqa: F401  unused; perfbench/tracing.py counts its calls here
)
from .model import ModelParams


@dataclass(frozen=True)
class Bracket:
    """An interval with a strict sign change of the scanned function."""

    lo: float
    hi: float
    f_lo: float
    f_hi: float

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise ParameterError(f"bracket needs lo < hi, got [{self.lo}, {self.hi}]")
        if not self.f_lo * self.f_hi < 0.0:
            raise ParameterError("bracket endpoints must have strictly opposite signs")


@dataclass(frozen=True)
class SolverConfig:
    grid_points: int = 10_000
    refine_tol: float = 1e-12
    dedup_tol: float = 1e-8
    max_refine_iters: int = 200

    def __post_init__(self) -> None:
        if not isinstance(self.grid_points, int) or self.grid_points < 100:
            raise ParameterError(f"grid_points must be an integer >= 100, got {self.grid_points!r}")
        for name in ("refine_tol", "dedup_tol"):
            v = getattr(self, name)
            if not 0.0 < v < 1e-2:
                raise ParameterError(f"{name} must lie in (0, 1e-2), got {v!r}")
        if not isinstance(self.max_refine_iters, int) or self.max_refine_iters < 1:
            raise ParameterError(f"max_refine_iters must be a positive integer")


def scan_sign_changes(fn, lo: float, hi: float, config: SolverConfig | None = None,
                      spacing: str = "uniform") -> list[Bracket]:
    """Evaluate fn on a grid over [lo, hi] and collect strict sign-change cells.

    spacing "geometric" places nodes uniformly in ln(x) (lo must be positive);
    "uniform" places them uniformly in x.  A node where fn is exactly zero
    produces no bracket, so known roots must be seeded by the caller.  No
    solver calls it; it is kept only because the benchmark's tracing hooks
    it by name, and it needs numpy, which the test extra installs.
    """
    import numpy as np

    config = config or SolverConfig()
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ParameterError(f"need finite lo < hi, got [{lo}, {hi}]")
    if spacing == "geometric":
        if lo <= 0.0:
            raise ParameterError("geometric spacing needs lo > 0")
        xs = np.geomspace(lo, hi, config.grid_points)
    elif spacing == "uniform":
        xs = np.linspace(lo, hi, config.grid_points)
    else:
        raise ParameterError(f"spacing must be 'uniform' or 'geometric', got {spacing!r}")
    xs = xs.tolist()
    vals = []
    for x in xs:
        v = fn(x)
        if not math.isfinite(v):
            raise EvaluationError(f"function value {v!r} at grid node x={x!r}")
        vals.append(v)
    out = []
    for i in range(len(xs) - 1):
        if vals[i] * vals[i + 1] < 0.0:
            out.append(Bracket(xs[i], xs[i + 1], vals[i], vals[i + 1]))
    return out


def refine(fn, bracket: Bracket, config: SolverConfig | None = None) -> float:
    """Shrink a bracket to width 2*refine_tol and return its midpoint.

    Bisection with an interleaved secant step when the secant candidate falls
    strictly inside the current interval; the alternation keeps the worst case
    at twice the bisection count.
    """
    config = config or SolverConfig()
    lo, hi, f_lo, f_hi = bracket.lo, bracket.hi, bracket.f_lo, bracket.f_hi
    use_secant = False
    for _ in range(config.max_refine_iters):
        if hi - lo <= 2.0 * config.refine_tol:
            return 0.5 * (lo + hi)
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            # lo and hi are adjacent floats: no float lies strictly between
            return mid
        if use_secant and math.isfinite(f_lo) and math.isfinite(f_hi) and f_hi != f_lo:
            cand = lo - f_lo * (hi - lo) / (f_hi - f_lo)
            if lo + config.refine_tol < cand < hi - config.refine_tol:
                mid = cand
        use_secant = not use_secant
        f_mid = fn(mid)
        if f_mid == 0.0:
            return mid
        if f_lo * f_mid < 0.0:
            hi, f_hi = mid, f_mid
        else:
            lo, f_lo = mid, f_mid
    raise ConvergenceError(
        f"bracket [{lo}, {hi}] not reduced to 2*{config.refine_tol} "
        f"within {config.max_refine_iters} iterations"
    )


@dataclass(frozen=True)
class RejectedRoot:
    """A mirror root whose row, paired with its partner root, fails the system check."""

    z: float
    reason: str


def _ratio_map(num: list[int], den: list[int], k: int = 1):
    """v -> (num(v) / den(v))^k at dyadic v, as a pair; num, den of one degree, den > 0."""
    return lambda v: (_homogeneous(num, v) ** k, _homogeneous(den, v) ** k)


def _block_solutions(params: ModelParams, set_id: InvariantSetId,
                     xs: list[float]) -> list[ReducedScalar]:
    """The block rows (x, f(x)^k) of set_id at the ascending fixed points xs, embedded."""
    # f(x)^k is the fixed point at the mirror position of x (see the module docstring)
    solutions = [ReducedScalar(x=x, y=y, set_id=set_id) for x, y in zip(xs, reversed(xs))]
    for sol in solutions:
        embed_full(sol, params)
    return solutions


def solve_im(params: ModelParams, m: int) -> list[ReducedScalar]:
    """All block-pattern solutions (x, y) at the given parameters, ascending in x.

    x ranges over fixed points of the two-step map, found and counted
    exactly as the positive roots of the block two-step polynomial, through
    their k-th roots (see the module docstring); y = f(x)^k is the partner
    root, and x = 1 is always present.  Below theta_critical at least three
    solutions appear; at and above it only the unit one.
    """
    params.require_solver_regime()
    set_id = InvariantSetId(SetKind.IM, m)
    set_id.validate_for(params.q)
    a, b, c, d = im_map_coeffs(params, m)
    xs = _certified_roots(im_coeffs(params, m), _ratio_map([b, a], [d, c], params.k), params.k)
    return _block_solutions(params, set_id, sorted(xs + [1.0]))


def solve_im_reciprocal(params: ModelParams, m: int,
                        solutions: list[ReducedScalar]) -> list[ReducedScalar]:
    """All solutions of block set im:q-m, from solutions = solve_im(params, m).

    The same as solve_im(params, q - m), bit for bit, without isolating a
    root.  With the set index m replaced by q-m, a, b, c and d of
    invariants.im_coeffs become d, c, b and a, so im_coeffs(params, q-m) is
    im_coeffs(params, m) reversed and negated, and sign R_(q-m)(x) =
    -sign R_m(1/x) for x > 0: x -> 1/x maps the roots of R_m, each of which
    solve_im returns as its nearest float, onto those of R_(q-m), in reverse
    order; 1 is inserted as in solve_im, and _derived_roots rounds each
    other root, whose bracket has no 1 inside as its source's half-ulp cell
    lies on one side of 1.  Where that fails, solve_im(params, q - m).
    """
    params.require_solver_regime()
    InvariantSetId(SetKind.IM, m).validate_for(params.q)
    set_id = InvariantSetId(SetKind.IM, params.q - m)
    sign = _two_step_sign(im_coeffs(params, set_id.m), params.k)
    sources = [sol.x for sol in reversed(solutions) if sol.x != 1.0]
    xs = _derived_roots(sign, lambda v: v[::-1], sources, 0.0)
    if xs is None:
        return solve_im(params, set_id.m)
    return _block_solutions(params, set_id, sorted(xs + [1.0]))


def solve_im_prime(params: ModelParams, m: int,
                   ) -> tuple[list[ReducedScalar], list[RejectedRoot]]:
    """All mirror-pattern solutions, ascending in x, plus rejected polynomial roots.

    The positive roots of the mirror polynomial are found and counted
    exactly (see the module docstring).  Each root z is paired with the
    root t at its mirror position in the ascending list, 1 included; a pair
    that satisfies the coupled fixed-point system to 1e-9 is a solution,
    and each other root is reported in the second list with its residual.
    A root above 1 that is no root's partner is found only where the
    pairing of exact._certified_roots fails, and shifts rows out of pair.
    """
    params.require_solver_regime()
    set_id = InvariantSetId(SetKind.IM_PRIME, m)
    set_id.validate_for(params.q)

    b1, b2 = im_prime_bases(params, m)
    # b2 padded to the degree of b1, so that both scale alike
    roots = _certified_roots(im_prime_coeffs(params, m), _ratio_map(b1, b2 + [0]))
    roots = sorted(roots + [1.0])  # p(1) = 0 exactly

    solutions = []
    rejected = []
    for z, t in zip(roots, reversed(roots)):
        res = im_prime_system_residual(z, t, params, m)
        if not res <= 1e-9:
            rejected.append(RejectedRoot(z=z, reason=f"system residual {res:.3e} > 1e-9"))
            continue
        sol = ReducedScalar(x=z ** params.k, y=t ** params.k, set_id=set_id, z=z, t=t)
        embed_full(sol, params)
        solutions.append(sol)
    return solutions, rejected
