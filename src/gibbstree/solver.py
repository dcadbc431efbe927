"""Root solvers for the scalar block and mirror systems.

The block solver scans a covering interval on a dense grid for strict sign
changes of the two-step gap, refines each bracket by guarded bisection,
seeds the always-present unit solution explicitly (it can land exactly on a
grid node, where a strict sign test goes blind) and merges near-duplicates.

The mirror solver works on the exact integer coefficients of the mirror
polynomial (theta is a float, hence a dyadic rational).  It divides out the
known root z = 1, certifies the quotient squarefree modulo a prime,
isolates every positive root by Descartes' rule of signs with bisection,
and shrinks each isolating interval on the exact sign to adjacent floats.
Its root count is therefore exact and independent of any grid.

Both solvers embed every surviving root back into the full field system.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp
import numpy as np

from .errors import ConvergenceError, EvaluationError, ParameterError
from .invariants import (
    InvariantSetId,
    ReducedScalar,
    SetKind,
    embed_full,
    im_prime_coeffs,
    im_prime_poly,  # noqa: F401  unused; perfbench/tracing.py counts its calls here
    im_prime_poly_mp,
    im_prime_system_residual,
    mobius_deriv,
    mobius_map,
    mobius_pow_k,
    recover_t_from_z,
    two_step_map,
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
    produces no bracket, so known roots must be seeded by the caller.
    """
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


def dedup_roots(roots: list[float], fn, tol: float) -> list[float]:
    """Merge roots closer than tol*max(1, |x|), keeping the smallest |fn| in each cluster."""
    out: list[float] = []
    for r in sorted(roots):
        if out and r - out[-1] <= tol * max(1.0, abs(r)):
            if abs(fn(r)) < abs(fn(out[-1])):
                out[-1] = r
        else:
            out.append(r)
    return out


def scan_interval_for_im(params: ModelParams, m: int) -> tuple[float, float]:
    """Interval guaranteed to contain every two-step fixed point for the block set.

    Fixed points lie in the image of the k-th power of the fractional-linear
    map, which is (((theta+m-1)/m)^k, ((q-m)/(theta+q-m-1))^k); each end is
    widened by one percent.
    """
    theta, q, k = params.theta, params.q, params.k
    f_inf = (theta + m - 1.0) / m
    f_zero = (q - m) / (theta + q - m - 1.0)
    if f_inf <= 0.0:
        # unreachable for m >= 1 since theta > 0; kept as a defensive floor
        return (theta ** k * 1e-2, f_zero ** k * 1e2)
    return (f_inf ** k * 0.99, f_zero ** k * 1.01)


def solve_im(params: ModelParams, m: int,
             config: SolverConfig | None = None) -> list[ReducedScalar]:
    """All block-pattern solutions (x, y) at the given parameters, ascending in x.

    x ranges over fixed points of the two-step map, y = f(x)^k is the partner
    value, and x = y = 1 is always present.  Below theta_critical at least
    three solutions appear; above it only the unit one.
    """
    params.require_solver_regime()
    set_id = InvariantSetId(SetKind.IM, m)
    set_id.validate_for(params.q)
    config = config or SolverConfig()

    def gap(x: float) -> float:
        return two_step_map(x, params, m) - x

    def gap_deriv(x: float) -> float:
        y = mobius_pow_k(x, params, m)
        k = params.k
        inner = k * mobius_map(x, params, m) ** (k - 1) * mobius_deriv(x, params, m)
        outer = k * mobius_map(y, params, m) ** (k - 1) * mobius_deriv(y, params, m)
        return outer * inner - 1.0

    def polish(x: float) -> float:
        # the bisection tolerance is absolute, but embedding works in log
        # space where an error delta maps to delta/x; a few Newton steps
        # recover full precision for roots far below 1
        for _ in range(3):
            g = gap(x)
            if g == 0.0:
                break
            d = gap_deriv(x)
            if not math.isfinite(d) or d == 0.0:
                break
            cand = x - g / d
            if cand <= 0.0 or not math.isfinite(cand) or abs(gap(cand)) > abs(g):
                break
            x = cand
        return x

    lo, hi = scan_interval_for_im(params, m)
    brackets = scan_sign_changes(gap, lo, hi, config, spacing="geometric")
    roots = [polish(refine(gap, b, config)) for b in brackets]
    roots.append(1.0)  # exact unit fixed point, invisible to strict sign scans
    roots = dedup_roots(roots, gap, config.dedup_tol)

    solutions = []
    for x in sorted(roots):
        y = mobius_pow_k(x, params, m)
        sol = ReducedScalar(x=x, y=y, set_id=set_id)
        embed_full(sol, params)
        solutions.append(sol)
    return solutions


@dataclass(frozen=True)
class RejectedRoot:
    """A polynomial root that does not lift to a positive mirror solution."""

    z: float
    reason: str


# prime modulus of the squarefree certificate
_CERT_PRIME = 2 ** 61 - 1


def _divide_out_unit_root(coeffs: list[int]) -> list[int]:
    """Divide (z-1) out of an integer polynomial as often as z = 1 is a root.

    Coefficients are lowest degree first; the division is exact and stays in
    integers.  At a dyadic theta_critical z = 1 is a triple root.
    """
    while sum(coeffs) == 0:
        quotient = [0] * (len(coeffs) - 1)
        acc = 0
        for i in range(len(coeffs) - 1, 0, -1):
            acc += coeffs[i]
            quotient[i - 1] = acc
        coeffs = quotient
    return coeffs


def _poly_rem_mod(a: list[int], b: list[int], p: int) -> list[int]:
    """Remainder of a by b over GF(p); both trimmed, b nonzero."""
    a = list(a)
    inv = pow(b[-1], p - 2, p)
    while len(a) >= len(b):
        coef = a[-1] * inv % p
        shift = len(a) - len(b)
        for i, bi in enumerate(b[:-1]):
            a[shift + i] = (a[shift + i] - coef * bi) % p
        a.pop()
        while a and a[-1] == 0:
            a.pop()
    return a


def _require_squarefree(coeffs: list[int]) -> None:
    """Certify that an integer polynomial has no repeated root.

    gcd(c, c') of degree 0 modulo a prime that does not divide the leading
    coefficient implies the same over the rationals, because reduction
    modulo such a prime keeps the degree of every factor.  The bisection in
    _positive_roots only terminates on squarefree input.
    """
    p = _CERT_PRIME
    if coeffs[-1] % p == 0:
        raise ConvergenceError("mirror polynomial: leading coefficient vanishes "
                               "modulo the certificate prime")
    a = [c % p for c in coeffs]
    b = [i * c % p for i, c in enumerate(coeffs)][1:]
    while b and b[-1] == 0:
        b.pop()
    while b:
        a, b = b, _poly_rem_mod(a, b, p)
    if len(a) > 1:
        raise ConvergenceError("mirror polynomial is not certified squarefree: "
                               f"gcd with its derivative has degree {len(a) - 1} "
                               "modulo the certificate prime")


def _taylor_shift_one(coeffs: list[int]) -> list[int]:
    """Coefficients of c(x + 1), lowest degree first."""
    a = list(coeffs)
    n = len(a) - 1
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            a[j] += a[j + 1]
    return a


def _sign_variations(coeffs: list[int]) -> int:
    signs = [c > 0 for c in coeffs if c]
    return sum(1 for u, v in zip(signs, signs[1:]) if u != v)


def _isolate_unit_interval(coeffs: list[int]) -> list[tuple[Fraction, Fraction]]:
    """Disjoint brackets, each holding exactly one root in (0, 1), ascending.

    Vincent-Collins-Akritas bisection (Collins and Akritas, SYMSAC 1976).
    The sub-polynomial of a dyadic interval (a, b) has the roots of c in
    (a, b) at x in (0, 1); by Descartes' rule the sign variations of
    (1+x)^n c_I(1/(1+x)) bound their number and have its parity, so 0 and 1
    settle an interval and anything else is halved.  A root landing exactly
    on a midpoint is returned as a bracket with lo == hi.  Needs squarefree
    input to terminate.
    """
    found = []
    stack = [(coeffs, 0, 0)]   # sub-polynomial on (num/2^j, (num+1)/2^j)
    while stack:
        c, num, j = stack.pop()
        v = _sign_variations(_taylor_shift_one(c[::-1]))
        if v == 0:
            continue
        if v == 1:
            found.append((Fraction(num, 2 ** j), Fraction(num + 1, 2 ** j)))
            continue
        n = len(c) - 1
        left = [ci << (n - i) for i, ci in enumerate(c)]   # 2^n c(x/2)
        right = _taylor_shift_one(left)                    # 2^n c((x+1)/2)
        if right[0] == 0:
            mid = Fraction(2 * num + 1, 2 ** (j + 1))
            found.append((mid, mid))
            right = right[1:]
        stack.append((left, 2 * num, j + 1))
        stack.append((right, 2 * num + 1, j + 1))
    return sorted(found)


def _sign_at(coeffs: list[int], z: Fraction) -> int:
    """Exact sign of the polynomial at a rational point."""
    num, den = z.numerator, z.denominator
    acc, den_pow = coeffs[-1], 1
    for c in reversed(coeffs[:-1]):
        den_pow *= den
        acc = acc * num + c * den_pow
    return (acc > 0) - (acc < 0)


def _shrink_to_float(coeffs: list[int], lo: Fraction, hi: Fraction) -> float:
    """Bisect a one-root bracket on the exact sign until its ends are adjacent floats."""
    if lo == hi:
        return float(lo)
    # an end can be a root found exactly at a bisection midpoint; the bracket
    # still holds one more root, so the signs just inside the ends differ
    s_lo = _sign_at(coeffs, lo) or -_sign_at(coeffs, hi)
    # terminates: every step halves the set of floats strictly inside
    while True:
        mid = 0.5 * (float(lo) + float(hi))
        fmid = Fraction(mid)
        if not lo < fmid < hi:
            return float(lo)
        s = _sign_at(coeffs, fmid)
        if s == 0:
            return mid
        if s == s_lo:
            lo = fmid
        else:
            hi = fmid


def _positive_roots(coeffs: list[int]) -> list[float]:
    """Every positive root other than z = 1 of a squarefree integer polynomial.

    Roots in (0, 1) are isolated directly; roots in (1, inf) are the
    reciprocals of the roots in (0, 1) of the reversed polynomial, bounded
    above by Cauchy's bound.  Each root is returned as a float within one
    unit in the last place, in ascending order.
    """
    brackets = _isolate_unit_interval(coeffs)
    cauchy = 1 + Fraction(max(abs(c) for c in coeffs[:-1]), abs(coeffs[-1]))
    for lo, hi in reversed(_isolate_unit_interval(coeffs[::-1])):
        brackets.append((1 / hi, 1 / lo if lo else cauchy))
    return [_shrink_to_float(coeffs, lo, hi) for lo, hi in brackets]


def solve_im_prime(params: ModelParams, m: int,
                   ) -> tuple[list[ReducedScalar], list[RejectedRoot]]:
    """All mirror-pattern solutions, ascending in x, plus rejected polynomial roots.

    The positive roots of the mirror polynomial are found and counted
    exactly from its integer coefficients (see the module docstring), so the
    count does not depend on any grid.  Every accepted root z recovers a
    positive partner t and satisfies the coupled fixed-point system to 1e-9;
    roots whose partner is complex or nonpositive are reported in the second
    list with a reason.
    """
    params.require_solver_regime()
    set_id = InvariantSetId(SetKind.IM_PRIME, m)
    set_id.validate_for(params.q)

    def polish(z: float) -> float:
        # same log-space consideration as the block solver; the derivative
        # comes from a high-precision central difference so cancellation in
        # the polynomial cannot poison the step
        with mp.workdps(40):
            zz = mp.mpf(z)
            h = mp.mpf("1e-12") * max(1.0, abs(z))
            for _ in range(3):
                pv = im_prime_poly_mp(zz, params, m)
                if pv == 0:
                    break
                dv = (im_prime_poly_mp(zz + h, params, m)
                      - im_prime_poly_mp(zz - h, params, m)) / (2 * h)
                if dv == 0:
                    break
                cand = zz - pv / dv
                if cand <= 0 or not mp.isfinite(cand):
                    break
                zz = cand
            return float(zz)

    coeffs = _divide_out_unit_root(im_prime_coeffs(params, m))
    _require_squarefree(coeffs)
    roots = [polish(z) for z in _positive_roots(coeffs)]
    roots.append(1.0)  # p(1) = 0 exactly

    solutions = []
    rejected = []
    for z in sorted(roots):
        t = recover_t_from_z(z, params, m)
        if t is None:
            rejected.append(RejectedRoot(z=z, reason="partner value t^k not positive"))
            continue
        res = im_prime_system_residual(z, t, params, m)
        if not res <= 1e-9:
            rejected.append(RejectedRoot(z=z, reason=f"system residual {res:.3e} > 1e-9"))
            continue
        sol = ReducedScalar(x=z ** params.k, y=t ** params.k, set_id=set_id, z=z, t=t)
        embed_full(sol, params)
        solutions.append(sol)
    solutions.sort(key=lambda s: s.x)
    return solutions, rejected
