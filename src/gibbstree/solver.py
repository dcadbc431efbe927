"""Root solvers for the scalar block and mirror systems.

Both invariant families run one pipeline on the exact integer coefficients
of a root polynomial in z = x^(1/k) (theta is a float, hence a dyadic
rational): the sparse block polynomial T(z) = z U(z^k) - V(z^k) of
invariants.im_coeffs, whose positive roots are the k-th roots of those of
the two-step polynomial R(x) = x U(x)^k - V(x)^k, or the mirror polynomial
of invariants.im_prime_coeffs.  The solver divides out the known root 1,
isolates every positive root by Descartes' rule of signs with bisection, and
shrinks each isolating interval by bracketed Laguerre steps decided on exact
signs until no float lies inside.  A mirror root is then the nearer float;
a block root's bracket is raised to the k-th power and x is the float
nearest to the root of R in it, found by exact signs of R evaluated from U
and V, so R's coefficients are never formed.  Root counts are therefore
exact and independent of any grid.  A squarefree certificate modulo a prime
runs only if the bisection goes deep, which is where a repeated root would
keep it from ending.  The roots above 1 are the partners of those below it
(the block value y = F(x) with F = f^k, the mirror partner t), in both
families: F is decreasing with F(1) = 1 and maps fixed points of F o F to
fixed points, so it pairs the block roots below 1 one-to-one with those
above; the mirror system z = N/D of invariants.im_prime_system_residual is
symmetric in z and t, and N - D = (theta - 1)(t^k - 1) with D > 0, so z - 1
and t - 1 have opposite signs on every positive solution and its roots pair
across 1 the same way.  Block set q-m is the image of block set m under
x -> 1/x.  Every root known from another root in these ways is rounded
inside the floats just outside the exact image of its source float's
half-ulp cell, once exact signs confirm that bracket (_derived_roots), and
isolated only where that fails.  Each root is then lifted to its partner
value and embedded in the full field system.

scan_sign_changes, refine, Bracket and SolverConfig form a generic grid
scan that no solver calls; perfbench/tracing.py still hooks
scan_sign_changes and refine by name.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from .errors import ConvergenceError, EvaluationError, ParameterError
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
    mobius_pow_k,
    recover_t_from_z,
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
    produces no bracket, so known roots must be seeded by the caller.
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
    """A polynomial root that does not lift to a positive mirror solution."""

    z: float
    reason: str


# prime modulus of the squarefree certificate
_CERT_PRIME = 2 ** 61 - 1
# bisection depth past which _isolate_unit_interval certifies its input
_CERT_DEPTH = 64


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
    """Remainder of a by b over GF(p); both trimmed, b nonzero.

    Eliminates from the top down on a copy of a; entries are reduced modulo
    p only where a quotient coefficient is read, and once at the end.
    """
    inv = pow(b[-1], -1, p)
    n = len(b) - 1
    low = b[:-1]
    a = list(a)
    for top in range(len(a) - 1, n - 1, -1):
        coef = a[top] * inv % p
        if coef:
            for i, bi in enumerate(low, top - n):
                a[i] -= coef * bi
    a = [c % p for c in a[:n]]
    while a and a[-1] == 0:
        a.pop()
    return a


def _require_squarefree(coeffs: list[int]) -> None:
    """Certify that an integer polynomial has no repeated root.

    gcd(c, c') of degree 0 modulo a prime that does not divide the leading
    coefficient implies the same over the rationals, because reduction
    modulo such a prime keeps the degree of every factor.  The bisection in
    _isolate_unit_interval only terminates on squarefree input, so it runs
    this once it passes _CERT_DEPTH or meets a repeated root on a midpoint.
    """
    p = _CERT_PRIME
    if coeffs[-1] % p == 0:
        raise ConvergenceError("root polynomial: leading coefficient vanishes "
                               "modulo the certificate prime")
    a = [c % p for c in coeffs]
    b = [i * c % p for i, c in enumerate(coeffs)][1:]
    while b and b[-1] == 0:
        b.pop()
    while b:
        a, b = b, _poly_rem_mod(a, b, p)
    if len(a) > 1:
        raise ConvergenceError("root polynomial is not certified squarefree: "
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


def _dyadic(num: int, j: int) -> float | Fraction:
    """num / 2^j, as a float where that is exact, else as a Fraction."""
    # num < 2^53 and j <= 1022 make the quotient a normal float or 0
    return num / (1 << j) if num < 1 << 53 and j <= 1022 else Fraction(num, 1 << j)


def _isolate_unit_interval(coeffs: list[int]) -> list[tuple[float | Fraction, float | Fraction]]:
    """Disjoint brackets, each holding exactly one root in (0, 1), ascending.

    Vincent-Collins-Akritas bisection (Collins and Akritas, SYMSAC 1976).
    The sub-polynomial of a dyadic interval (a, b) has the roots of c in
    (a, b) at x in (0, 1); by Descartes' rule the sign variations of
    (1+x)^n c_I(1/(1+x)) bound their number and have its parity, so 0 and 1
    settle an interval and anything else is halved.  A root landing exactly
    on a midpoint is returned as a bracket with lo == hi.  Each end is a
    float where that is exact (see _dyadic).  A count of 0 or 1
    is exact for any input, but only squarefree input lets the halving end,
    so the input is certified squarefree (ConvergenceError otherwise) once
    an interval is pushed past _CERT_DEPTH or a midpoint is a repeated root.
    """
    found = []
    certified = False
    stack = [(coeffs, 0, 0)]   # sub-polynomial on (num/2^j, (num+1)/2^j)
    while stack:
        c, num, j = stack.pop()
        v = _sign_variations(_taylor_shift_one(c[::-1]))
        if v == 0:
            continue
        if v == 1:
            found.append((_dyadic(num, j), _dyadic(num + 1, j)))
            continue
        n = len(c) - 1
        left = [ci << (n - i) for i, ci in enumerate(c)]   # 2^n c(x/2)
        right = _taylor_shift_one(left)                    # 2^n c((x+1)/2)
        if not certified and (j >= _CERT_DEPTH or right[0] == right[1] == 0):
            _require_squarefree(coeffs)
            certified = True
        if right[0] == 0:
            mid = _dyadic(2 * num + 1, j + 1)
            found.append((mid, mid))
            right = right[1:]
        stack.append((left, 2 * num, j + 1))
        stack.append((right, 2 * num + 1, j + 1))
    return sorted(found)


def _homogeneous(coeffs: list[int], x: Fraction | float) -> int:
    """den^n c(num/den) for c of degree n at a dyadic point x = num/den: Horner's rule with shifts.

    Every point the solver evaluates is dyadic: floats, their midpoints and
    bisection points.
    """
    num, den = x.as_integer_ratio()
    if den & (den - 1):
        raise EvaluationError(f"exact evaluation needs a dyadic point, got {x}")
    e = den.bit_length() - 1
    v, shift = coeffs[-1], 0
    for c in reversed(coeffs[:-1]):
        shift += e
        v = v * num + (c << shift)
    return v


def _sign_at(coeffs: list[int], x: Fraction | float) -> int:
    """Exact sign of the polynomial at a positive dyadic point (see _homogeneous)."""
    v = _homogeneous(coeffs, x)
    return (v > 0) - (v < 0)


def _scaled_values(coeffs: list[int], num: int, e: int) -> tuple[int, int, int]:
    """2^(e*n) c(x), 2^(e*(n-1)) c'(x) and 2^(e*(n-2)) c''(x)/2 at x = num / 2^e, exactly.

    Horner's rule for the value and the first two Taylor coefficients of c,
    of degree n, at the dyadic point, all in one pass: a shift replaces each
    multiplication by the denominator.
    """
    v, dv, d2v, shift = coeffs[-1], 0, 0, 0
    for c in reversed(coeffs[:-1]):
        shift += e
        d2v = d2v * num + dv
        dv = dv * num + v
        v = v * num + (c << shift)
    return v, dv, d2v


def _split(lo, hi) -> float | None:
    """A float strictly inside (lo, hi), geometric mean when hi > 4 lo > 0, or None."""
    flo, fhi = float(lo), float(hi)
    if flo > 0.0 and fhi > 4.0 * flo:
        mid = math.sqrt(flo) * math.sqrt(fhi)
    else:
        mid = 0.5 * (flo + fhi)
    return mid if lo < mid < hi else None


def _shrink(coeffs: list[int], lo: Fraction | float, hi: Fraction | float,
            ) -> tuple[Fraction | float, Fraction | float, int]:
    """Narrow the bracket (lo, hi) of one root of the polynomial to about one float spacing.

    Returns (lo, hi, s_lo), with s_lo the sign of the polynomial just inside
    lo; lo == hi if a step lands exactly on the root.  No float lies inside
    the result, except possibly one next to an end that is not a float
    (_split can miss it).  Bracketed Laguerre
    iteration on floats (Numerical Recipes, 9.5): with G = c'/c and
    H = G^2 - c''/c, taken as float ratios of the exact integer values of c,
    c' and c'' at the current point, the step for degree n is
    n / (G +- sqrt((n-1)(nH - G^2))), the sign chosen to enlarge the
    denominator; where the radicand is negative or not finite it is the
    Newton step 1/G.  The step is exact for a polynomial that behaves like
    (x-r)^n, which is how c looks far from its roots, where Newton steps
    are only about 1/n of the distance.  The exact sign at the current point
    decides which end of the bracket moves.  A step that leaves the bracket,
    or fails to halve the previous one, is replaced by a bisection; a step
    below half a unit in the last place probes the neighbouring float
    instead.  Terminates because every step moves an end to a float
    strictly inside the bracket.
    """
    if lo == hi:
        return lo, hi, 0
    # an end can be a root found exactly at a bisection midpoint; the bracket
    # still holds one more root, so the signs just inside the ends differ
    s_lo = _sign_at(coeffs, lo) or -_sign_at(coeffs, hi)
    n = len(coeffs) - 1
    x = _split(lo, hi)
    last_step = math.inf
    while x is not None:
        num, den = x.as_integer_ratio()
        e = den.bit_length() - 1
        v, dv, d2v = _scaled_values(coeffs, num, e)
        if v == 0:
            return x, x, 0
        if (v > 0) == (s_lo > 0):
            lo = x
        else:
            hi = x
        try:
            g = (dv << e) / v
            radicand = (n - 1) * ((n - 1) * g * g - n * ((d2v << (2 * e + 1)) / v))
            if radicand >= 0.0 and math.isfinite(radicand):
                step = n / (g + math.copysign(math.sqrt(radicand), g))
            else:
                step = 1.0 / g
        except (ZeroDivisionError, OverflowError):
            step = math.inf
        cand = x - step
        if cand == x:
            cand = math.nextafter(x, math.inf if x == lo else -math.inf)
        elif lo < cand < hi and abs(step) <= 0.5 * last_step:
            last_step = abs(step)
        else:
            cand = _split(lo, hi)
            if cand is not None:
                last_step = abs(cand - x)
        x = cand if cand is not None and lo < cand < hi else None
    return lo, hi, s_lo


def _floats_around(lo, hi) -> tuple[float, float]:
    """The floats f_lo <= lo and f_hi >= hi nearest to the ends of [lo, hi]."""
    f_lo, f_hi = float(lo), float(hi)
    if f_lo > lo:
        f_lo = math.nextafter(f_lo, -math.inf)
    if f_hi < hi:
        f_hi = math.nextafter(f_hi, math.inf)
    return f_lo, f_hi


def _nearest_float(sign, lo, hi, s_lo: int) -> float:
    """The float nearest to the one root in [lo, hi] of an exact sign function.

    sign(x) is exact at every dyadic rational; s_lo is its sign just inside
    lo, and lo == hi means the root is lo.  Bisects over the floats strictly
    inside (lo, hi), then picks the nearer of the two floats around what is
    left by the exact sign at their midpoint, so the result does not depend
    on how the bracket was found.  No sign is taken outside (lo, hi).
    """
    if lo == hi:
        return float(lo)
    # every float strictly between f_lo and f_hi lies strictly inside (lo, hi)
    f_lo, f_hi = _floats_around(lo, hi)
    x = _split(f_lo, f_hi)
    while x is not None:
        s = sign(x)
        if s == 0:
            return x
        if s == s_lo:
            lo = f_lo = x
        else:
            hi = f_hi = x
        x = _split(f_lo, f_hi)
    mid = (Fraction(f_lo) + Fraction(f_hi)) / 2
    if mid <= lo:
        return f_hi
    if mid >= hi:
        return f_lo
    s = sign(mid)
    if s == 0:
        return float(mid)
    return f_hi if s == s_lo else f_lo


def _two_step_sign(coeffs: list[int], k: int):
    """Exact sign function of R(x) = x U(x)^k - V(x)^k, from the coefficients of T.

    T(z) = z U(z^k) - V(z^k) holds the coefficients of U at degrees 1 + ik
    and those of -V at degrees ik.  At x = num/den, den^(k^2+1) R(x) is
    num Ut^k - den Vt^k with Ut = den^k U(x) and Vt = den^k V(x) evaluated
    homogeneously (see _homogeneous).
    """
    u, v = coeffs[1::k], [-c for c in coeffs[::k]]

    def sign(x) -> int:
        num, den = x.as_integer_ratio()
        r = num * _homogeneous(u, x) ** k - den * _homogeneous(v, x) ** k
        return (r > 0) - (r < 0)

    return sign


def _root_bound(coeffs: list[int]) -> float | Fraction:
    """A power of two above the modulus of every root (Fujiwara's bound).

    |z| <= 2 max_i |c_(n-i) / c_n|^(1/i), with each ratio bounded through
    the bit lengths of the coefficients.  A float where it and its
    reciprocal are exact floats, else a Fraction.
    """
    top = abs(coeffs[-1]).bit_length() - 1
    exp = 1 + max(-((top - abs(c).bit_length()) // i)
                  for i, c in enumerate(reversed(coeffs[:-1]), 1) if c)
    return math.ldexp(1.0, exp) if abs(exp) <= 1021 else Fraction(2) ** exp


def _ratio_map(num: list[int], den: list[int], k: int = 1):
    """The exact map v -> (num(v) / den(v))^k at dyadic v, for num and den of one degree."""
    return lambda v: Fraction(_homogeneous(num, v), _homogeneous(den, v)) ** k


def _derived_roots(sign, image, sources: list[float], prev: float) -> list[float] | None:
    """The roots that image takes the sources' roots to, each as its nearest float, or None.

    sources are floats, each nearest to a root that the exact map image (on
    dyadic rationals) takes to a root of sign's polynomial, ordered so that
    those images ascend.  Each bracket runs between the floats just outside
    the images of the ends of its source's half-ulp cell (the reals nearer
    to it than to any other float), which holds the source's root.  If the
    brackets ascend from above prev without overlap, each shows exact
    nonzero opposite signs at its ends, and the polynomial has as many roots
    above prev as there are sources, each holds exactly one root, which
    _nearest_float rounds.  Otherwise None; equal sources overlap.
    """
    roots = []
    for x in sources:
        fx = Fraction(x)
        ends = [image((fx + Fraction(math.nextafter(x, side))) / 2) for side in (0.0, math.inf)]
        lo, hi = _floats_around(min(ends), max(ends))
        if not prev < lo:
            return None
        s_lo = sign(lo)
        if not s_lo * sign(hi) < 0:
            return None
        roots.append(_nearest_float(sign, lo, hi, s_lo))
        prev = hi
    return roots


def _certified_roots(coeffs: list[int], partner=None, k: int = 1) -> list[float]:
    """Every positive root other than 1 of an integer polynomial, ascending.

    Divides out the root 1 with its multiplicity.  The roots in (0, 1) of a
    polynomial are isolated, a bracket that reaches 0 is closed by the root
    bound of the reversed polynomial, and each is shrunk; the roots in
    (1, inf) are the reciprocals of those in (0, 1) of the reversed
    polynomial, which at w > 0 has the sign of the polynomial at 1/w.  So
    every exact sign is taken at a dyadic point.  A repeated positive root
    raises ConvergenceError (see _isolate_unit_interval); one off the
    positive axis does not, as it changes no count.  Each root is returned
    as the float nearest to it, whatever bracket it is shrunk from.  With
    k > 1 the coefficients are those of T(z) = z U(z^k) - V(z^k) (see
    invariants.im_coeffs), and each root z is returned as the float nearest
    to x = z^k, a root of R(x) = x U(x)^k - V(x)^k: the bracket of z is
    raised to the k-th power and rounded by the exact signs of R.  Its sign
    just inside the bracket is that of T, which below 1 is the sign of
    T / (z - 1)^mu times (-1)^mu, mu the multiplicity of the root 1.

    partner, if given, is the exact map taking each root below 1 to its
    partner: F = f^k on x for block sets (k > 1), t = b1/b2 on z for mirror
    sets.  The partners must be all the roots in (1, inf), as they are in
    both families (see the module docstring); they are then rounded by
    _derived_roots.  If that fails, or no partner is given, the reversed
    polynomial is isolated, so a root above 1 that is no root's partner,
    such as a mirror root without a positive lift, is found only then.
    """
    deflated = _divide_out_unit_root(coeffs)
    sign = _two_step_sign(coeffs, k) if k > 1 else partial(_sign_at, deflated)
    # below 1, dividing out (z - 1)^mu flips the sign of T when mu is odd
    flip = -1 if k > 1 and (len(coeffs) - len(deflated)) % 2 else 1

    def unit_brackets(c: list[int]) -> list[tuple[Fraction | float, Fraction | float, int]]:
        # the shrunk brackets (lo, hi, s_lo) of the roots of c in (0, 1), ascending
        low = 1 / _root_bound(c[::-1])
        return [_shrink(c, lo or low, hi) for lo, hi in _isolate_unit_interval(c)]

    def nearest(lo, hi, s_lo: int) -> float:
        if k > 1:
            lo, hi = Fraction(lo) ** k, Fraction(hi) ** k
        return _nearest_float(sign, lo, hi, s_lo)

    roots = [nearest(lo, hi, flip * s) for lo, hi, s in unit_brackets(deflated)]
    above = _derived_roots(sign, partner, roots[::-1], 1.0) if partner else None
    if above is None:
        # w -> 1/w reverses each bracket, and with it the sign just inside
        # its low end; 1 / Fraction keeps the reciprocals exact
        above = [nearest(1 / Fraction(hi), 1 / Fraction(lo), -s)
                 for lo, hi, s in reversed(unit_brackets(deflated[::-1]))]
    return roots + above


def _block_solutions(params: ModelParams, set_id: InvariantSetId,
                     xs: list[float]) -> list[ReducedScalar]:
    """The block rows (x, f(x)^k) of set_id at the ascending fixed points xs, embedded."""
    # x = 1 is always a fixed point, and f(1)^k = 1 exactly
    solutions = [ReducedScalar(x=x, y=1.0 if x == 1.0 else mobius_pow_k(x, params, set_id.m),
                               set_id=set_id) for x in xs]
    for sol in solutions:
        embed_full(sol, params)
    return solutions


def solve_im(params: ModelParams, m: int) -> list[ReducedScalar]:
    """All block-pattern solutions (x, y) at the given parameters, ascending in x.

    x ranges over fixed points of the two-step map, found and counted
    exactly as the positive roots of the block two-step polynomial, through
    their k-th roots (see the module docstring); y = f(x)^k is the partner
    value, and x = 1 is always present.  Below theta_critical at least three
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
    order.  _derived_roots rounds each inside the reciprocal of a half-ulp
    cell; the root 1 has odd multiplicity, so its bracket too shows a sign
    change.  Where that fails, the set is solved by solve_im(params, q - m).
    """
    params.require_solver_regime()
    InvariantSetId(SetKind.IM, m).validate_for(params.q)
    set_id = InvariantSetId(SetKind.IM, params.q - m)
    sign = _two_step_sign(im_coeffs(params, set_id.m), params.k)
    xs = _derived_roots(sign, lambda v: 1 / v, [sol.x for sol in reversed(solutions)], 0.0)
    if xs is None:
        return solve_im(params, set_id.m)
    return _block_solutions(params, set_id, xs)


def solve_im_prime(params: ModelParams, m: int,
                   ) -> tuple[list[ReducedScalar], list[RejectedRoot]]:
    """All mirror-pattern solutions, ascending in x, plus rejected polynomial roots.

    The positive roots of the mirror polynomial are found and counted
    exactly from its integer coefficients (see the module docstring), so the
    count does not depend on any grid.  Every accepted root z recovers a
    positive partner t and satisfies the coupled fixed-point system to 1e-9;
    roots whose partner is nonpositive or that miss the system are reported
    in the second list with a reason.  The roots above 1 are taken from the
    partners t of those below it (see _certified_roots), so a root above 1
    that is no such partner is found, and reported, only when that pairing
    falls back to isolating the roots above 1.
    """
    params.require_solver_regime()
    set_id = InvariantSetId(SetKind.IM_PRIME, m)
    set_id.validate_for(params.q)

    b1, b2 = im_prime_bases(params, m)
    # b2 padded to the degree of b1, so that both scale alike
    roots = _certified_roots(im_prime_coeffs(params, m), _ratio_map(b1, b2 + [0]))
    roots.append(1.0)  # p(1) = 0 exactly

    solutions = []
    rejected = []
    for z in sorted(roots):
        # z = t = 1 solves the system exactly; recover_t_from_z's b1(1)/b2(1)
        # can round to 1 +- 1 ulp
        t = 1.0 if z == 1.0 else recover_t_from_z(z, params, m)
        if t is None:
            rejected.append(RejectedRoot(z=z, reason="partner value t not positive"))
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
