"""Scalar reductions of the period-two recursion on permutation-invariant subspaces.

Two families of patterned field pairs, written in exponentiated coordinates
(x_i = exp(h_i), so the value 1 means a zero field component), are preserved
by the recursion:

  block  ("im"):      u = (x, ..., x, 1, ..., 1)          v = (y, ..., y, 1, ..., 1)
  mirror ("imprime"): u = (x^m, 1^(q-1-2m), y^m)          v = (y^m, 1^(q-1-2m), x^m)

with m leading components in the block case and two m-blocks around a middle
band of ones in the mirror case.  On either subspace the full recursion
collapses to scalar equations built from the fractional-linear map

    f(x) = ((theta+m-1)x + q-m) / (mx + theta+q-m-1)

and its k-th power.  Block solutions are roots of the integer quotient
polynomial of im_coeffs, mirror solutions roots of an explicit one-variable
polynomial in z = x^(1/k) with the integer coefficients of im_prime_coeffs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

import mpmath as mp
import numpy as np

from .errors import ConvergenceError, DomainError, HypothesisError, ParameterError
from .model import ModelParams, PeriodTwoField, residual_norm

# working precision for the mirror polynomial: its two product terms cancel
# almost exactly near z = 1, which float64 cannot resolve
_POLY_DPS = 40


class SetKind(str, Enum):
    IM = "im"
    IM_PRIME = "imprime"


@dataclass(frozen=True)
class InvariantSetId:
    """Which invariant subspace a scalar solution lives on."""

    kind: SetKind
    m: int

    def __post_init__(self) -> None:
        if not isinstance(self.kind, SetKind):
            raise ParameterError(f"kind must be a SetKind, got {self.kind!r}")
        if not isinstance(self.m, int) or isinstance(self.m, bool) or self.m < 1:
            raise ParameterError(f"m must be a positive integer, got {self.m!r}")

    def validate_for(self, q: int) -> None:
        if self.kind is SetKind.IM:
            if not 1 <= self.m <= q - 1:
                raise ParameterError(f"block set needs 1 <= m <= q-1, got m={self.m}, q={q}")
        else:
            if not (1 <= self.m and 2 * self.m <= q - 1):
                raise ParameterError(f"mirror set needs 2m <= q-1, got m={self.m}, q={q}")

    def label(self) -> str:
        return f"{self.kind.value}:{self.m}"


@dataclass
class ReducedScalar:
    """A scalar solution (x, y) on an invariant subspace.

    Mirror solutions also carry the root coordinates (z, t) with x = z^k and
    y = t^k.  embed_full fills in full_field and residual_full, the expanded
    (q-1)-component field pair and its max-norm fixed-point residual.
    """

    x: float
    y: float
    set_id: InvariantSetId
    z: float | None = None
    t: float | None = None
    residual_full: float = field(default=math.nan)
    full_field: PeriodTwoField | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if not (self.x > 0.0 and math.isfinite(self.x)):
            raise DomainError(f"x must be a finite positive real, got {self.x!r}")
        if not (self.y > 0.0 and math.isfinite(self.y)):
            raise DomainError(f"y must be a finite positive real, got {self.y!r}")
        if self.set_id.kind is SetKind.IM_PRIME:
            if self.z is None or self.t is None:
                raise ParameterError("mirror solutions must carry z and t")
            for name, root in (("z", self.z), ("t", self.t)):
                if not (root > 0.0 and math.isfinite(root)):
                    raise DomainError(f"{name} must be a finite positive real, got {root!r}")
        elif self.z is not None or self.t is not None:
            raise ParameterError("block solutions must not carry z or t")


def _check_x(x: float) -> float:
    x = float(x)
    if not math.isfinite(x) or x < 0.0:
        raise DomainError(f"argument must be a finite nonnegative real, got {x!r}")
    return x


def mobius_map(x: float, params: ModelParams, m: int) -> float:
    """Fractional-linear building block of the scalar recursion.

        f(x) = ((theta+m-1)x + q-m) / (mx + theta+q-m-1)

    Strictly decreasing and positive on [0, inf) for 0 < theta < 1, with
    f(0) = (q-m)/(theta+q-m-1) and limit (theta+m-1)/m at infinity.
    """
    InvariantSetId(SetKind.IM, m).validate_for(params.q)
    x = _check_x(x)
    theta, q = params.theta, params.q
    den = m * x + theta + q - m - 1.0
    # q-m-1 >= 0 and theta > 0, so the denominator is positive on x >= 0
    return ((theta + m - 1.0) * x + (q - m)) / den


def mobius_pow_k(x: float, params: ModelParams, m: int) -> float:
    """k-th power f(x)^k, the one-generation parent value of a child value x."""
    return math.exp(params.k * math.log(mobius_map(x, params, m)))


def two_step_map(x: float, params: ModelParams, m: int) -> float:
    """Two-generation composition g(x) = (f((f(x))^k))^k; fixed points give block solutions."""
    return mobius_pow_k(mobius_pow_k(x, params, m), params, m)


def mobius_deriv(x: float, params: ModelParams, m: int) -> float:
    """Derivative of mobius_map: (theta-1)(theta+q-1) / (mx + theta+q-m-1)^2."""
    InvariantSetId(SetKind.IM, m).validate_for(params.q)
    x = _check_x(x)
    theta, q = params.theta, params.q
    den = m * x + theta + q - m - 1.0
    return (theta - 1.0) * (theta + q - 1.0) / (den * den)


def two_step_slope_at_one(params: ModelParams) -> float:
    """Slope of the two-step map at its unit fixed point: (k(theta-1)/(theta+q-1))^2.

    Independent of the block index m; exceeds 1 exactly when theta is below
    theta_critical(q, k), which is where non-unit fixed points branch off.
    """
    r = params.k * (params.theta - 1.0) / (params.theta + params.q - 1.0)
    return r * r


def theta_critical(q: int, k: int) -> float:
    """Threshold (k-q+1)/(k+1) separating one from at least three block solutions."""
    if not isinstance(q, int) or not isinstance(k, int):
        raise ParameterError(f"q and k must be integers, got {q!r}, {k!r}")
    if k < 3 or not 3 <= q < k + 1:
        raise HypothesisError(f"theta_critical needs k >= 3 and 3 <= q <= k, got q={q}, k={k}")
    return (k - q + 1) / (k + 1)


def _poly_terms(z, params: ModelParams, m: int):
    """The four mirror-polynomial factors at working precision."""
    th = mp.mpf(params.theta)
    q, k = params.q, params.k
    zz = mp.mpf(z)
    zk = zz ** k
    zk1 = zk * zz
    b1 = (th + 2 * m - 1) * zk - m * zk1 + m * zz + (q - 2 * m)
    b2 = m * zk + (th + q - m - 1)
    qfac = th + m - 1 - m * zz
    pfac = m * zk1 - m * zk + (th + q - 2 * m - 1) * zz - (q - 2 * m)
    return b1, b2, qfac, pfac


def _to_float(v) -> float:
    try:
        return float(v)
    except OverflowError:
        return math.inf if v > 0 else -math.inf


def im_prime_poly(z: float, params: ModelParams, m: int) -> float:
    """Mirror-set root polynomial in z = x^(1/k).

        p(z) = [(theta+2m-1)z^k - m z^(k+1) + m z + q-2m]^k (theta+m-1 - m z)
             - [m z^k + theta+q-m-1]^k [m z^(k+1) - m z^k + (theta+q-2m-1)z - q+2m]

    This is the elimination of t from the mirror fixed-point system (see
    im_prime_system_residual and recover_t_from_z), with the common factor
    (theta-1)^k divided out.  p(1) = 0 always, and
    p(0) = (q-2m)^k (theta+m-1) + (q-2m) (theta+q-m-1)^k.
    Evaluated at extended precision because the two products
    agree to leading order near z = 1; values too large for float64 are
    clamped to +/- inf with the correct sign.
    """
    InvariantSetId(SetKind.IM_PRIME, m).validate_for(params.q)
    z = _check_x(z)
    with mp.workdps(_POLY_DPS):
        b1, b2, qfac, pfac = _poly_terms(z, params, m)
        return _to_float(b1 ** params.k * qfac - b2 ** params.k * pfac)


def im_prime_poly_mp(z, params: ModelParams, m: int, dps: int = _POLY_DPS):
    """Arbitrary-precision value of the mirror polynomial as an mpmath number.

    Accepts mpmath arguments for z, so derivative estimates can difference
    the polynomial at step sizes float64 cancellation would destroy.
    """
    InvariantSetId(SetKind.IM_PRIME, m).validate_for(params.q)
    with mp.workdps(dps):
        b1, b2, qfac, pfac = _poly_terms(z, params, m)
        return b1 ** params.k * qfac - b2 ** params.k * pfac


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def im_prime_coeffs(params: ModelParams, m: int) -> list[int]:
    """Exact integer coefficients of D^(k+1) p(z), lowest degree first.

    theta is a float, hence an exact dyadic rational A/D.  Each of the four
    factors of im_prime_poly is scaled by D, so their products expand in
    integer arithmetic with no rounding.  The degree is k(k+1)+1; for odd k
    the top coefficient cancels and is trimmed, leaving degree k(k+1).
    """
    InvariantSetId(SetKind.IM_PRIME, m).validate_for(params.q)
    q, k = params.q, params.k
    theta = Fraction(params.theta)
    a, d = theta.numerator, theta.denominator
    b1 = [0] * (k + 2)
    b1[0] += (q - 2 * m) * d
    b1[1] += m * d
    b1[k] += a + (2 * m - 1) * d
    b1[k + 1] += -m * d
    b2 = [0] * (k + 1)
    b2[0] += a + (q - m - 1) * d
    b2[k] += m * d
    qfac = [a + (m - 1) * d, -m * d]
    pfac = [0] * (k + 2)
    pfac[0] += -(q - 2 * m) * d
    pfac[1] += a + (q - 2 * m - 1) * d
    pfac[k] += -m * d
    pfac[k + 1] += m * d
    b1k, b2k = [1], [1]
    for _ in range(k):
        b1k, b2k = _poly_mul(b1k, b1), _poly_mul(b2k, b2)
    left, right = _poly_mul(b1k, qfac), _poly_mul(b2k, pfac)
    coeffs = [u - v for u, v in zip(left, right)]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _binomial_power(u: int, v: int, k: int) -> list[int]:
    """Coefficients of (u x + v)^k, lowest degree first."""
    return [math.comb(k, i) * u ** i * v ** (k - i) for i in range(k + 1)]


def _poly_sub(a: list[int], b: list[int]) -> list[int]:
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0) for i in range(n)]


def _primitive(coeffs: list[int]) -> list[int]:
    g = math.gcd(*coeffs)
    return [c // g for c in coeffs]


def _exact_quotient(num: list[int], den: list[int]) -> list[int]:
    """num / den over the integers, lowest degree first; den must divide num.

    Raises ConvergenceError when a quotient coefficient is not an integer or
    a remainder is left, instead of returning an inexact quotient.
    """
    num = list(num)
    n = len(den) - 1
    quot = [0] * (len(num) - n)
    for i in range(len(num) - 1, n - 1, -1):
        qi, r = divmod(num[i], den[-1])
        if r:
            raise ConvergenceError("polynomial division is not exact: "
                                   f"coefficient of degree {i} leaves {r}")
        quot[i - n] = qi
        if qi:
            for j, dj in enumerate(den):
                num[i - n + j] -= qi * dj
    if any(num[:n]):
        raise ConvergenceError("polynomial division leaves a nonzero remainder")
    return quot


def im_coeffs(params: ModelParams, m: int) -> list[int]:
    """Exact integer coefficients of the block quotient polynomial, lowest degree first.

    theta is a float, hence an exact dyadic rational A/D.  With
    a = A+(m-1)D, b = (q-m)D, c = mD, d = A+(q-m-1)D the map is
    f(x) = (ax+b)/(cx+d); put P = (ax+b)^k and Q = (cx+d)^k.  Fixed points of
    the two-step map are the positive roots of

        R(x) = x (cP + dQ)^k - (aP + bQ)^k          (degree k^2+1),

    and those of f^k alone, of which x = 1 is the only positive one, are the
    roots of S(x) = x (cx+d)^k - (ax+b)^k, which divides R.  The result is
    the primitive part of R / S, of degree k^2-k: its positive roots other
    than x = 1 are exactly the non-unit block solutions.  A nonzero remainder
    raises ConvergenceError.
    """
    InvariantSetId(SetKind.IM, m).validate_for(params.q)
    q, k = params.q, params.k
    theta = Fraction(params.theta)
    A, D = theta.numerator, theta.denominator
    a, b, c, d = A + (m - 1) * D, (q - m) * D, m * D, A + (q - m - 1) * D
    P, Q = _binomial_power(a, b, k), _binomial_power(c, d, k)
    U = [c * p + d * r for p, r in zip(P, Q)]
    V = [a * p + b * r for p, r in zip(P, Q)]
    Uk, Vk = [1], [1]
    for _ in range(k):
        Uk, Vk = _poly_mul(Uk, U), _poly_mul(Vk, V)
    R = _poly_sub([0] + Uk, Vk)
    S = _primitive(_poly_sub([0] + Q, P))
    return _primitive(_exact_quotient(R, S))


def im_prime_poly_slope_at_one(params: ModelParams) -> float:
    """Sign-defining slope factor of the mirror polynomial at z = 1.

    With s = theta - 1 this is (k^2-1)s^2 - 2qs - q^2.  The polynomial's true
    derivative at z = 1 equals (theta+q-1)^(k-1) times this value, so its sign
    (positive exactly for theta < theta_critical) decides whether non-unit
    roots branch off z = 1.  Independent of the mirror index m.
    """
    s = params.theta - 1.0
    q, k = params.q, params.k
    return (k * k - 1.0) * s * s - 2.0 * q * s - q * q


def recover_t_from_z(z: float, params: ModelParams, m: int) -> float | None:
    """Partner coordinate t for a candidate mirror root z, or None if invalid.

        t^k = (m z^(k+1) - m z^k + (theta+q-2m-1)z - q+2m) / (theta+m-1 - m z)

    Returns None when the denominator vanishes or the ratio is not strictly
    positive, in which case z does not yield a real positive solution.
    """
    InvariantSetId(SetKind.IM_PRIME, m).validate_for(params.q)
    z = _check_x(z)
    th, q, k = params.theta, params.q, params.k
    den = th + m - 1.0 - m * z
    if den == 0.0:
        return None
    num = m * z ** (k + 1) - m * z ** k + (th + q - 2.0 * m - 1.0) * z - (q - 2.0 * m)
    tk = num / den
    if not (tk > 0.0 and math.isfinite(tk)):
        return None
    return tk ** (1.0 / k)


def im_prime_system_residual(z: float, t: float, params: ModelParams, m: int) -> float:
    """Max residual of the coupled mirror fixed-point equations at (z, t).

        z = ((theta+m-1)t^k + m z^k + q-2m) / (theta + m z^k + m t^k + q-2m-1)

    and the same with z and t exchanged.
    """
    InvariantSetId(SetKind.IM_PRIME, m).validate_for(params.q)
    th, q, k = params.theta, params.q, params.k
    zk, tk = z ** k, t ** k
    den = th + m * zk + m * tk + q - 2.0 * m - 1.0
    r1 = z - ((th + m - 1.0) * tk + m * zk + (q - 2.0 * m)) / den
    r2 = t - ((th + m - 1.0) * zk + m * tk + (q - 2.0 * m)) / den
    return max(abs(r1), abs(r2))


def embed_full(sol: ReducedScalar, params: ModelParams) -> PeriodTwoField:
    """Expand a scalar solution into the full (q-1)-component field pair.

    Block pattern: m leading components ln(x) (ln(y) on the odd sublattice),
    zeros elsewhere.  Mirror pattern: m leading ln(x), a middle band of zeros,
    m trailing ln(y), with the two logs exchanged on the odd sublattice.
    Stores the full-system residual max-norm on the solution record.
    """
    sol.set_id.validate_for(params.q)
    n = params.q - 1
    m = sol.set_id.m
    lx, ly = math.log(sol.x), math.log(sol.y)
    h_even = np.zeros(n)
    h_odd = np.zeros(n)
    if sol.set_id.kind is SetKind.IM:
        h_even[:m] = lx
        h_odd[:m] = ly
    else:
        h_even[:m] = lx
        h_even[n - m:] = ly
        h_odd[:m] = ly
        h_odd[n - m:] = lx
    fld = PeriodTwoField(h_even, h_odd)
    sol.residual_full = residual_norm(fld, params)
    sol.full_field = fld
    return fld
