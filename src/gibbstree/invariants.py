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

and its k-th power.  Block solutions are roots of the two-step polynomial
in x, mirror solutions roots of an explicit one-variable polynomial in
z = x^(1/k).  im_coeffs and im_prime_coeffs give the exact integer
coefficients of the polynomials the solver isolates, both in z = x^(1/k):
the sparse block polynomial z U(z^k) - V(z^k), whose positive roots are
the k-th roots of those of the two-step polynomial x U(x)^k - V(x)^k, and
the mirror polynomial in the form A^k alpha - B^k beta.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from itertools import zip_longest

from .errors import DomainError, HypothesisError, ParameterError
from .model import ModelParams, PeriodTwoField, residual_norm

# working precision for the mirror polynomial: its two product terms cancel
# almost exactly near z = 1, which float64 cannot resolve.  mpmath is
# imported inside the functions that use it: no solver does, and the CLI
# would otherwise pay its import time on every run.
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
    A solver's x, y, z and t are floats nearest to exact roots, and y (or t)
    is another row's x (or z).  The half-ulp cell of a block x holds its
    root; solver.solve_im_reciprocal derives set q-m from it.
    """

    x: float
    y: float
    set_id: InvariantSetId
    z: float | None = None
    t: float | None = None
    residual_full: float = field(default=math.nan, init=False)
    full_field: PeriodTwoField | None = field(default=None, init=False, repr=False)

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


def _to_float(v) -> float:
    try:
        return float(v)
    except OverflowError:
        return math.inf if v > 0 else -math.inf


def im_prime_poly_mp(z, params: ModelParams, m: int, dps: int = _POLY_DPS):
    """Mirror-set root polynomial in z = x^(1/k), as an mpmath number.

        p(z) = b1(z)^k (theta+m-1 - m z)
             - b2(z)^k [m z^(k+1) - m z^k + (theta+q-2m-1)z - q+2m]

    with the two bases b1(z) = (theta+2m-1)z^k - m z^(k+1) + m z + q-2m and
    b2(z) = m z^k + theta+q-m-1.

    This is the elimination of t from the mirror fixed-point system (see
    im_prime_system_residual), with the common factor (theta-1)^k divided
    out; at a root, t = b1(z)/b2(z).  p(1) = 0 always, and
    p(0) = (q-2m)^k (theta+m-1) + (q-2m) (theta+q-m-1)^k.  Evaluated at dps
    digits because the two products agree to leading order near z = 1.
    Accepts mpmath arguments for z, so derivative estimates can difference
    the polynomial at step sizes float64 cancellation would destroy.
    """
    import mpmath as mp

    InvariantSetId(SetKind.IM_PRIME, m).validate_for(params.q)
    q, k = params.q, params.k
    with mp.workdps(dps):
        th = mp.mpf(params.theta)
        zz = mp.mpf(z)
        zk = zz ** k
        zk1 = zk * zz
        b1 = (th + 2 * m - 1) * zk - m * zk1 + m * zz + (q - 2 * m)
        b2 = m * zk + (th + q - m - 1)
        qfac = th + m - 1 - m * zz
        pfac = m * zk1 - m * zk + (th + q - 2 * m - 1) * zz - (q - 2 * m)
        return b1 ** k * qfac - b2 ** k * pfac


def im_prime_poly(z: float, params: ModelParams, m: int) -> float:
    """im_prime_poly_mp at a float z >= 0, rounded to float64.

    Values too large for float64 are clamped to +/- inf with the correct sign.
    """
    return _to_float(im_prime_poly_mp(_check_x(z), params, m))


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _poly_pow(p: list[int], k: int) -> list[int]:
    """Coefficients of p^k, lowest degree first, for p[0] != 0.

    J. C. P. Miller's recurrence (Knuth, TAOCP vol. 2, 4.7): with r = p^k,
    r[0] = p[0]^k and j p[0] r[j] = sum_i ((k+1)i - j) p[i] r[j-i].  It
    follows from p r' = k p' r; every division is exact because r has
    integer coefficients.  Zero terms of p cost nothing.
    """
    if not p[0]:
        raise ParameterError("power recurrence needs a nonzero constant term")
    terms = [(i, pi) for i, pi in enumerate(p) if pi and i]
    n = len(p) - 1
    r = [p[0] ** k]
    for j in range(1, n * k + 1):
        acc = 0
        for i, pi in terms:
            if i > j:
                break
            acc += ((k + 1) * i - j) * pi * r[j - i]
        r.append(acc // (j * p[0]))
    return r


def im_prime_bases(params: ModelParams, m: int) -> tuple[list[int], list[int]]:
    """Integer coefficients of D b1(z) and D b2(z), lowest degree first, theta = A/D.

    b1 and b2 are the bases of im_prime_poly_mp; at a root z, t = b1(z)/b2(z).
    """
    InvariantSetId(SetKind.IM_PRIME, m).validate_for(params.q)
    q, k = params.q, params.k
    a, d = params.theta.as_integer_ratio()
    b1 = [0] * (k + 2)
    b1[0] += (q - 2 * m) * d
    b1[1] += m * d
    b1[k] += a + (2 * m - 1) * d
    b1[k + 1] += -m * d
    b2 = [0] * (k + 1)
    b2[0] += a + (q - m - 1) * d
    b2[k] += m * d
    return b1, b2


def im_prime_coeffs(params: ModelParams, m: int) -> list[int]:
    """Exact integer coefficients of D^(k+1) p(z), lowest degree first.

    theta is a float, hence an exact dyadic rational A/D.  Each of the four
    factors of im_prime_poly_mp is scaled by D (the bases by im_prime_bases),
    so their products expand in integer arithmetic with no rounding.  The
    degree is k(k+1)+1; for odd k the top coefficient cancels and is trimmed,
    leaving degree k(k+1).
    """
    b1, b2 = im_prime_bases(params, m)
    q, k = params.q, params.k
    a, d = params.theta.as_integer_ratio()
    qfac = [a + (m - 1) * d, -m * d]
    pfac = [0] * (k + 2)
    pfac[0] += -(q - 2 * m) * d
    pfac[1] += a + (q - 2 * m - 1) * d
    pfac[k] += -m * d
    pfac[k + 1] += m * d
    left, right = _poly_mul(_poly_pow(b1, k), qfac), _poly_mul(_poly_pow(b2, k), pfac)
    coeffs = [s - t for s, t in zip_longest(left, right, fillvalue=0)]
    while not coeffs[-1]:  # p(0) > 0, so this stops
        coeffs.pop()
    return coeffs


def im_map_coeffs(params: ModelParams, m: int) -> tuple[int, int, int, int]:
    """Integers (a, b, c, d) with mobius_map's f(x) = (ax+b)/(cx+d) exactly.

    theta is a float, hence an exact dyadic rational A/D, and
    a = A+(m-1)D, b = (q-m)D, c = mD, d = A+(q-m-1)D, all positive.
    """
    InvariantSetId(SetKind.IM, m).validate_for(params.q)
    A, D = params.theta.as_integer_ratio()
    return A + (m - 1) * D, (params.q - m) * D, m * D, A + (params.q - m - 1) * D


def im_coeffs(params: ModelParams, m: int) -> list[int]:
    """Exact integer coefficients of the block root polynomial T, lowest degree first.

    With the integers a, b, c and d of im_map_coeffs, f(x) = (ax+b)/(cx+d);
    put P = (ax+b)^k, Q = (cx+d)^k, U = cP + dQ and V = aP + bQ.  Fixed
    points of the two-step map are the positive roots of

        R(x) = x U(x)^k - V(x)^k                    (degree k^2+1).

    R is divisible by S(x) = x (cx+d)^k - (ax+b)^k, whose roots are the fixed
    points of f^k; f^k is decreasing, so x = 1 is the only positive one.
    The positive roots of R other than x = 1 are therefore exactly the
    non-unit block solutions.  a, b, c and d are positive, so U and V are
    positive for x > 0, and at x = z^k with z > 0 R has the sign of

        T(z) = z U(z^k) - V(z^k),

    the polynomial returned: the block solutions are the k-th powers of its
    positive roots.  T has R's degree, k^2+1, but only 2k+2 nonzero terms,
    the coefficients of U at degrees 1 + ik and those of -V at degrees ik.
    R(z^k) is the product of T(w z) over the k-th roots of unity w, so T is
    squarefree where R is, and z = 1 is a root of T of the multiplicity of
    x = 1 in R.
    """
    k = params.k
    a, b, c, d = im_map_coeffs(params, m)
    P, Q = _poly_pow([b, a], k), _poly_pow([d, c], k)
    coeffs = [0] * (k * k + 2)
    for i, (p, r) in enumerate(zip(P, Q)):
        coeffs[i * k + 1] = c * p + d * r
        coeffs[i * k] = -(a * p + b * r)
    return coeffs


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
    if sol.set_id.kind is SetKind.IM:
        h_even = [lx] * m + [0.0] * (n - m)
        h_odd = [ly] * m + [0.0] * (n - m)
    else:
        band = [0.0] * (n - 2 * m)
        h_even = [lx] * m + band + [ly] * m
        h_odd = [ly] * m + band + [lx] * m
    fld = PeriodTwoField(h_even, h_odd)
    sol.residual_full = residual_norm(fld, params)
    sol.full_field = fld
    return fld
