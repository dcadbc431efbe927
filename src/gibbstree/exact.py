"""The exact kernel: each positive root of an integer polynomial as its nearest float.

Coefficients are integers, lowest degree first.  A point is a float or an
integer pair (num, den), den > 0; bisection ends are floats where exact, and
k-th powers, reciprocals and ratio-map images are pairs with no common factor
removed.  Points compare by cross-multiplication (_lt); every exact sign is
taken at a dyadic point (_homogeneous).  No Fraction is formed.

_shrink runs bracketed Laguerre steps (_laguerre) on exact signs, each a
big-integer Horner pass, from a float seed: the same loop on float values of
the coefficients, stopped where the float value falls within Horner's error
bound (2n+1) 2^-53 sum |c_i| x^i of 0 (_float_seed).  Every end of the exact
bracket still moves by an exact sign, so it holds the root whatever the seed
(one outside it is ignored), and _nearest_float rounds inside any bracket
that holds the root by exact signs: the seed changes how many exact passes
run, never a root.  Every shrink bracket lies in (0, 1), where that bound is
at most sum |c_i|, so it is accumulated only where |v| is below that sum
padded for rounding.  The sign just inside lo comes from the isolation.

A block two-step sign first compares bounds of both sides from 96-bit heads
(_head_sign); bounds that do not overlap order the sides themselves, so the
filter can leave a sign to the full powers but never change one.
"""
from __future__ import annotations

import math
from functools import partial

from .errors import ConvergenceError, EvaluationError

# prime modulus of the squarefree certificate
_CERT_PRIME = 2 ** 61 - 1
# bisection depth past which _isolate_unit_interval certifies its input
_CERT_DEPTH = 64
# head bits of each side of a two-step sign: bounds about k 2^-96 wide relative to
# a side separate except within ~2^-40 ulp of a root, at a fraction of the full cost
_HEAD_BITS = 96


def _ratio(x) -> tuple[int, int]:
    """The integer pair (num, den) of a point."""
    return x if type(x) is tuple else x.as_integer_ratio()


def _to_float(x) -> float:
    """The float nearest to a point (int / int rounds correctly)."""
    return x[0] / x[1] if type(x) is tuple else float(x)


def _lt(a, b) -> bool:
    """a < b for points, by cross-multiplication where either is a pair."""
    if type(a) is tuple or type(b) is tuple:
        (an, ad), (bn, bd) = _ratio(a), _ratio(b)
        return an * bd < bn * ad
    return a < b


def _inside(lo, x, hi) -> bool:
    """lo < x < hi for a float x."""
    return math.isfinite(x) and _lt(lo, x) and _lt(x, hi)


def _midpoint(a: float, b: float) -> tuple[int, int]:
    """(a + b) / 2 for floats a and b, as a dyadic pair."""
    (an, ad), (bn, bd) = a.as_integer_ratio(), b.as_integer_ratio()
    d = max(ad, bd)
    return an * (d // ad) + bn * (d // bd), 2 * d


def _divide_out_unit_root(coeffs: list[int]) -> list[int]:
    """Divide (z-1) out of an integer polynomial as often as z = 1 is a root.

    The division is exact and stays in integers.  At a dyadic
    theta_critical z = 1 is a triple root of either root polynomial.
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


def _dyadic(num: int, j: int) -> float | tuple[int, int]:
    """num / 2^j, as a float where that is exact, else as a pair."""
    # num < 2^53 and j <= 1022 make the quotient a normal float; 0 stays 0.0, a falsy end
    return num / (1 << j) if num < 1 << 53 and (j <= 1022 or not num) else (num, 1 << j)


def _isolate_unit_interval(coeffs: list[int]) -> list[tuple]:
    """Disjoint brackets (lo, hi, s), each holding exactly one root in (0, 1), ascending.

    Vincent-Collins-Akritas bisection (Collins and Akritas, SYMSAC 1976).
    The sub-polynomial of a dyadic interval (a, b) has the roots of c in
    (a, b) at x in (0, 1); by Descartes' rule the sign variations of
    (1+x)^n c_I(1/(1+x)) bound their number and have its parity, so 0 and 1
    settle an interval and anything else is halved.  s is the sign of c just
    inside lo, that of c_I's lowest nonzero coefficient, even where lo is a
    root.  A root exactly on a midpoint is returned as a bracket with
    lo == hi and s = 0.  Only squarefree input lets the halving end, so the
    input is certified squarefree (ConvergenceError otherwise) once an
    interval is pushed past _CERT_DEPTH or a midpoint is a repeated root.
    """
    found = []                 # (a, b, j, s): the bracket (a/2^j, b/2^j), s the sign just inside a
    certified = False
    stack = [(coeffs, 0, 0)]   # sub-polynomial on (num/2^j, (num+1)/2^j)
    while stack:
        c, num, j = stack.pop()
        v = _sign_variations(_taylor_shift_one(c[::-1]))
        if v == 0:
            continue
        if v == 1:
            found.append((num, num + 1, j, 1 if next(ci for ci in c if ci) > 0 else -1))
            continue
        n = len(c) - 1
        left = [ci << (n - i) for i, ci in enumerate(c)]   # 2^n c(x/2)
        right = _taylor_shift_one(left)                    # 2^n c((x+1)/2)
        if not certified and (j >= _CERT_DEPTH or right[0] == right[1] == 0):
            _require_squarefree(coeffs)
            certified = True
        if right[0] == 0:
            found.append((2 * num + 1, 2 * num + 1, j + 1, 0))
            right = right[1:]
        stack.append((left, 2 * num, j + 1))
        stack.append((right, 2 * num + 1, j + 1))
    depth = max((j for _, _, j, _ in found), default=0)
    found.sort(key=lambda f: (f[0] << (depth - f[2]), f[1] << (depth - f[2])))
    return [(_dyadic(a, j), _dyadic(b, j), s) for a, b, j, s in found]


def _homogeneous(coeffs: list[int], x) -> int:
    """den^n c(num/den), c of degree n, at a dyadic point x = num/den: Horner's rule with shifts."""
    num, den = _ratio(x)
    if den & (den - 1):
        raise EvaluationError(f"exact evaluation needs a dyadic point, got {num}/{den}")
    e = den.bit_length() - 1
    v, shift = coeffs[-1], 0
    for c in reversed(coeffs[:-1]):
        shift += e
        v = v * num + (c << shift)
    return v


def _sign_at(coeffs: list[int], x) -> int:
    """Exact sign of the polynomial at a positive dyadic point (see _homogeneous)."""
    v = _homogeneous(coeffs, x)
    return (v > 0) - (v < 0)


def _scaled_values(coeffs: list[int], x: float) -> tuple[int, float, float]:
    """The exact sign of c at the float x, with c'(x)/c(x) and c''(x)/c(x) as floats (inf if none).

    One exact Horner pass over 2^(e*n) c, 2^(e*(n-1)) c' and 2^(e*(n-2)) c''/2
    at x = num / 2^e: a shift replaces each multiplication by 2^e.
    """
    num, den = x.as_integer_ratio()
    e = den.bit_length() - 1
    v, dv, d2v, shift = coeffs[-1], 0, 0, 0
    for c in reversed(coeffs[:-1]):
        shift += e
        d2v = d2v * num + dv
        dv = dv * num + v
        v = v * num + (c << shift)
    try:
        return (v > 0) - (v < 0), (dv << e) / v, (d2v << (2 * e + 1)) / v
    except (ZeroDivisionError, OverflowError):
        return (v > 0) - (v < 0), math.inf, 0.0


def _split(lo, hi) -> float | None:
    """A float strictly inside (lo, hi), geometric mean when hi > 4 lo > 0, or None."""
    flo, fhi = _to_float(lo), _to_float(hi)
    if flo > 0.0 and fhi > 4.0 * flo:
        mid = math.sqrt(flo) * math.sqrt(fhi)
    else:
        mid = 0.5 * (flo + fhi)
    return mid if _inside(lo, mid, hi) else None


def _laguerre(values, n: int, lo, hi, s_lo: int, x: float | None):
    """Bracketed Laguerre iteration from x for degree n; returns (lo, hi, stop).

    values(x) is (s, G, r): the sign at x (0 where it is 0 or not known),
    G = c'/c and r = c''/c; s moves an end to x.  The step is
    n / (G +- sqrt((n-1)(nH - G^2))), H = G^2 - r, enlarging the denominator,
    or Newton's 1/G where the radicand is negative or not finite (Numerical
    Recipes, 9.5): exact for (x-a)^n, which is how c looks far from its roots.
    A step that leaves the bracket or fails to halve the last one becomes a
    bisection; one below half an ulp probes the neighbouring float.  Each
    step moves an end strictly inward, so it ends: at s = 0 (stop = x) or
    with no float left (stop = None).
    """
    last_step = math.inf
    while x is not None:
        s, g, r = values(x)
        if s == 0:
            return lo, hi, x
        if s == s_lo:
            lo = x
        else:
            hi = x
        radicand = (n - 1) * ((n - 1) * g * g - n * r)
        if radicand >= 0.0 and math.isfinite(radicand):
            num, den = n, g + math.copysign(math.sqrt(radicand), g)
        else:
            num, den = 1, g
        step = num / den if den and math.isfinite(den) else math.inf
        cand = x - step
        if cand == x:
            cand = math.nextafter(x, math.inf if x == lo else -math.inf)
        elif abs(step) <= 0.5 * last_step and _inside(lo, cand, hi):
            last_step = abs(step)
        else:
            cand = _split(lo, hi)
            if cand is not None:
                last_step = abs(cand - x)
        x = cand if cand is not None and _inside(lo, cand, hi) else None
    return lo, hi, None


def _float_seed(coeffs: list[int], lo, hi, s_lo: int) -> float | None:
    """The float where _laguerre on float values (coefficients scaled into range) stops, or None."""
    n = len(coeffs) - 1
    scale = 1 << max(0, max(abs(c).bit_length() for c in coeffs) - 960)
    terms = [c / scale for c in reversed(coeffs)]
    tol = (2 * n + 1) * 2.0 ** -53
    # at 0 < x < 1 the float Horner bound is at most (1 + 2^-53)^(2n+1) sum |c_i|
    cap = tol * math.fsum(map(abs, terms)) * (1.0 + (2 * n + 4) * 2.0 ** -52)

    def values(x: float) -> tuple[int, float, float]:
        v, dv, d2v = 0.0, 0.0, 0.0
        for c in terms:
            d2v = d2v * x + dv
            dv = dv * x + v
            v = v * x + c
        if abs(v) <= cap:
            bound = 0.0
            for c in terms:
                bound = bound * x + abs(c)
            if abs(v) <= tol * bound:
                return 0, 0.0, 0.0
        return (1 if v > 0.0 else -1), dv / v, 2.0 * d2v / v

    return _laguerre(values, n, lo, hi, s_lo, _split(lo, hi))[2]


def _shrink(coeffs: list[int], lo, hi, s_lo: int) -> tuple:
    """Narrow the bracket (lo, hi) of one root of the polynomial to about one float spacing.

    s_lo is the sign just inside lo.  Returns (lo, hi, s_lo); lo == hi, s_lo = 0
    if a step lands on the root.  No float lies inside, except possibly one next
    to an end that is not a float (_split can miss it).  The exact loop starts at
    the float seed, or at _split(lo, hi) if the seed is None or outside.
    """
    if lo == hi:
        return lo, hi, 0
    x = _float_seed(coeffs, lo, hi, s_lo)
    if x is None or not _inside(lo, x, hi):
        x = _split(lo, hi)
    lo, hi, root = _laguerre(partial(_scaled_values, coeffs), len(coeffs) - 1, lo, hi, s_lo, x)
    return (lo, hi, s_lo) if root is None else (root, root, 0)


def _floats_around(lo, hi) -> tuple[float, float]:
    """The floats f_lo <= lo and f_hi >= hi nearest to the ends of [lo, hi]."""
    f_lo, f_hi = _to_float(lo), _to_float(hi)
    if _lt(lo, f_lo):
        f_lo = math.nextafter(f_lo, -math.inf)
    if _lt(f_hi, hi):
        f_hi = math.nextafter(f_hi, math.inf)
    return f_lo, f_hi


def _nearest_float(sign, lo, hi, s_lo: int) -> float:
    """The float nearest to the one root in [lo, hi] of an exact sign function.

    sign(x) is exact at every dyadic point; s_lo is its sign just inside
    lo, and lo == hi means the root is lo.  Bisects over the floats strictly
    inside (lo, hi), then picks the nearer of the two floats around what is
    left by the exact sign at their midpoint, so the result does not depend
    on how the bracket was found.  No sign is taken outside (lo, hi).
    """
    if lo == hi:
        return _to_float(lo)
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
    mid = _midpoint(f_lo, f_hi)
    if not _lt(lo, mid):
        return f_hi
    if not _lt(mid, hi):
        return f_lo
    s = sign(mid)
    if s == 0:
        return _to_float(mid)
    return f_hi if s == s_lo else f_lo


def _head_sign(num: int, den: int, ut: int, vt: int, k: int) -> int:
    """sign(num ut^k - den vt^k) for ut, vt > 0 where _HEAD_BITS-bit heads tell it, else 0.

    With h 2^s <= w < (h+1) 2^s, the sides lie in num [hu^k, (hu+1)^k) 2^(su k)
    and den [hv^k, (hv+1)^k) 2^(sv k); disjoint intervals give the sign.
    """
    su, sv = max(ut.bit_length() - _HEAD_BITS, 0), max(vt.bit_length() - _HEAD_BITS, 0)
    hu, hv = ut >> su, vt >> sv
    eu, ev = (su - min(su, sv)) * k, (sv - min(su, sv)) * k
    if num * hu ** k << eu >= den * (hv + 1) ** k << ev:
        return 1
    if num * (hu + 1) ** k << eu <= den * hv ** k << ev:
        return -1
    return 0


def _two_step_sign(coeffs: list[int], k: int):
    """Exact sign function of R(x) = x U(x)^k - V(x)^k, from the coefficients of T.

    T(z) = z U(z^k) - V(z^k) holds the coefficients of U at degrees 1 + ik
    and those of -V at degrees ik.  At x = num/den, den^(k^2+1) R(x) is
    num Ut^k - den Vt^k with Ut = den^k U(x), Vt = den^k V(x) (_homogeneous).
    Where Ut, Vt > 0, as for the block polynomial at x > 0, the heads decide
    (_head_sign); only overlapping head bounds, as at a root, need the powers.
    """
    u, v = coeffs[1::k], [-c for c in coeffs[::k]]

    def sign(x) -> int:
        num, den = _ratio(x)
        ut, vt = _homogeneous(u, x), _homogeneous(v, x)
        if ut > 0 and vt > 0 and (s := _head_sign(num, den, ut, vt, k)):
            return s
        r = num * ut ** k - den * vt ** k
        return (r > 0) - (r < 0)

    return sign


def _root_bound(coeffs: list[int]) -> int:
    """The exponent e of a power of two 2^e above the modulus of every root (Fujiwara's bound).

    |z| <= 2 max_i |c_(n-i) / c_n|^(1/i), with each ratio bounded through
    the bit lengths of the coefficients.
    """
    top = abs(coeffs[-1]).bit_length() - 1
    return 1 + max(-((top - abs(c).bit_length()) // i)
                   for i, c in enumerate(reversed(coeffs[:-1]), 1) if c)


def _derived_roots(sign, image, sources: list[float], prev: float) -> list[float] | None:
    """The roots that image takes the sources' roots to, each as its nearest float, or None.

    Each source float is nearest to a root that image (exact, from dyadic
    pairs to points) takes to a root of sign's polynomial; their images
    ascend.  Each bracket runs between the floats just outside the images of
    the ends of its source's half-ulp cell, which holds the source's root.
    If the brackets ascend from above prev without overlap and each shows
    exact opposite signs at its ends, and there are as many roots above prev
    as sources, each holds one root, which _nearest_float rounds.  Otherwise
    None; equal sources overlap.
    """
    roots = []
    for x in sources:
        a, b = [image(_midpoint(x, math.nextafter(x, side))) for side in (0.0, math.inf)]
        lo, hi = _floats_around(*((b, a) if _lt(b, a) else (a, b)))
        if not prev < lo:
            return None
        s_lo = sign(lo)
        if not s_lo * sign(hi) < 0:
            return None
        roots.append(_nearest_float(sign, lo, hi, s_lo))
        prev = hi
    return roots


def _certified_roots(coeffs: list[int], partner=None, k: int = 1) -> list[float]:
    """Every positive root other than 1 of an integer polynomial, ascending, as nearest floats.

    Divides out the root 1 with its multiplicity, then isolates and shrinks
    the roots in (0, 1); a bracket that reaches 0 is closed by the root
    bound of the reversed polynomial.  A repeated positive root raises
    ConvergenceError.  With k > 1 the coefficients are those of T (see
    invariants.im_coeffs), and each root z is rounded as x = z^k, a root of
    R, from the k-th powers of its bracket, where R has the sign of T, which
    below 1 is that of T / (z - 1)^mu times (-1)^mu, mu the multiplicity of
    the root 1.  The roots above 1 are the images under partner (see
    _derived_roots) of those below it; where that fails or there is no
    partner, the roots in (0, 1) of the reversed polynomial, which at w > 0
    has the sign of the polynomial at 1/w, are mapped back, so every exact
    sign is at a dyadic point and a root above 1 that is no root's partner
    is found only then.
    """
    deflated = _divide_out_unit_root(coeffs)
    sign = _two_step_sign(coeffs, k) if k > 1 else partial(_sign_at, deflated)
    # below 1, dividing out (z - 1)^mu flips the sign of T when mu is odd
    flip = -1 if k > 1 and (len(coeffs) - len(deflated)) % 2 else 1

    def unit_brackets(c: list[int]) -> list[tuple]:
        # the shrunk brackets (lo, hi, s_lo) of the roots of c in (0, 1), ascending
        return [_shrink(c, lo or _dyadic(1, _root_bound(c[::-1])), hi, s)
                for lo, hi, s in _isolate_unit_interval(c)]

    def nearest(lo, hi, s_lo: int) -> float:
        if k > 1:
            lo, hi = [tuple(v ** k for v in _ratio(end)) for end in (lo, hi)]
        return _nearest_float(sign, lo, hi, s_lo)

    roots = [nearest(lo, hi, flip * s) for lo, hi, s in unit_brackets(deflated)]
    above = _derived_roots(sign, partner, roots[::-1], 1.0) if partner else None
    if above is None:
        # w -> 1/w reverses each bracket, and with it the sign just inside
        # its low end; the swapped pairs keep the reciprocals exact
        above = [nearest(_ratio(hi)[::-1], _ratio(lo)[::-1], -s)
                 for lo, hi, s in reversed(unit_brackets(deflated[::-1]))]
    return roots + above
