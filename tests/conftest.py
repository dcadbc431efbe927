import itertools
import math
import struct
from fractions import Fraction

import numpy as np
import pytest

from gibbstree import ModelParams


@pytest.fixture
def p33():
    """Reference point well below the (3,3) threshold of 0.25."""
    return ModelParams(q=3, k=3, theta=0.1)


@pytest.fixture
def p33_warm():
    """Reference point above the (3,3) threshold."""
    return ModelParams(q=3, k=3, theta=0.5)


def draw_regime_params(rng: np.random.Generator, k_max: int = 9) -> ModelParams:
    """One random parameter point inside the solver hypothesis."""
    k = int(rng.integers(3, k_max + 1))
    q = int(rng.integers(3, k + 1))
    theta = float(rng.uniform(0.01, 0.99))
    return ModelParams(q=q, k=k, theta=theta)


@pytest.fixture
def draw_regime():
    return draw_regime_params


def ulp_distance(a: float, b: float) -> int:
    """Number of float64 steps between two finite floats of the same sign."""
    bits_a, = struct.unpack("<q", struct.pack("<d", a))
    bits_b, = struct.unpack("<q", struct.pack("<d", b))
    return abs(bits_a - bits_b)


def _block_constants(params: ModelParams, m: int) -> tuple[int, int, int, int]:
    """a, b, c, d of the block map f(x) = (ax+b)/(cx+d), with theta = A/D."""
    th = Fraction(params.theta)
    A, D = th.numerator, th.denominator
    q = params.q
    return A + (m - 1) * D, (q - m) * D, m * D, A + (q - m - 1) * D


def two_step_value(params: ModelParams, m: int, x):
    """The block two-step polynomial R(x) = x U(x)^k - V(x)^k from its defining formula.

    U = cP + dQ and V = aP + bQ with P = (ax+b)^k and Q = (cx+d)^k; exact at
    an integer or Fraction x.
    """
    a, b, c, d = _block_constants(params, m)
    k = params.k
    P, Q = (a * x + b) ** k, (c * x + d) ** k
    return x * (c * P + d * Q) ** k - (a * P + b * Q) ** k


def mirror_value(params: ModelParams, m: int, z):
    """The mirror polynomial b1^k qfac - b2^k pfac from its defining formula.

    With b1 = (theta+2m-1) z^k - m z^(k+1) + m z + q-2m,
    b2 = m z^k + theta+q-m-1, qfac = theta+m-1 - m z and
    pfac = m z^(k+1) - m z^k + (theta+q-2m-1) z - (q-2m), the elimination of
    t from the mirror fixed-point system; exact at an integer or Fraction z.
    """
    th, q, k = Fraction(params.theta), params.q, params.k
    zk = z ** k
    b1 = (th + 2 * m - 1) * zk - m * zk * z + m * z + q - 2 * m
    b2 = m * zk + th + q - m - 1
    qfac = th + m - 1 - m * z
    pfac = m * zk * z - m * zk + (th + q - 2 * m - 1) * z - (q - 2 * m)
    return b1 ** k * qfac - b2 ** k * pfac


def _mul(f: list[int], g: list[int]) -> list[int]:
    out = [0] * (len(f) + len(g) - 1)
    for i, fi in enumerate(f):
        for j, gj in enumerate(g):
            out[i + j] += fi * gj
    return out


def two_step_coeffs(params: ModelParams, m: int) -> list[int]:
    """Integer coefficients of R, lowest degree first, expanded by repeated multiplication."""
    a, b, c, d = _block_constants(params, m)
    P, Q, Uk, Vk = [1], [1], [1], [1]
    for _ in range(params.k):
        P, Q = _mul(P, [b, a]), _mul(Q, [d, c])
    U = [c * p + d * r for p, r in zip(P, Q)]
    V = [a * p + b * r for p, r in zip(P, Q)]
    for _ in range(params.k):
        Uk, Vk = _mul(Uk, U), _mul(Vk, V)
    return [s - t for s, t in zip([0] + Uk, Vk + [0])]


def _roots_by_sign_scan(sign, xs: list[float]) -> list[float]:
    """Roots of a function, given its sign function, from a scan over xs.

    A node where the sign is 0 is a root; every strict sign change between
    neighbouring nodes is bisected on the sign down to adjacent floats.
    """
    signs = [sign(x) for x in xs]
    roots = []
    for x, s, x_next, s_next in zip(xs, signs, xs[1:], signs[1:]):
        if s == 0.0:
            roots.append(x)
        elif s * s_next < 0.0:
            lo, hi = x, x_next
            while True:
                mid = 0.5 * (lo + hi)
                if not lo < mid < hi:
                    break
                s_mid = sign(mid)
                if s_mid == 0.0:
                    lo = hi = mid
                    break
                if s_mid == s:
                    lo = mid
                else:
                    hi = mid
            roots.append(lo)
    return roots


def mirror_roots_by_scan(params: ModelParams, m: int, points: int = 4001,
                         z_min: float = 1e-3, z_max: float = 1e3) -> list[float]:
    """Positive mirror-polynomial roots from a dense sign scan, ascending.

    An independent cross-check of the exact solver: evaluates im_prime_poly
    at 40 digits on a geometric grid over [z_min, z_max] and bisects every
    strict sign change on the sign of the polynomial down to adjacent floats.
    Roots closer than the grid spacing, or outside the grid, are missed.
    """
    from gibbstree import im_prime_poly

    def sign(z: float) -> float:
        return np.sign(im_prime_poly(z, params, m))

    return _roots_by_sign_scan(sign, np.geomspace(z_min, z_max, points).tolist())


def block_roots_by_scan(params: ModelParams, m: int, points: int = 20001) -> list[float]:
    """Fixed points of the two-step block map from a dense sign scan, ascending.

    An independent cross-check of the exact block solver: evaluates the gap
    two_step_map(x) - x in float64 on a geometric grid over the range of
    f^k, widened by one percent, and bisects every strict sign change on
    the sign of the gap down to adjacent floats.  Roots closer than the grid
    spacing, and roots the float gap cannot resolve (such as x = 1 where the
    slope is near 1), may be missed or duplicated.
    """
    from gibbstree import two_step_map

    theta, q, k = params.theta, params.q, params.k
    lo = ((theta + m - 1.0) / m) ** k * 0.99
    hi = ((q - m) / (theta + q - m - 1.0)) ** k * 1.01

    def sign(x: float) -> float:
        return np.sign(two_step_map(x, params, m) - x)

    return _roots_by_sign_scan(sign, np.geomspace(lo, hi, points).tolist())


def explicit_ball(k: int, n: int) -> tuple[list[int], list[int], list[tuple[int, int]]]:
    """parent, depth and edges of the depth-n ball, built vertex by vertex.

    The root gets k+1 children and every later inner vertex k; each new
    vertex takes the next id, generation by generation, so the ids match the
    oracle's.  The root's parent is -1; edges are (parent, child) pairs in
    creation order.  An explicit construction to check the oracle's id
    arithmetic against.
    """
    parent, depth, edges = [-1], [0], []
    frontier = [0]
    for d in range(1, n + 1):
        new_frontier = []
        for v in frontier:
            for _ in range(k + 1 if d == 1 else k):
                u = len(parent)
                parent.append(v)
                depth.append(d)
                edges.append((v, u))
                new_frontier.append(u)
        frontier = new_frontier
    return parent, depth, edges


def inner_ball(k: int, n: int) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Edges of the depth-(n-1) ball and its (vertex, depth) boundary, from explicit_ball."""
    _, depth, edges = explicit_ball(k, n)
    inner_edges = [(u, v) for u, v in edges if depth[v] < n]
    return inner_edges, [(v, n - 1) for v, d in enumerate(depth) if d == n - 1]


def boundary_log_sum_by_enumeration(tree, params: ModelParams, field,
                                    inner: np.ndarray) -> float:
    """log of the depth-n ball's weight summed over every boundary assignment.

    An independent cross-check of boundary_log_sum_by_factors: lists
    all q^b boundary spin assignments, adds the monochromatic edges and the
    parity-appropriate field of each, and sums the weights after a max shift.
    The ball comes from explicit_ball, not from the tree's id arithmetic.
    Feasible only for small balls (q^b rows of b spins).
    """
    q = params.q
    parent, depth, edges = explicit_ball(tree.k, tree.n)
    boundary = [v for v, d in enumerate(depth) if d == tree.n]
    b = len(boundary)
    parents = np.array([parent[v] for v in boundary], dtype=np.int64)
    combos = np.stack(
        np.unravel_index(np.arange(q ** b), (q,) * b), axis=-1
    ).astype(np.int8) + 1
    h = field.h_even if tree.n % 2 == 0 else field.h_odd
    boundary_term = np.append(h, 0.0)[combos.astype(np.int64) - 1].sum(axis=1)
    inner_mono = sum(1 for u, v in edges if depth[v] < tree.n and inner[u] == inner[v])
    cross_mono = (combos == inner[parents].astype(np.int8)[None, :]).sum(axis=1)
    logw = (inner_mono + cross_mono) * math.log(params.theta) + boundary_term
    shift = float(logw.max())
    return shift + math.log(math.fsum(np.exp(logw - shift).tolist()))


def _log_factors(n: int, params: ModelParams, field) -> list[float]:
    """log sum_s theta^[s = t] exp(h_s) for each parent spin t = 1..q, each sum in full."""
    q, theta = params.q, params.theta
    h = list(field.even if n % 2 == 0 else field.odd) + [0.0]
    shift = max(h)
    return [shift + math.log(math.fsum((theta if s == t else 1.0) * math.exp(h[s - 1] - shift)
                                       for s in range(1, q + 1)))
            for t in range(1, q + 1)]


def _boundary_log_sum(ball, n: int, log_theta: float, factors: list[float], inner) -> float:
    parent, depth, edges = ball
    inner_mono = sum(1 for u, v in edges if depth[v] < n and inner[u] == inner[v])
    return inner_mono * log_theta + math.fsum(factors[inner[parent[v]] - 1]
                                              for v, d in enumerate(depth) if d == n)


def boundary_log_sum_by_factors(k: int, n: int, params: ModelParams, field, inner) -> float:
    """log of the depth-n ball's weight summed over every boundary assignment, factor by factor.

    Each boundary vertex is a leaf, so given the interior spins the sum over
    the boundary is a product of one factor per boundary vertex,
    sum_s theta^[s = parent's spin] exp(h_s).  Checked against
    boundary_log_sum_by_enumeration, which lists every boundary assignment.
    The ball comes from explicit_ball.
    """
    return _boundary_log_sum(explicit_ball(k, n), n, math.log(params.theta),
                             _log_factors(n, params, field), inner)


def all_configurations(k: int, n: int, q: int):
    """Every spin assignment of the depth-(n-1) ball's vertices, as tuples in id order."""
    n_inner = len(explicit_ball(k, n - 1)[0])
    return itertools.product(range(1, q + 1), repeat=n_inner)


def gaps_by_enumeration(k: int, n: int, params: ModelParams, field, configs) -> list[float]:
    """Per interior configuration, log(boundary sum of the depth-n weight) - log(inner weight).

    The boundary sum is boundary_log_sum_by_factors'; the inner weight is
    model.finite_volume_log_weight on the depth-(n-1) ball of inner_ball.
    The brute-force reference of the oracle's closed form.
    """
    from gibbstree.model import finite_volume_log_weight

    ball = explicit_ball(k, n)
    log_theta = math.log(params.theta)
    factors = _log_factors(n, params, field)
    inner_edges, inner_boundary = inner_ball(k, n)
    return [_boundary_log_sum(ball, n, log_theta, factors, c)
            - finite_volume_log_weight(c, inner_edges, inner_boundary, field, params)
            for c in configs]


def relative_spread_by_enumeration(k: int, n: int, params: ModelParams, field) -> float:
    """check_consistency's error, from the gaps of every interior configuration.

    From depth 2 on the field and its sublattice swap are both checked, and
    the larger error is returned, as the oracle does.
    """
    orders = (field,) if n == 1 else (field, field.swapped())
    worst = 0.0
    for f in orders:
        gaps = gaps_by_enumeration(k, n, params, f, all_configurations(k, n, params.q))
        worst = max(worst, (max(gaps) - min(gaps)) / max(1.0, max(map(abs, gaps))))
    return worst
