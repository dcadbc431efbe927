import math

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


def boundary_log_sum_by_enumeration(tree, params: ModelParams, field,
                                    inner: np.ndarray) -> float:
    """log of the depth-n ball's weight summed over every boundary assignment.

    An independent cross-check of the oracle's factorized boundary sum: lists
    all q^b boundary spin assignments, adds the monochromatic edges and the
    parity-appropriate field of each, and sums the weights after a max shift.
    Feasible only for small balls (q^b rows of b spins).
    """
    q = params.q
    boundary = tree.boundary()
    b = len(boundary)
    parents = np.array([tree.parent[v] for v in boundary], dtype=np.int64)
    combos = np.stack(
        np.unravel_index(np.arange(q ** b), (q,) * b), axis=-1
    ).astype(np.int8) + 1
    h = field.h_even if tree.n % 2 == 0 else field.h_odd
    boundary_term = np.append(h, 0.0)[combos.astype(np.int64) - 1].sum(axis=1)
    inner_mono = sum(1 for u, v in tree.edges
                     if tree.depth[v] < tree.n and inner[u] == inner[v])
    cross_mono = (combos == inner[parents].astype(np.int8)[None, :]).sum(axis=1)
    logw = (inner_mono + cross_mono) * math.log(params.theta) + boundary_term
    shift = float(logw.max())
    return shift + math.log(math.fsum(np.exp(logw - shift).tolist()))
