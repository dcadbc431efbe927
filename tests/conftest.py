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

    zs = np.geomspace(z_min, z_max, points).tolist()
    signs = [sign(z) for z in zs]
    roots = []
    for z, s, z_next, s_next in zip(zs, signs, zs[1:], signs[1:]):
        if s == 0.0:
            roots.append(z)
        elif s * s_next < 0.0:
            lo, hi = z, z_next
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
