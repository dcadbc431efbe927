import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest

from gibbstree import (
    DomainError,
    HypothesisError,
    ModelParams,
    ParameterError,
    PeriodTwoField,
    ShapeError,
    compat_map,
    solve_im,
)
from gibbstree.model import (
    as_field,
    finite_volume_log_weight,
    monochromatic_edges,
    period2_residual,
    residual_norm,
)


class TestModelParams:
    def test_basic_fields(self):
        p = ModelParams(q=3, k=3, theta=0.1)
        assert [f.name for f in dataclasses.fields(p)] == ["q", "k", "theta"]
        assert p.theta == 0.1

    @pytest.mark.parametrize("kwargs", [
        dict(q=1, k=3, theta=0.1),
        dict(q=3, k=0, theta=0.1),
        dict(q=3, k=3, theta=0.0),
        dict(q=3, k=3, theta=-0.5),
        dict(q=3, k=3, theta=float("nan")),
        dict(q=3.5, k=3, theta=0.1),
        dict(q=3, k=True, theta=0.1),
    ])
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ParameterError):
            ModelParams(**kwargs)

    def test_solver_regime_gate(self):
        ModelParams(q=3, k=3, theta=0.1).require_solver_regime()
        ModelParams(q=5, k=7, theta=0.9).require_solver_regime()
        for bad in [
            ModelParams(q=5, k=3, theta=0.1),   # q > k
            ModelParams(q=4, k=3, theta=0.1),   # q = k+1
            ModelParams(q=2, k=3, theta=0.1),   # q < 3
            ModelParams(q=3, k=2, theta=0.1),   # k < 3
            ModelParams(q=3, k=3, theta=1.0),   # theta = 1 allowed here, not for solvers
            ModelParams(q=3, k=3, theta=1.5),
        ]:
            with pytest.raises(HypothesisError):
                bad.require_solver_regime()


class TestFieldTypes:
    def test_as_field_roundtrip(self):
        v = as_field([0.5, -1.0], 3)
        assert v.shape == (2,)
        assert v.dtype == np.float64

    def test_as_field_rejects(self):
        with pytest.raises(ShapeError):
            as_field([1.0, 2.0, 3.0], 3)
        with pytest.raises(DomainError):
            as_field([1.0, float("inf")], 3)

    def test_period_two_field(self):
        f = PeriodTwoField.zero(4)
        assert f.q == 4
        assert np.all(f.h_even == 0.0) and np.all(f.h_odd == 0.0)
        g = PeriodTwoField(h_even=np.array([1.0, 2.0]), h_odd=np.array([3.0, 4.0]))
        s = g.swapped()
        assert np.all(s.h_even == g.h_odd) and np.all(s.h_odd == g.h_even)

    def test_period_two_field_rejects(self):
        with pytest.raises(ShapeError):
            PeriodTwoField(h_even=np.array([1.0]), h_odd=np.array([1.0, 2.0]))
        with pytest.raises(DomainError):
            PeriodTwoField(h_even=np.array([np.nan]), h_odd=np.array([1.0]))
        with pytest.raises(ShapeError):
            PeriodTwoField(h_even=np.zeros((2, 1)), h_odd=np.zeros((2, 1)))
        with pytest.raises(ShapeError):
            PeriodTwoField(h_even=[[1.0], [2.0]], h_odd=[1.0, 2.0])
        with pytest.raises(ShapeError):
            PeriodTwoField(h_even=1.0, h_odd=2.0)
        with pytest.raises(ShapeError):
            PeriodTwoField(h_even=[], h_odd=[])

    def test_vectors_are_read_only(self):
        f = PeriodTwoField.zero(3)
        with pytest.raises(ValueError):
            f.h_even[0] = 1.0

    def test_arrays_are_built_once_from_the_components(self):
        f = PeriodTwoField(h_even=[0.5, -1.0], h_odd=(1, 2))
        assert f.even == (0.5, -1.0) and f.odd == (1.0, 2.0)
        assert all(type(v) is float for v in f.even + f.odd)
        assert f.h_even is f.h_even and f.h_odd is f.h_odd
        assert f.h_even.dtype == np.float64 and f.h_even.tolist() == [0.5, -1.0]
        assert f.h_odd.tolist() == [1.0, 2.0]

    def test_fields_are_frozen(self):
        f = PeriodTwoField.zero(3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            f.even = (1.0, 1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            del f.odd
        assert f.even == (0.0, 0.0) and f.odd == (0.0, 0.0)

    def test_equality_and_hash_follow_the_components(self):
        # q = 4, so each vector has three components
        p = ModelParams(q=4, k=5, theta=0.1)
        first, again = solve_im(p, 1)[0], solve_im(p, 1)[0]
        assert first == again
        a, b = first.full_field, again.full_field
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != a.swapped() and len({a, b, a.swapped()}) == 2
        assert a.swapped().swapped() == a
        assert PeriodTwoField(np.array([0.5, -1.0]), [1.0, 2.0]) \
            == PeriodTwoField((0.5, -1.0), np.array([1.0, 2.0]))
        assert PeriodTwoField.zero(3) != PeriodTwoField.zero(4)
        assert PeriodTwoField.zero(3) != (0.0, 0.0)


class TestCompatMap:
    def test_zero_field_fixed_point(self):
        for q, theta in [(3, 0.1), (3, 0.9), (5, 0.3), (7, 0.75)]:
            p = ModelParams(q=q, k=3, theta=theta)
            out = compat_map(np.zeros(q - 1), p)
            assert np.all(out == 0.0)

    def test_hand_value(self):
        # first component: ln(((theta-1)*2 + (2+1) + 1) / (theta + 3)) at theta=1/2
        p = ModelParams(q=3, k=3, theta=0.5)
        out = compat_map(np.array([math.log(2.0), 0.0]), p)
        assert out[0] == pytest.approx(math.log(6.0 / 7.0), rel=1e-14)
        assert out[1] == pytest.approx(0.0, abs=1e-15)

    def test_theta_one_degenerates_to_zero(self):
        p = ModelParams(q=4, k=3, theta=1.0)
        rng = np.random.default_rng(7)
        for _ in range(10):
            h = rng.normal(size=3)
            assert np.all(compat_map(h, p) == 0.0)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            q = int(rng.integers(3, 7))
            p = ModelParams(q=q, k=3, theta=float(rng.uniform(0.05, 0.95)))
            h = rng.normal(scale=2.0, size=q - 1)
            perm = rng.permutation(q - 1)
            lhs = compat_map(h[perm], p)
            rhs = compat_map(h, p)[perm]
            assert np.allclose(lhs, rhs, rtol=0, atol=1e-14)

    def test_large_components_stay_finite(self):
        p = ModelParams(q=3, k=3, theta=0.1)
        out = compat_map(np.array([700.0, -700.0]), p)
        assert np.all(np.isfinite(out))

    def test_rejects_bad_input(self):
        p = ModelParams(q=3, k=3, theta=0.1)
        with pytest.raises(ShapeError):
            compat_map(np.zeros(3), p)
        with pytest.raises(DomainError):
            compat_map(np.array([0.0, np.inf]), p)


def _compat_mp(h, theta):
    """compat_map's shifted formula at 50 digits, and the scale of its rounding error.

    The scale of component i is max(1, |ln num_i|, |ln den|) over the shifted
    logs that the float code subtracts.  Every term of num_i and den is
    positive, so the scale does not depend on theta.
    """
    with mp.workdps(50):
        shift = max(max(h), 0.0)
        x = [mp.exp(mp.mpf(v) - shift) for v in h]
        x0 = mp.exp(-mp.mpf(shift))
        s = mp.fsum(x)
        log_den = mp.log(theta * x0 + s)
        log_num = [mp.log(theta * xi + (s - xi) + x0) for xi in x]
        return ([ln - log_den for ln in log_num],
                [float(max(1, abs(ln), abs(log_den))) for ln in log_num])


class TestFloatKernel:
    def test_matches_fifty_digits(self):
        # within 4 ulps of each component's error scale (see _compat_mp)
        rng = np.random.default_rng(59)
        for trial in range(300):
            q, k = int(rng.integers(3, 9)), int(rng.integers(3, 9))
            p = ModelParams(q=q, k=k, theta=float(rng.uniform(0.01, 0.99)))
            scale = (1.0, 10.0, 100.0)[trial % 3]
            h_even = rng.normal(scale=scale, size=q - 1)
            h_odd = rng.normal(scale=scale, size=q - 1)
            if trial % 4 == 0:   # next to the overflow guard
                h_even[int(rng.integers(q - 1))] = float(rng.choice([-1, 1]) * rng.uniform(699, 700))
            f_even, tol_even = _compat_mp(h_even.tolist(), p.theta)
            f_odd, tol_odd = _compat_mp(h_odd.tolist(), p.theta)
            out = compat_map(h_even, p)
            assert isinstance(out, np.ndarray) and out.shape == (q - 1,)
            for got, want, tol in zip(out.tolist(), f_even, tol_even):
                assert abs(got - want) <= 4 * math.ulp(tol)
            res = residual_norm(PeriodTwoField(h_even, h_odd), p)
            with mp.workdps(50):
                want = max([abs(h - k * f) for h, f in zip(h_even.tolist(), f_odd)]
                           + [abs(h - k * f) for h, f in zip(h_odd.tolist(), f_even)])
            assert abs(res - want) <= 4 * (math.ulp(float(want))
                                           + k * math.ulp(max(tol_even + tol_odd)))

    def test_error_does_not_grow_as_theta_falls(self):
        # log-uniform theta down to 0.01, where a sum_j x_j - x_i formed by
        # subtraction loses about a factor 1/theta
        rng = np.random.default_rng(83)
        for _ in range(300):
            q = int(rng.integers(3, 9))
            theta = math.exp(rng.uniform(math.log(0.01), math.log(0.99)))
            scale = float(rng.choice([1.0, 10.0, 700.0]))
            h = rng.uniform(-scale, scale, size=q - 1)
            want, tol = _compat_mp(h.tolist(), theta)
            got = compat_map(h, ModelParams(q=q, k=3, theta=theta)).tolist()
            for g, w, t in zip(got, want, tol):
                assert abs(g - w) <= 4 * math.ulp(t), (q, theta, h.tolist())

    def test_residual_rejects_wrong_q(self):
        with pytest.raises(ShapeError):
            residual_norm(PeriodTwoField.zero(4), ModelParams(q=3, k=3, theta=0.1))


class TestPeriod2Residual:
    def test_zero_field(self):
        p = ModelParams(q=3, k=3, theta=0.3)
        r_even, r_odd = period2_residual(PeriodTwoField.zero(3), p)
        assert np.all(r_even == 0.0) and np.all(r_odd == 0.0)
        assert residual_norm(PeriodTwoField.zero(3), p) == 0.0

    def test_swap_antisymmetry(self):
        p = ModelParams(q=4, k=3, theta=0.4)
        rng = np.random.default_rng(3)
        f = PeriodTwoField(h_even=rng.normal(size=3), h_odd=rng.normal(size=3))
        r_even, r_odd = period2_residual(f, p)
        s_even, s_odd = period2_residual(f.swapped(), p)
        assert np.allclose(r_even, s_odd) and np.allclose(r_odd, s_even)


class TestHamiltonian:
    # the energy is -J times this count; the weights use theta^count
    def test_fully_aligned(self):
        edges = [(0, 1), (1, 2), (2, 3)]
        config = {v: 1 for v in range(4)}
        assert monochromatic_edges(config, edges, 3) == 3

    def test_proper_coloring(self):
        edges = [(0, 1), (1, 2)]
        config = {0: 1, 1: 2, 2: 1}
        assert monochromatic_edges(config, edges, 3) == 0

    def test_rejects_bad_spin(self):
        for bad in (0, 4, 1.0, 2.0, True, np.True_, np.float64(2.0), np.int8(4)):
            with pytest.raises(DomainError):
                monochromatic_edges({0: bad, 1: 1}, [(0, 1)], 3)
        # numpy integers are spins
        assert monochromatic_edges({0: np.int8(3), 1: 3}, [(0, 1)], 3) == 1


class TestFiniteVolumeWeight:
    def test_root_only(self):
        p = ModelParams(q=3, k=3, theta=0.5)
        f = PeriodTwoField(h_even=np.array([0.7, -0.2]), h_odd=np.zeros(2))
        for spin, expected in [(1, 0.7), (2, -0.2), (3, 0.0)]:
            w = finite_volume_log_weight({0: spin}, [], [(0, 0)], f, p)
            assert w == pytest.approx(expected, abs=1e-15)

    def test_zero_field_counts_monochromatic_edges(self):
        p = ModelParams(q=3, k=3, theta=0.5)
        f = PeriodTwoField.zero(3)
        edges = [(0, 1), (0, 2), (0, 3), (0, 4)]
        config = {v: 1 for v in range(5)}
        boundary = [(v, 1) for v in range(1, 5)]
        w = finite_volume_log_weight(config, edges, boundary, f, p)
        assert w == pytest.approx(4 * math.log(0.5), rel=1e-14)

    def test_spin_relabel_with_field_permutation(self):
        # relabeling spins 1..q-1 and permuting field rows identically is a no-op
        p = ModelParams(q=4, k=3, theta=0.3)
        rng = np.random.default_rng(17)
        edges = [(0, 1), (0, 2), (1, 3), (1, 4)]
        boundary = [(3, 2), (4, 2)]
        for _ in range(10):
            f = PeriodTwoField(h_even=rng.normal(size=3), h_odd=rng.normal(size=3))
            config = {v: int(rng.integers(1, 5)) for v in range(5)}
            perm = list(rng.permutation(3))
            relabel = {i + 1: perm[i] + 1 for i in range(3)}
            relabel[4] = 4
            config2 = {v: relabel[s] for v, s in config.items()}
            f2 = PeriodTwoField(h_even=f.h_even[perm], h_odd=f.h_odd[perm])
            w1 = finite_volume_log_weight(config, edges, boundary, f2, p)
            w2 = finite_volume_log_weight(config2, edges, boundary, f, p)
            assert w1 == pytest.approx(w2, abs=1e-12)

    def test_overflow_guard(self):
        p = ModelParams(q=3, k=3, theta=0.5)
        f = PeriodTwoField(h_even=np.array([720.0, 0.0]), h_odd=np.zeros(2))
        # exp(720) overflows a float; its log does not
        assert finite_volume_log_weight({0: 1}, [], [(0, 0)], f, p) == 720.0
