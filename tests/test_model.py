import math

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
)
from gibbstree.model import (
    as_field,
    finite_volume_log_weight,
    finite_volume_weight,
    hamiltonian,
    period2_residual,
    residual_norm,
)


class TestModelParams:
    def test_basic_fields(self):
        p = ModelParams(q=3, k=3, theta=0.1)
        assert p.n_components == 2
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

    def test_coupling_provenance_consistent(self):
        theta = math.exp(-2.0 * 0.5)
        p = ModelParams(q=3, k=3, theta=theta, j_coupling=-2.0, beta=0.5)
        assert p.j_coupling == -2.0

    def test_coupling_provenance_inconsistent(self):
        with pytest.raises(ParameterError):
            ModelParams(q=3, k=3, theta=0.9, j_coupling=-2.0, beta=0.5)

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

    def test_vectors_are_read_only(self):
        f = PeriodTwoField.zero(3)
        with pytest.raises(ValueError):
            f.h_even[0] = 1.0


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
    def test_fully_aligned(self):
        edges = [(0, 1), (1, 2), (2, 3)]
        config = {v: 1 for v in range(4)}
        assert hamiltonian(config, edges, 1.0) == -3.0

    def test_proper_coloring(self):
        edges = [(0, 1), (1, 2)]
        config = {0: 1, 1: 2, 2: 1}
        assert hamiltonian(config, edges, 5.0) == 0.0

    def test_single_aligned_edge_negative_coupling(self):
        assert hamiltonian({0: 1, 1: 1}, [(0, 1)], -2.0) == 2.0

    def test_rejects_bad_spin(self):
        with pytest.raises(DomainError):
            hamiltonian({0: 0, 1: 1}, [(0, 1)], 1.0)
        with pytest.raises(DomainError):
            hamiltonian({0: 1, 1: 4}, [(0, 1)], 1.0, q=3)


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
        w = finite_volume_weight(config, edges, boundary, f, p)
        assert w == pytest.approx(0.5 ** 4, rel=1e-14)

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
        assert math.isfinite(finite_volume_log_weight({0: 1}, [], [(0, 0)], f, p))
        with pytest.raises(DomainError):
            finite_volume_weight({0: 1}, [], [(0, 0)], f, p)
