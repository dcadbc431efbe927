import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from gibbstree import (
    DomainError,
    HypothesisError,
    InvariantSetId,
    ModelParams,
    ParameterError,
    PeriodTwoField,
    ReducedScalar,
    SetKind,
    compat_map,
    embed_full,
    im_prime_poly,
    im_prime_poly_mp,
    im_prime_poly_slope_at_one,
    mobius_deriv,
    mobius_map,
    solve_im,
    theta_critical,
    two_step_map,
    two_step_slope_at_one,
)
from gibbstree.invariants import (
    _poly_mul,
    _poly_pow,
    im_coeffs,
    im_prime_coeffs,
    mobius_pow_k,
)
from gibbstree.exact import _divide_out_unit_root

from conftest import draw_regime_params, two_step_value


class TestInvariantSetId:
    def test_labels(self):
        assert InvariantSetId(SetKind.IM, 2).label() == "im:2"
        assert InvariantSetId(SetKind.IM_PRIME, 1).label() == "imprime:1"

    def test_validate_for(self):
        InvariantSetId(SetKind.IM, 2).validate_for(3)
        InvariantSetId(SetKind.IM_PRIME, 1).validate_for(3)
        with pytest.raises(ParameterError):
            InvariantSetId(SetKind.IM, 3).validate_for(3)
        with pytest.raises(ParameterError):
            InvariantSetId(SetKind.IM_PRIME, 2).validate_for(4)
        with pytest.raises(ParameterError):
            InvariantSetId(SetKind.IM, 0).validate_for(3)


class TestMobiusMap:
    def test_fixes_one(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            p = draw_regime_params(rng)
            m = int(rng.integers(1, p.q))
            assert mobius_map(1.0, p, m) == pytest.approx(1.0, rel=1e-15)

    def test_value_at_zero(self):
        p = ModelParams(q=3, k=3, theta=0.1)
        assert mobius_map(0.0, p, 1) == pytest.approx(2.0 / 1.1, rel=1e-15)

    def test_hand_value(self):
        # ((theta + m - 1) x + q - m) / (m x + theta + q - m - 1) at x=2
        p = ModelParams(q=3, k=3, theta=0.1)
        assert mobius_map(2.0, p, 1) == pytest.approx(2.2 / 3.1, rel=1e-15)

    def test_strictly_decreasing_in_regime(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            p = draw_regime_params(rng)
            m = int(rng.integers(1, p.q))
            xs = np.geomspace(0.01, 100.0, 40)
            vals = [mobius_map(float(x), p, m) for x in xs]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_rejects_negative(self):
        p = ModelParams(q=3, k=3, theta=0.1)
        with pytest.raises(DomainError):
            mobius_map(-1.0, p, 1)


class TestMobiusPowK:
    def test_is_kth_power(self):
        p = ModelParams(q=3, k=3, theta=0.1)
        base = mobius_map(2.0, p, 1)
        assert mobius_pow_k(2.0, p, 1) == pytest.approx(base ** 3, rel=1e-14)

    def test_monotone_decreasing(self):
        p = ModelParams(q=4, k=5, theta=0.2)
        xs = np.geomspace(0.05, 20.0, 30)
        vals = [mobius_pow_k(float(x), p, 1) for x in xs]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestTwoStepMap:
    def test_fixes_one(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            p = draw_regime_params(rng)
            m = int(rng.integers(1, p.q))
            assert two_step_map(1.0, p, m) == pytest.approx(1.0, rel=1e-14)

    def test_increasing(self):
        p, m = ModelParams(q=3, k=3, theta=0.1), 1
        # the range of f^k, which holds every fixed point
        lo = ((p.theta + m - 1) / m) ** p.k
        hi = ((p.q - m) / (p.theta + p.q - m - 1)) ** p.k
        xs = np.geomspace(max(lo, 1e-6), hi, 50)
        vals = [two_step_map(float(x), p, m) for x in xs]
        assert all(a < b for a, b in zip(vals, vals[1:]))


class TestDerivatives:
    def test_mobius_deriv_at_one(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            p = draw_regime_params(rng)
            m = int(rng.integers(1, p.q))
            expected = (p.theta - 1.0) / (p.theta + p.q - 1.0)
            assert mobius_deriv(1.0, p, m) == pytest.approx(expected, rel=1e-13)

    def test_mobius_deriv_hand_value(self):
        p = ModelParams(q=3, k=3, theta=0.1)
        assert mobius_deriv(1.0, p, 1) == pytest.approx(-0.9 / 2.1, rel=1e-14)

    def test_mobius_deriv_matches_fd(self):
        p = ModelParams(q=3, k=3, theta=0.1)
        h = 1e-7
        for x in [0.5, 1.0, 2.0]:
            fd = (mobius_map(x + h, p, 1) - mobius_map(x - h, p, 1)) / (2 * h)
            assert mobius_deriv(x, p, 1) == pytest.approx(fd, rel=1e-6)

    def test_mobius_deriv_negative(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            p = draw_regime_params(rng)
            m = int(rng.integers(1, p.q))
            assert mobius_deriv(float(rng.uniform(0.1, 5.0)), p, m) < 0.0

    def test_two_step_slope_threshold_is_exact(self):
        # at the transition value the squared slope lands on 1.0 exactly
        p = ModelParams(q=3, k=3, theta=0.25)
        assert two_step_slope_at_one(p) == 1.0

    def test_two_step_slope_hand_value(self):
        p = ModelParams(q=3, k=3, theta=0.1)
        assert two_step_slope_at_one(p) == pytest.approx(81.0 / 49.0, rel=1e-14)

    def test_two_step_slope_matches_fd(self):
        p = ModelParams(q=3, k=3, theta=0.1)
        h = 1e-6
        fd = (two_step_map(1.0 + h, p, 1) - two_step_map(1.0 - h, p, 1)) / (2 * h)
        assert two_step_slope_at_one(p) == pytest.approx(fd, rel=1e-6)


class TestThetaCritical:
    @pytest.mark.parametrize("q,k,expected", [
        (3, 3, 0.25),
        (3, 4, 0.4),
        (4, 5, 1.0 / 3.0),
    ])
    def test_values(self, q, k, expected):
        assert theta_critical(q, k) == pytest.approx(expected, rel=1e-15)

    def test_out_of_regime(self):
        with pytest.raises(HypothesisError):
            theta_critical(4, 3)
        with pytest.raises(HypothesisError):
            theta_critical(3, 2)
        with pytest.raises(ParameterError):
            theta_critical(3.0, 4)


class TestMirrorPolynomial:
    def test_root_at_one(self):
        rng = np.random.default_rng(37)
        for _ in range(30):
            p = draw_regime_params(rng)
            m = int(rng.integers(1, (p.q - 1) // 2 + 1))
            scale = (p.theta + p.q - 1.0) ** p.k * abs(p.theta - 1.0)
            assert abs(im_prime_poly(1.0, p, m)) <= 1e-9 * scale

    def test_value_at_zero_closed_form(self):
        # constant term carries the k-th power on its second factor
        rng = np.random.default_rng(41)
        for _ in range(30):
            p = draw_regime_params(rng)
            m = int(rng.integers(1, (p.q - 1) // 2 + 1))
            expected = (p.q - 2 * m) ** p.k * (p.theta + m - 1.0) \
                + (p.q - 2 * m) * (p.theta + p.q - m - 1.0) ** p.k
            got = im_prime_poly(0.0, p, m)
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_eventually_negative(self):
        p = ModelParams(q=3, k=3, theta=0.1)
        assert im_prime_poly(1e6, p, 1) < 0.0

    def test_frozen_sign_changes(self):
        # roots near 0.5676 and 1.2978 for the reference point
        p = ModelParams(q=3, k=3, theta=0.1)
        assert im_prime_poly(0.56, p, 1) * im_prime_poly(0.58, p, 1) < 0.0
        assert im_prime_poly(1.29, p, 1) * im_prime_poly(1.31, p, 1) < 0.0

    def test_slope_at_one_zero_at_threshold(self):
        p = ModelParams(q=3, k=3, theta=0.25)
        assert im_prime_poly_slope_at_one(p) == pytest.approx(0.0, abs=1e-12)

    def test_slope_at_one_hand_value(self):
        # (k^2-1) s^2 - 2 q s - q^2 with s = theta - 1
        p = ModelParams(q=3, k=3, theta=0.1)
        expected = 8 * 0.81 + 6 * 0.9 - 9.0
        assert im_prime_poly_slope_at_one(p) == pytest.approx(expected, rel=1e-13)

    def test_slope_sign_tracks_threshold(self):
        rng = np.random.default_rng(43)
        for _ in range(60):
            p = draw_regime_params(rng)
            m = int(rng.integers(1, (p.q - 1) // 2 + 1))
            t_cr = theta_critical(p.q, p.k)
            if abs(p.theta - t_cr) < 1e-9:
                continue
            slope = im_prime_poly_slope_at_one(p)
            assert (slope > 0.0) == (p.theta < t_cr)

    def test_slope_shared_by_poly_family(self):
        # the normalized slope at the unit root does not depend on m
        p = ModelParams(q=5, k=7, theta=0.2)
        norm = (p.theta + p.q - 1.0) ** (p.k - 1)
        h = 1e-6
        for m in (1, 2):
            fd = (im_prime_poly(1.0 + h, p, m) - im_prime_poly(1.0 - h, p, m)) / (2 * h)
            assert fd / norm == pytest.approx(im_prime_poly_slope_at_one(p), rel=1e-5)

    def test_slope_matches_normalized_fd(self):
        p = ModelParams(q=3, k=3, theta=0.1)
        h = 1e-6
        fd = (im_prime_poly(1.0 + h, p, 1) - im_prime_poly(1.0 - h, p, 1)) / (2 * h)
        norm = (p.theta + p.q - 1.0) ** (p.k - 1)
        assert fd / norm == pytest.approx(im_prime_poly_slope_at_one(p), rel=1e-5)


def _eval_exact(coeffs: list[int], z: Fraction) -> Fraction:
    return sum((c * z ** i for i, c in enumerate(coeffs)), Fraction(0))


class TestMirrorCoeffs:
    def test_matches_high_precision_polynomial(self):
        # D^(k+1) p(z) with theta = A/D, at random rational z, against the
        # four-factor form evaluated at 300 digits
        rng = np.random.default_rng(71)
        for _ in range(20):
            p = draw_regime_params(rng)
            m = int(rng.integers(1, (p.q - 1) // 2 + 1))
            coeffs = im_prime_coeffs(p, m)
            d = Fraction(p.theta).denominator
            z = Fraction(int(rng.integers(1, 4000)), int(rng.integers(1, 1000)))
            got = _eval_exact(coeffs, z)
            with mp.workdps(300):
                zz = mp.mpf(z.numerator) / z.denominator
                want = im_prime_poly_mp(zz, p, m, dps=300) * mp.mpf(d) ** (p.k + 1)
                err = abs(mp.mpf(got.numerator) / got.denominator - want)
                assert err <= mp.mpf(10) ** -250 * abs(want)

    def test_constant_term_closed_form(self):
        rng = np.random.default_rng(73)
        for _ in range(30):
            p = draw_regime_params(rng)
            m = int(rng.integers(1, (p.q - 1) // 2 + 1))
            th = Fraction(p.theta)
            p0 = (p.q - 2 * m) ** p.k * (th + m - 1) + (p.q - 2 * m) * (th + p.q - m - 1) ** p.k
            assert im_prime_coeffs(p, m)[0] == p0 * th.denominator ** (p.k + 1)

    def test_degree(self):
        # the top coefficient (-m)^(k+1) - m^(k+1) cancels exactly for odd k
        rng = np.random.default_rng(79)
        for _ in range(30):
            p = draw_regime_params(rng)
            m = int(rng.integers(1, (p.q - 1) // 2 + 1))
            expected = p.k * (p.k + 1) + (1 if p.k % 2 == 0 else 0)
            assert len(im_prime_coeffs(p, m)) - 1 == expected

    def test_unit_root_is_exact(self):
        rng = np.random.default_rng(83)
        for _ in range(30):
            p = draw_regime_params(rng)
            m = int(rng.integers(1, (p.q - 1) // 2 + 1))
            assert sum(im_prime_coeffs(p, m)) == 0


class TestBlockCoeffs:
    def test_two_step_polynomial_from_defining_formula(self):
        # U and V read off T(z) = z U(z^k) - V(z^k) give x U(x)^k - V(x)^k
        # equal to R at k^2+2 points, more than its degree k^2+1: they are
        # the U and V of R, up to a common sign that positivity fixes
        rng = np.random.default_rng(89)
        for _ in range(12):
            p = draw_regime_params(rng, k_max=7)
            m = int(rng.integers(1, p.q))
            t, k = im_coeffs(p, m), p.k
            u, v = t[1::k], [-c for c in t[::k]]
            assert len(u) == len(v) == k + 1 and min(u + v) > 0
            for x in range(-1, k * k + 1):
                r = x * _eval_exact(u, Fraction(x)) ** k - _eval_exact(v, Fraction(x)) ** k
                assert r == two_step_value(p, m, x)

    def test_degree_and_sparsity(self):
        rng = np.random.default_rng(97)
        for _ in range(20):
            p = draw_regime_params(rng)
            k = p.k
            t = im_coeffs(p, int(rng.integers(1, p.q)))
            assert len(t) - 1 == k * k + 1
            nonzero = [i for i, c in enumerate(t) if c]
            assert len(nonzero) == 2 * k + 2
            assert set(nonzero) == {i * k + j for i in range(k + 1) for j in (0, 1)}

    def test_sign_matches_two_step_polynomial(self):
        # sign T(z) = sign R(z^k) for z > 0, with R from its defining formula,
        # at seeded rationals and at points just around every root
        def sign(v):
            return (v > 0) - (v < 0)

        rng = np.random.default_rng(101)
        seen = set()
        for _ in range(12):
            p = draw_regime_params(rng, k_max=7)
            m = int(rng.integers(1, p.q))
            t, k = im_coeffs(p, m), p.k
            zs = [Fraction(int(rng.integers(1, 2 ** 20)), int(rng.integers(1, 2 ** 20)))
                  for _ in range(8)]
            for s in solve_im(p, m):
                z = Fraction(s.x ** (1.0 / k))
                zs += [z * (1 - Fraction(1, 10 ** 6)), z * (1 + Fraction(1, 10 ** 6))]
            for z in zs:
                want = sign(two_step_value(p, m, z ** k))
                assert sign(_eval_exact(t, z)) == want, (p, m, z)
                seen.add(want)
        assert seen == {-1, 1}

    def test_unit_root_multiplicity(self):
        # z = 1 is a triple root of T at a dyadic theta_cr, a simple one off it
        for q, k, m in ((3, 3, 1), (3, 3, 2), (3, 7, 1), (3, 7, 2)):
            t_cr = theta_critical(q, k)
            for theta, mult in ((t_cr, 3), (0.5 * t_cr, 1), (0.5 + 0.5 * t_cr, 1)):
                t = im_coeffs(ModelParams(q=q, k=k, theta=theta), m)
                assert len(t) - len(_divide_out_unit_root(t)) == mult, (q, k, m, theta)

    def test_roots_are_two_step_fixed_points(self):
        p = ModelParams(q=3, k=3, theta=0.1)
        for m, x in ((1, 0.06661568532450396), (2, 15.011479580653045)):
            assert abs(two_step_map(x, p, m) - x) <= 1e-12 * x
            eps = Fraction(1, 10**9)
            below, above = Fraction(x) * (1 - eps), Fraction(x) * (1 + eps)
            assert two_step_value(p, m, below) * two_step_value(p, m, above) < 0


class TestPolyPow:
    def test_matches_repeated_multiplication(self):
        rng = np.random.default_rng(151)
        for _ in range(30):
            p = [int(v) for v in rng.integers(-10**6, 10**6, size=int(rng.integers(1, 9)))]
            for i in rng.choice(len(p), size=len(p) // 2, replace=False):
                p[i] = 0          # zero terms, as in the sparse mirror factor
            p[0] = int(rng.choice([-1, 1])) * int(rng.integers(1, 10**6))
            want = [1]
            for k in range(1, 10):
                want = _poly_mul(want, p)
                assert _poly_pow(p, k) == want

    def test_zero_constant_term_rejected(self):
        with pytest.raises(ParameterError):
            _poly_pow([0, 1, 2], 3)


class TestEmbedding:
    def test_im_pattern(self):
        p = ModelParams(q=4, k=3, theta=0.2)
        sol = ReducedScalar(x=2.0, y=3.0,
                            set_id=InvariantSetId(SetKind.IM, 2))
        fld = embed_full(sol, p)
        assert np.allclose(fld.h_even, [math.log(2.0), math.log(2.0), 0.0])
        assert np.allclose(fld.h_odd, [math.log(3.0), math.log(3.0), 0.0])

    def test_im_prime_pattern(self):
        p = ModelParams(q=7, k=7, theta=0.1)
        sol = ReducedScalar(x=2.0, y=3.0, z=2.0 ** (1 / 7), t=3.0 ** (1 / 7),
                            set_id=InvariantSetId(SetKind.IM_PRIME, 2))
        fld = embed_full(sol, p)
        lx, ly = math.log(2.0), math.log(3.0)
        assert np.allclose(fld.h_even, [lx, lx, 0.0, 0.0, ly, ly])
        assert np.allclose(fld.h_odd, [ly, ly, 0.0, 0.0, lx, lx])

    def test_unit_point_embeds_to_zero(self):
        p = ModelParams(q=3, k=3, theta=0.3)
        sol = ReducedScalar(x=1.0, y=1.0,
                            set_id=InvariantSetId(SetKind.IM, 1))
        fld = embed_full(sol, p)
        assert np.all(fld.h_even == 0.0) and np.all(fld.h_odd == 0.0)

    def test_embed_fills_residual(self):
        p = ModelParams(q=3, k=3, theta=0.3)
        sol = ReducedScalar(x=1.0, y=1.0,
                            set_id=InvariantSetId(SetKind.IM, 1))
        embed_full(sol, p)
        assert sol.residual_full == pytest.approx(0.0, abs=1e-14)


class TestPatternPreservation:
    def test_compat_map_preserves_patterns(self):
        # one application of the k-fold compatibility update keeps both
        # pattern shapes intact, so the scalar reduction is exact
        rng = np.random.default_rng(53)
        for _ in range(20):
            p = draw_regime_params(rng)
            q = p.q
            for kind in (SetKind.IM, SetKind.IM_PRIME):
                m_hi = q - 1 if kind == SetKind.IM else (q - 1) // 2
                if m_hi < 1:
                    continue
                m = int(rng.integers(1, m_hi + 1))
                x = float(rng.uniform(0.2, 5.0))
                y = float(rng.uniform(0.2, 5.0))
                if kind == SetKind.IM:
                    sol = ReducedScalar(x=x, y=y, set_id=InvariantSetId(kind, m))
                else:
                    sol = ReducedScalar(x=x, y=y, z=x ** (1 / p.k), t=y ** (1 / p.k),
                                        set_id=InvariantSetId(kind, m))
                fld = embed_full(sol, p)
                out = p.k * compat_map(fld.h_even, p)
                lead = out[:m]
                assert np.max(np.abs(lead - lead[0])) <= 1e-12
                if kind == SetKind.IM:
                    tail = out[m:]
                    if tail.size:
                        assert np.max(np.abs(tail)) <= 1e-12
                else:
                    mid = out[m:q - 1 - m]
                    tail = out[q - 1 - m:]
                    if mid.size:
                        assert np.max(np.abs(mid)) <= 1e-12
                    assert np.max(np.abs(tail - tail[0])) <= 1e-12
