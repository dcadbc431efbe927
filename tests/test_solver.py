import math

import numpy as np
import pytest

from gibbstree import (
    ConvergenceError,
    HypothesisError,
    ModelParams,
    ParameterError,
    im_prime_poly,
    solve_im,
    solve_im_prime,
    theta_critical,
    two_step_map,
)
from gibbstree.errors import EvaluationError
from gibbstree.invariants import im_prime_coeffs, im_prime_system_residual, mobius_pow_k
from gibbstree.solver import (
    Bracket,
    SolverConfig,
    _divide_out_unit_root,
    _positive_roots,
    _require_squarefree,
    refine,
    scan_sign_changes,
)

from conftest import block_roots_by_scan, mirror_roots_by_scan


class TestBracketAndConfig:
    def test_bracket_validation(self):
        Bracket(lo=0.5, hi=2.0, f_lo=-1.0, f_hi=1.0)
        with pytest.raises(ParameterError):
            Bracket(lo=2.0, hi=0.5, f_lo=-1.0, f_hi=1.0)
        with pytest.raises(ParameterError):
            Bracket(lo=0.5, hi=2.0, f_lo=1.0, f_hi=1.0)
        with pytest.raises(ParameterError):
            Bracket(lo=0.5, hi=2.0, f_lo=0.0, f_hi=1.0)

    def test_config_validation(self):
        SolverConfig()
        SolverConfig(grid_points=100, refine_tol=1e-10, dedup_tol=1e-6)
        with pytest.raises(ParameterError):
            SolverConfig(grid_points=50)
        with pytest.raises(ParameterError):
            SolverConfig(refine_tol=0.0)
        with pytest.raises(ParameterError):
            SolverConfig(dedup_tol=0.5)
        with pytest.raises(ParameterError):
            SolverConfig(max_refine_iters=0)


class TestScan:
    def test_finds_single_crossing(self):
        cfg = SolverConfig(grid_points=100)
        brackets = scan_sign_changes(lambda x: x - 1.0, 0.55, 2.0, cfg)
        assert len(brackets) == 1
        b = brackets[0]
        assert b.lo < 1.0 < b.hi

    def test_exact_node_zero_yields_no_bracket(self):
        # a root sitting exactly on a grid node is invisible to the strict
        # sign test; callers that expect such roots must seed them directly
        cfg = SolverConfig(grid_points=100)
        assert scan_sign_changes(lambda x: x - 1.0, 0.5, 2.0, cfg) == []

    def test_cubic_three_crossings(self):
        cfg = SolverConfig(grid_points=1000)
        fn = lambda x: (x - 1.0) * (x - 2.0) * (x - 3.0)
        brackets = scan_sign_changes(fn, 0.5, 3.5, cfg)
        assert len(brackets) == 3

    def test_geometric_spacing(self):
        cfg = SolverConfig(grid_points=200)
        brackets = scan_sign_changes(lambda x: math.log(x), 0.01, 100.0, cfg,
                                     spacing="geometric")
        assert len(brackets) == 1
        assert brackets[0].lo < 1.0 < brackets[0].hi

    def test_rejects_bad_args(self):
        cfg = SolverConfig(grid_points=100)
        with pytest.raises(ParameterError):
            scan_sign_changes(lambda x: x, 2.0, 1.0, cfg)
        with pytest.raises(ParameterError):
            scan_sign_changes(lambda x: x, -1.0, 1.0, cfg, spacing="geometric")
        with pytest.raises(ParameterError):
            scan_sign_changes(lambda x: x, 0.0, 1.0, cfg, spacing="sideways")

    def test_nonfinite_value_reports_abscissa(self):
        cfg = SolverConfig(grid_points=100)
        with pytest.raises(EvaluationError) as exc:
            scan_sign_changes(lambda x: float("nan") if x > 1.5 else x, 1.0, 2.0, cfg)
        assert "x=" in str(exc.value)


class TestRefine:
    def test_sqrt_two(self):
        fn = lambda x: x * x - 2.0
        b = Bracket(lo=1.0, hi=2.0, f_lo=fn(1.0), f_hi=fn(2.0))
        root = refine(fn, b, SolverConfig(refine_tol=1e-12))
        assert root == pytest.approx(math.sqrt(2.0), abs=1e-11)

    def test_linear(self):
        fn = lambda x: 3.0 * (x - 1.0)
        b = Bracket(lo=0.0, hi=5.0, f_lo=fn(0.0), f_hi=fn(5.0))
        assert refine(fn, b) == pytest.approx(1.0, abs=1e-11)

    def test_mirror_poly_root(self):
        p = ModelParams(q=3, k=3, theta=0.1)
        fn = lambda z: im_prime_poly(z, p, 1)
        b = Bracket(lo=0.5, hi=0.6, f_lo=fn(0.5), f_hi=fn(0.6))
        root = refine(fn, b)
        scale = (p.theta + p.q - 1.0) ** p.k * abs(p.theta - 1.0)
        assert abs(fn(root)) <= 1e-6 * scale

    def test_budget_exhaustion(self):
        # a step discontinuity defeats secant acceleration, so the bracket
        # narrows too slowly to hit the tolerance in three iterations
        fn = lambda x: 1.0 if x >= 1.23456789 else -1.0
        b = Bracket(lo=0.0, hi=2.0, f_lo=-1.0, f_hi=1.0)
        with pytest.raises(ConvergenceError):
            refine(fn, b, SolverConfig(refine_tol=1e-12, max_refine_iters=3))


    def test_adjacent_floats_end_the_loop(self):
        # one ulp at 3.4e4 is 7.3e-12, wider than 2*refine_tol, and no float
        # lies strictly between the ends, so bisection cannot shrink further
        lo = 33677.46417482146
        hi = math.nextafter(lo, math.inf)
        fn = lambda x: -1.0 if x <= lo else 1.0
        b = Bracket(lo=lo, hi=hi, f_lo=-1.0, f_hi=1.0)
        assert refine(fn, b, SolverConfig(refine_tol=1e-12)) in (lo, hi)


def _block_range(p, m):
    """The range of f^k on (0, inf), which holds every block solution x."""
    return (((p.theta + m - 1.0) / m) ** p.k,
            ((p.q - m) / (p.theta + p.q - m - 1.0)) ** p.k)


class TestScanInterval:
    def test_contains_unit(self):
        rng = np.random.default_rng(59)
        for _ in range(20):
            k = int(rng.integers(3, 9))
            q = int(rng.integers(3, k + 1))
            p = ModelParams(q=q, k=k, theta=float(rng.uniform(0.01, 0.99)))
            m = int(rng.integers(1, q))
            lo, hi = _block_range(p, m)
            assert lo < 1.0 < hi

    def test_formula_endpoints(self):
        # the ends are f^k at 0 and its limit at infinity
        p = ModelParams(q=3, k=3, theta=0.1)
        lo, hi = _block_range(p, 1)
        assert hi == pytest.approx(mobius_pow_k(0.0, p, 1), rel=1e-12)
        assert lo == pytest.approx(mobius_pow_k(1e15, p, 1), rel=1e-9)

    def test_all_roots_inside(self):
        p = ModelParams(q=3, k=3, theta=0.1)
        lo, hi = _block_range(p, 1)
        for sol in solve_im(p, 1):
            assert lo < sol.x < hi


class TestSolveIm:
    def test_unique_above_threshold(self, p33_warm):
        sols = solve_im(p33_warm, 1)
        assert len(sols) == 1
        assert sols[0].x == pytest.approx(1.0, abs=1e-10)
        assert sols[0].y == pytest.approx(1.0, abs=1e-10)

    def test_three_below_threshold(self, p33):
        sols = solve_im(p33, 1)
        assert len(sols) == 3
        xs = [s.x for s in sols]
        assert xs == sorted(xs)
        assert xs[0] < 1.0 < xs[2]
        assert xs[1] == pytest.approx(1.0, abs=1e-10)
        assert xs[0] == pytest.approx(0.066615685324, rel=1e-9)

    def test_solutions_satisfy_two_step_equation(self, p33):
        for sol in solve_im(p33, 1):
            assert abs(two_step_map(sol.x, p33, 1) - sol.x) <= 1e-10

    def test_y_is_k_fold_image(self, p33):
        for sol in solve_im(p33, 1):
            assert sol.y == pytest.approx(mobius_pow_k(sol.x, p33, 1), rel=1e-10)

    def test_residuals_are_small(self, p33):
        for sol in solve_im(p33, 1):
            assert sol.residual_full <= 1e-9

    def test_involution_pairs_outer_solutions(self, p33):
        sols = solve_im(p33, 1)
        assert sols[0].x == pytest.approx(sols[2].y, abs=1e-9)
        assert sols[2].x == pytest.approx(sols[0].y, abs=1e-9)

    def test_far_root_below_float_spacing(self):
        # the float spacing at the outer root x ~ 33677.46 is 7.3e-12, wider
        # than twice the refine tolerance, so refine must stop on adjacent floats
        p = ModelParams(q=3, k=7, theta=0.1819101633035649)
        sols = solve_im(p, 2)
        assert len(sols) == 3
        assert sols[2].x == pytest.approx(33677.46417482146, rel=1e-12)
        assert all(s.residual_full <= 1e-9 for s in sols)

    def test_at_threshold_contains_unit(self):
        p = ModelParams(q=3, k=3, theta=0.25)
        sols = solve_im(p, 1)
        assert any(abs(s.x - 1.0) <= 1e-10 for s in sols)

    def test_regime_gate(self):
        with pytest.raises(HypothesisError):
            solve_im(ModelParams(q=5, k=3, theta=0.1), 1)
        with pytest.raises(HypothesisError):
            solve_im(ModelParams(q=3, k=3, theta=1.5), 1)

    def test_index_gate(self, p33):
        with pytest.raises(ParameterError):
            solve_im(p33, 0)
        with pytest.raises(ParameterError):
            solve_im(p33, 3)

    def test_deterministic(self, p33):
        a = [(s.x, s.y) for s in solve_im(p33, 1)]
        b = [(s.x, s.y) for s in solve_im(p33, 1)]
        assert a == b


class TestSolveImPrime:
    def test_multiple_below_threshold(self):
        p = ModelParams(q=5, k=7, theta=0.2)
        sols, _ = solve_im_prime(p, 2)
        assert len(sols) >= 3

    def test_unique_above_threshold(self):
        p = ModelParams(q=5, k=7, theta=0.5)
        sols, _ = solve_im_prime(p, 2)
        assert len(sols) == 1
        assert sols[0].z == pytest.approx(1.0, abs=1e-10)
        assert sols[0].t == pytest.approx(1.0, abs=1e-10)

    def test_frozen_roots(self, p33):
        sols, _ = solve_im_prime(p33, 1)
        zs = [s.z for s in sols]
        assert len(zs) == 3
        assert zs[0] == pytest.approx(0.5676438688, rel=1e-7)
        assert zs[1] == pytest.approx(1.0, abs=1e-10)
        assert zs[2] == pytest.approx(1.2978464759, rel=1e-7)

    def test_solution_structure(self, p33):
        sols, _ = solve_im_prime(p33, 1)
        for s in sols:
            assert s.x == pytest.approx(s.z ** p33.k, rel=1e-12)
            assert s.y == pytest.approx(s.t ** p33.k, rel=1e-12)
            assert im_prime_system_residual(s.z, s.t, p33, 1) <= 1e-9
            assert s.residual_full <= 1e-9

    def test_unit_always_present(self):
        rng = np.random.default_rng(61)
        for _ in range(8):
            k = int(rng.integers(3, 8))
            q = int(rng.integers(3, k + 1))
            p = ModelParams(q=q, k=k, theta=float(rng.uniform(0.05, 0.95)))
            sols, _ = solve_im_prime(p, 1)
            assert any(abs(s.z - 1.0) <= 1e-10 for s in sols)

    def test_sorted_by_x(self, p33):
        sols, _ = solve_im_prime(p33, 1)
        xs = [s.x for s in sols]
        assert xs == sorted(xs)

    def test_rejected_roots_reported(self, p33):
        # polynomial roots whose mirror partner is not recoverable are
        # surfaced with a reason instead of silently dropped
        sols, rejected = solve_im_prime(p33, 1)
        for r in rejected:
            assert r.reason
            assert all(abs(r.z - s.z) > 1e-8 for s in sols)

    @pytest.mark.parametrize("q,k", [(3, 3), (3, 4)])
    @pytest.mark.parametrize("theta", [0.9999999467599381, 1.0 - 2.0 ** -40])
    def test_unit_solution_kept_as_theta_nears_one(self, q, k, theta):
        # both sides of the ratio for t^k vanish at z = 1 as theta -> 1; the
        # unit root is lifted to t = 1 exactly instead
        sols, rejected = solve_im_prime(ModelParams(q=q, k=k, theta=theta), 1)
        assert [(s.z, s.t, s.x, s.y, s.residual_full) for s in sols] == [(1.0,) * 4 + (0.0,)]
        assert rejected == []

    def test_regime_gate(self):
        with pytest.raises(HypothesisError):
            solve_im_prime(ModelParams(q=3, k=3, theta=1.5), 1)

    def test_index_gate(self, p33):
        with pytest.raises(ParameterError):
            solve_im_prime(p33, 2)


def _poly(*factors):
    """Integer polynomial product of the factors, lowest degree first."""
    out = [1]
    for f in factors:
        out = [sum(out[i] * f[n - i] for i in range(len(out)) if 0 <= n - i < len(f))
               for n in range(len(out) + len(f) - 1)]
    return out


class TestExactRootIsolation:
    def test_roots_on_both_sides_of_one(self):
        # (3z-1)(z-2)(z-5)(z+1): the negative root is ignored
        roots = _positive_roots(_poly([-1, 3], [-2, 1], [-5, 1], [1, 1]))
        assert roots == pytest.approx([1 / 3, 2.0, 5.0], rel=1e-15)

    def test_roots_on_bisection_midpoints(self):
        # 1/2 and 3/4 are bisection points of (0, 1); 2 is 1/(1/2) on the
        # reversed side; each is found exactly and its neighbour still is
        c = _poly([-1, 2], [-3, 4], [-7, 1], [1, 1], [-2, 1], [3, 1])
        assert _positive_roots(c) == [0.5, 0.75, 2.0, 7.0]

    def test_repeated_root_is_refused(self):
        with pytest.raises(ConvergenceError):
            _require_squarefree(_poly([-2, 1], [-2, 1], [1, 1]))
        _require_squarefree(_poly([-2, 1], [-3, 1], [1, 1]))

    def test_unit_root_divided_out_with_multiplicity(self):
        assert _divide_out_unit_root(_poly([-1, 1], [-1, 1], [-1, 1], [2, 1])) == [2, 1]

    def test_nearest_float(self):
        # each root comes back as the float nearest to it, on both sides of 1
        cases = [([-2, 0, 1], math.sqrt(2.0)), ([-1, 3], 1 / 3), ([-10, 3], 10 / 3),
                 ([-235742, 7], 235742 / 7), ([-3, 1_000_000], 3e-6)]
        for c, root in cases:
            assert _positive_roots(c) == [root]

    def test_triple_unit_root_at_dyadic_threshold(self):
        for q, k, m in ((3, 3, 1), (3, 7, 1)):
            c = im_prime_coeffs(ModelParams(q=q, k=k, theta=theta_critical(q, k)), m)
            assert len(c) - len(_divide_out_unit_root(c)) == 3


class TestMirrorNearCritical:
    # the two roots branching off z = 1 sit ~1e-4 from it at
    # theta_cr*(1-1e-8), inside one cell of any practical grid
    CASES = [(3, 3, 1), (3, 5, 1), (5, 7, 2)]

    @pytest.mark.parametrize("q,k,m", CASES)
    def test_three_just_below(self, q, k, m):
        t_cr = theta_critical(q, k)
        for theta in (t_cr * (1.0 - 1e-8), t_cr - 1e-10):
            sols, _ = solve_im_prime(ModelParams(q=q, k=k, theta=theta), m)
            zs = [s.z for s in sols]
            assert len(zs) == 3, (theta, zs)
            assert zs[0] < 1.0 == zs[1] < zs[2]
            assert all(s.residual_full <= 1e-9 for s in sols)

    @pytest.mark.parametrize("q,k,m", CASES)
    def test_one_just_above(self, q, k, m):
        theta = theta_critical(q, k) * (1.0 + 1e-8)
        sols, _ = solve_im_prime(ModelParams(q=q, k=k, theta=theta), m)
        assert [s.z for s in sols] == [1.0]

    @pytest.mark.parametrize("q,k,theta", [(3, 3, 0.25), (3, 7, 0.625)])
    def test_exact_dyadic_threshold(self, q, k, theta):
        assert theta == theta_critical(q, k)
        sols, rejected = solve_im_prime(ModelParams(q=q, k=k, theta=theta), 1)
        assert [(s.z, s.t) for s in sols] == [(1.0, 1.0)]
        assert rejected == []


class TestBlockNearCritical:
    # the two roots branching off x = 1 sit ~1e-4 from it at
    # theta_cr*(1-1e-8), inside one cell of any practical grid
    CASES = [(3, 3, 1), (3, 3, 2), (3, 5, 1), (5, 7, 2), (4, 7, 1), (7, 7, 3), (3, 7, 2)]

    @pytest.mark.parametrize("q,k,m", CASES)
    def test_three_below(self, q, k, m):
        t_cr = theta_critical(q, k)
        for theta in (0.1, t_cr * (1.0 - 1e-8), t_cr - 1e-10):
            sols = solve_im(ModelParams(q=q, k=k, theta=theta), m)
            xs = [s.x for s in sols]
            assert len(xs) == 3, (theta, xs)
            assert xs[0] < 1.0 == xs[1] < xs[2]
            assert all(s.residual_full <= 1e-9 for s in sols)

    @pytest.mark.parametrize("q,k,m", CASES)
    def test_exactly_one_at_and_above(self, q, k, m):
        t_cr = theta_critical(q, k)
        for theta in (t_cr, t_cr * (1.0 + 1e-8), 0.9 * t_cr + 0.1):
            sols = solve_im(ModelParams(q=q, k=k, theta=theta), m)
            assert [s.x for s in sols] == [1.0], theta


class TestBlockScanParity:
    def test_matches_dense_scan_away_from_threshold(self):
        rng = np.random.default_rng(73)
        checked = 0
        while checked < 12:
            k = int(rng.integers(3, 8))
            q = int(rng.integers(3, k + 1))
            p = ModelParams(q=q, k=k, theta=float(rng.uniform(0.01, 0.99)))
            if abs(p.theta / theta_critical(q, k) - 1.0) < 0.05:
                continue
            m = int(rng.integers(1, q))
            got = [s.x for s in solve_im(p, m) if s.x != 1.0]
            # the float gap cannot resolve x = 1, where its slope is near 1
            expected = [x for x in block_roots_by_scan(p, m) if abs(x - 1.0) > 1e-6]
            assert len(got) == len(expected), (p, m, got, expected)
            assert got == pytest.approx(expected, rel=1e-12)
            checked += 1


class TestMirrorScanParity:
    def test_matches_dense_scan_away_from_threshold(self):
        # every polynomial root the solver reports, accepted or rejected,
        # against an independent dense sign scan
        rng = np.random.default_rng(67)
        checked = 0
        while checked < 12:
            k = int(rng.integers(3, 8))
            q = int(rng.integers(3, k + 1))
            p = ModelParams(q=q, k=k, theta=float(rng.uniform(0.01, 0.99)))
            if abs(p.theta / theta_critical(q, k) - 1.0) < 0.05:
                continue
            m = int(rng.integers(1, (q - 1) // 2 + 1))
            sols, rejected = solve_im_prime(p, m)
            got = sorted([s.z for s in sols] + [r.z for r in rejected])
            expected = mirror_roots_by_scan(p, m)
            assert len(got) == len(expected), (p, m, got, expected)
            assert got == pytest.approx(expected, rel=1e-12)
            checked += 1


class TestTransitionLocation:
    def test_bisecting_solution_count_brackets_threshold(self):
        # the number of block solutions jumps from 3 to 1 exactly at the
        # critical coupling, so bisection on the count must land there
        lo, hi = 0.2, 0.3
        def many(theta: float) -> bool:
            return len(solve_im(ModelParams(q=3, k=3, theta=theta), 1)) >= 3
        assert many(lo) and not many(hi)
        while hi - lo > 1e-4:
            mid = 0.5 * (lo + hi)
            if many(mid):
                lo = mid
            else:
                hi = mid
        assert lo <= 0.25 <= hi
