import json
import math
import random
from dataclasses import replace
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from gibbstree import (
    ConvergenceError,
    HypothesisError,
    ModelParams,
    ParameterError,
    SetKind,
    im_prime_poly,
    solve_im,
    solve_im_prime,
    theta_critical,
    two_step_map,
)
from gibbstree.errors import EvaluationError
from gibbstree.invariants import (
    ReducedScalar,
    im_coeffs,
    im_prime_coeffs,
    im_prime_system_residual,
    mobius_pow_k,
)
from gibbstree import exact, solver
from gibbstree.exact import (
    _certified_roots,
    _divide_out_unit_root,
    _homogeneous,
    _nearest_float,
    _require_squarefree,
    _sign_at,
    _two_step_sign,
)
from gibbstree.sweep import parse_set_spec, solve_sets
from gibbstree.solver import (
    Bracket,
    SolverConfig,
    refine,
    scan_sign_changes,
    solve_im_reciprocal,
)

from conftest import (
    block_roots_by_scan,
    mirror_roots_by_scan,
    mirror_value,
    two_step_coeffs,
    two_step_value,
    ulp_distance,
)


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

    @pytest.mark.parametrize("q,k,theta,m,xs", [
        (3, 3, 0.1, 1, ["0x1.10db9bdde8f24p-4", "0x1.45b36d3f738eap+2"]),
        (4, 4, 0.05, 3, ["0x1.031626952dbb8p-2", "0x1.8d4f23a42d453p+3"]),
        (4, 5, 0.2, 2, ["0x1.4971640da4e43p-3", "0x1.8ddc0813abbfdp+2"]),
        (5, 6, 0.1, 2, ["0x1.8d0424ac9d416p-4", "0x1.8aec624d97443p+2"]),
        (3, 7, 0.3, 1, ["0x1.0ee2b44b9a2e1p-10", "0x1.44ec9c2637503p+4"]),
        (6, 8, 0.15, 4, ["0x1.79077abfae0ffp-3", "0x1.87aec7b48114cp+3"]),
        (7, 9, 0.1, 3, ["0x1.af11931a45aa0p-4", "0x1.ae1c22c7ce44cp+2"]),
        (3, 5, 0.5 * (1 - 1e-9), 1, ["0x1.ffeff2a3b828ap-1", "0x1.000806e1ae0f5p+0"]),
        (4, 6, 1 - 1e-7, 1, []),
    ])
    def test_frozen_roots(self, q, k, theta, m, xs):
        # every root to the bit, around the unit one: k = 3..9, one point
        # 1e-9 below theta_cr = 1/2 and one near theta = 1
        sols = solve_im(ModelParams(q=q, k=k, theta=theta), m)
        want = sorted([float.fromhex(x) for x in xs] + [1.0])
        assert [s.x for s in sols] == want

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

    def test_rejected_roots_reported(self, monkeypatch, p33):
        # a root that is no root's partner shifts every row of the reversed
        # list out of pair; each mispaired row fails the system check and is
        # reported with its residual instead of returned
        certified = solver._certified_roots
        monkeypatch.setattr(solver, "_certified_roots",
                            lambda coeffs, partner: certified(coeffs, partner) + [2.0])
        sols, rejected = solve_im_prime(p33, 1)
        assert sols == []
        assert [r.z for r in rejected] == [0.5676438687968762, 1.0, 1.297846475877372, 2.0]
        assert all(r.reason.startswith("system residual ") for r in rejected)

    @staticmethod
    def _large_k_solves():
        """Every mirror solve at k = 11..16, q = 3, 4, theta = theta_cr * 1e-3, 1e-2."""
        for k in range(11, 17):
            for q in (3, 4):
                for scale in (1e-3, 1e-2):
                    p = ModelParams(q=q, k=k, theta=theta_critical(q, k) * scale)
                    for m in range(1, (q - 1) // 2 + 1):
                        yield p, m, solve_im_prime(p, m)

    def test_three_solutions_at_large_k(self):
        # recovering t from a k-th root of a ratio that cancels down to t^k
        # lost the root near zero here to a system residual above 1e-9
        for p, m, (sols, rejected) in self._large_k_solves():
            assert (len(sols), rejected) == (3, []), (p, m)

    def test_partner_t_is_the_other_root_at_large_k(self):
        # (z, t) and (t, z) both solve the system, so the two non-unit
        # solutions carry each other's root, bit for bit
        for p, m, (sols, _) in self._large_k_solves():
            assert len(sols) == 3, (p, m)
            low, _, high = sols
            assert (low.t, high.t) == (high.z, low.z), (p, m)

    @pytest.mark.parametrize("q,k", [(3, 3), (3, 4)])
    @pytest.mark.parametrize("theta", [0.9999999467599381, 1.0 - 2.0 ** -40])
    def test_unit_solution_kept_as_theta_nears_one(self, q, k, theta):
        # the unit root is its own partner in the root list, so its row is exact
        sols, rejected = solve_im_prime(ModelParams(q=q, k=k, theta=theta), 1)
        assert [(s.z, s.t, s.x, s.y, s.residual_full) for s in sols] == [(1.0,) * 4 + (0.0,)]
        assert rejected == []

    def test_regime_gate(self):
        with pytest.raises(HypothesisError):
            solve_im_prime(ModelParams(q=3, k=3, theta=1.5), 1)

    def test_index_gate(self, p33):
        with pytest.raises(ParameterError):
            solve_im_prime(p33, 2)


def _cell_ends(v: float) -> tuple[Fraction, Fraction]:
    """The ends of the half-ulp cell of v: the midpoints to its two neighbouring floats."""
    return tuple((Fraction(v) + Fraction(math.nextafter(v, side))) / 2 for side in (0.0, math.inf))


class TestExactPairing:
    """Each row's partner value is the root at its mirror position, bit for bit."""

    @pytest.fixture(scope="class")
    def results(self):
        """(params, set_id, rows) of solve_sets --set all at every q <= k <= 9.

        One seeded theta on each side of theta_cr, and float(theta_cr).
        """
        rng = random.Random(41)
        out = []
        for k in range(3, 10):
            for q in range(3, k + 1):
                t_cr = theta_critical(q, k)
                for theta in (rng.uniform(0.02, t_cr), t_cr, rng.uniform(t_cr, 0.98)):
                    p = ModelParams(q=q, k=k, theta=theta)
                    set_ids = parse_set_spec("all", q)
                    out += [(p, set_id, rows)
                            for set_id, rows in zip(set_ids, solve_sets(p, set_ids))]
        return out

    def test_partners_are_the_reversed_roots(self, results):
        for p, set_id, rows in results:
            assert [s.y for s in rows] == [s.x for s in reversed(rows)], (p, set_id)
            if set_id.kind is SetKind.IM_PRIME:
                assert [s.t for s in rows] == [s.z for s in reversed(rows)], (p, set_id)

    def test_partners_are_correctly_rounded(self, results):
        # the half-ulp cell of each y (each t) holds a root of the block
        # two-step (mirror) polynomial, evaluated exactly from its formula
        for p, set_id, rows in results:
            if set_id.kind is SetKind.IM:
                value, partners = partial(two_step_value, p, set_id.m), [s.y for s in rows]
            else:
                value, partners = partial(mirror_value, p, set_id.m), [s.t for s in rows]
            for v in partners:
                lo, hi = _cell_ends(v)
                assert value(lo) * value(hi) < 0, (p, set_id, v)


def _poly(*factors):
    """Integer polynomial product of the factors, lowest degree first."""
    out = [1]
    for f in factors:
        out = [sum(out[i] * f[n - i] for i in range(len(out)) if 0 <= n - i < len(f))
               for n in range(len(out) + len(f) - 1)]
    return out


def _pair(x):
    """The integer pair (num, den) of a point of the exact kernel: a pair or a number."""
    return x if isinstance(x, tuple) else x.as_integer_ratio()


def _value(x):
    """A point of the exact kernel as a number: a pair (num, den) as a Fraction."""
    return Fraction(*x) if isinstance(x, tuple) else x


def _on_pairs(f):
    """f, a map on Fractions, as a map on the kernel's pairs (num, den)."""
    return lambda v: f(Fraction(*v)).as_integer_ratio()


@pytest.fixture
def isolations(monkeypatch):
    """The input of every _isolate_unit_interval call from here on."""
    calls = []
    isolate = exact._isolate_unit_interval

    def recording(coeffs):
        calls.append(coeffs)
        return isolate(coeffs)

    monkeypatch.setattr(exact, "_isolate_unit_interval", recording)
    return calls


@pytest.fixture
def fake_images(monkeypatch):
    """Install fake(v, y), which replaces the image y of each cell end v in every derivation.

    v and y are handed to fake as Fractions.
    """
    def install(fake):
        derived = exact._derived_roots

        def faked(sign, image, sources, prev):
            return derived(sign, _on_pairs(lambda v: fake(v, Fraction(*image(_pair(v))))),
                           sources, prev)

        # solve_im_reciprocal looks the name up in solver, _certified_roots in exact
        monkeypatch.setattr(solver, "_derived_roots", faked)
        monkeypatch.setattr(exact, "_derived_roots", faked)

    return install


class TestExactRootIsolation:
    def test_roots_on_both_sides_of_one(self):
        # (3z-1)(z-2)(z-5)(z+1): the negative root is ignored
        roots = _certified_roots(_poly([-1, 3], [-2, 1], [-5, 1], [1, 1]))
        assert roots == pytest.approx([1 / 3, 2.0, 5.0], rel=1e-15)

    def test_roots_on_bisection_midpoints(self):
        # 1/2 and 3/4 are bisection points of (0, 1); 2 is 1/(1/2) on the
        # reversed side; each is found exactly and its neighbour still is
        c = _poly([-1, 2], [-3, 4], [-7, 1], [1, 1], [-2, 1], [3, 1])
        assert _certified_roots(c) == [0.5, 0.75, 2.0, 7.0]

    def test_isolation_gives_the_starting_sign(self, isolations):
        # the sign just inside each bracket's low end, as the isolation
        # returns it, is the exact sign there, or minus the one at the high
        # end where the low end is a root on a bisection midpoint; a bracket
        # reaching 0 is closed at the root bound first
        from test_root_corpus import solve_case

        for case, _ in _corpus_up_to_k7():
            solve_case(*case)
        _certified_roots(_poly([-1, 2], [-3, 4], [-7, 1], [1, 1], [-2, 1], [3, 1]))
        checked, root_ends = 0, 0
        for c in list(isolations):
            for lo, hi, s in exact._isolate_unit_interval(c):
                if lo == hi:
                    assert s == 0
                    continue
                lo = lo or exact._dyadic(1, exact._root_bound(c[::-1]))
                assert s == (_sign_at(c, lo) or -_sign_at(c, hi)) != 0, (c, lo, hi)
                checked += 1
                root_ends += _sign_at(c, lo) == 0
        assert checked > 100 and root_ends > 0

    def test_repeated_root_is_refused(self):
        with pytest.raises(ConvergenceError):
            _require_squarefree(_poly([-2, 1], [-2, 1], [1, 1]))
        _require_squarefree(_poly([-2, 1], [-3, 1], [1, 1]))

    @pytest.mark.parametrize("factors", [
        ([-1, 3], [-1, 3], [-2, 1]),   # (3x-1)^2 (x-2): repeated in (0, 1), off the dyadics
        ([-3, 1], [-3, 1], [-1, 2]),   # (x-3)^2 (2x-1): repeated in (1, inf)
        ([-1, 2], [-1, 2], [-3, 1]),   # (2x-1)^2 (x-3): repeated on a bisection midpoint
    ])
    def test_repeated_positive_root_raises(self, factors):
        # the certificate runs only once the bisection needs it, and still refuses
        with pytest.raises(ConvergenceError):
            _certified_roots(_poly(*factors))

    def test_roots_closer_than_a_float_spacing(self, monkeypatch):
        # (3x-1)(3*2^70 x - 2^70 - 3): the roots 1/3 and 1/3 + 2^-70 part only
        # past _CERT_DEPTH, after one certificate, in brackets with integer-pair
        # ends; both round to the float nearest 1/3
        c = _poly([-1, 3], [-(2**70) - 3, 3 * 2**70])
        certified = []
        require = exact._require_squarefree
        monkeypatch.setattr(exact, "_require_squarefree",
                            lambda coeffs: certified.append(coeffs) or require(coeffs))
        (lo0, hi0, s0), (lo1, hi1, s1) = exact._isolate_unit_interval(c)
        assert certified == [c]
        assert all(isinstance(end, tuple) for end in (lo0, hi0, lo1, hi1))
        assert (s0, s1) == (1, -1)
        third = Fraction(1, 3)
        assert (Fraction(*lo0) < third < Fraction(*hi0) == Fraction(*lo1)
                < third + Fraction(1, 2**70) < Fraction(*hi1))
        assert _certified_roots(c) == [1 / 3, 1 / 3]

    def test_repeated_negative_root_is_ignored(self):
        # (x+1)^2 (3x-1): Descartes' counts settle (0, 1) and (1, inf) before
        # any repeated root matters, so no certificate runs
        assert _certified_roots(_poly([1, 1], [1, 1], [-1, 3])) == [1 / 3]

    @pytest.mark.parametrize("partner", [
        lambda v: -1 / v,      # no positive partner
        lambda v: 1 / (2 * v),  # 1.5, below the root 3: no sign change across its bracket
        lambda v: 7 / (6 * v),  # 3.5, above it: no sign change either
        lambda v: 1 / v,       # the true partner
    ])
    def test_partner_bracket_falls_back(self, isolations, partner):
        # (3z-1)(z-3)(z+1): the partners must be every root above 1, as here,
        # so the true one replaces the second isolation and a wrong one
        # falls back to it; both give the same floats
        c = _poly([-1, 3], [-3, 1], [1, 1])
        assert _certified_roots(c, _on_pairs(partner)) == [1 / 3, 3.0]
        assert len(isolations) == (1 if partner(Fraction(1, 3)) == 3 else 2)

    @pytest.mark.parametrize("partner, isolated", [
        (lambda v: 1 / v, 1),   # the true partners
        # each cell onto a neighbourhood of 3, with a sign change: they overlap
        (lambda v: 3 + v - Fraction(0.2 if v < 0.25 else 1 / 3), 2),
    ], ids=["true", "overlapping"])
    def test_overlapping_partner_brackets_fall_back(self, isolations, partner, isolated):
        # (3z-1)(5z-1)(z-3)(z-5)(z+1): two roots on each side of 1
        c = _poly([-1, 3], [-1, 5], [-3, 1], [-5, 1], [1, 1])
        assert _certified_roots(c, _on_pairs(partner)) == [0.2, 1 / 3, 3.0, 5.0]
        assert len(isolations) == isolated

    def test_partner_brackets_in_both_families(self, monkeypatch):
        # each root above 1 is rounded inside a bracket of a few floats
        # around the image of its partner's cell, never shrunk, and comes
        # out bit for bit as from its isolating interval
        spans, shrunk = [], []
        shrink, nearest = exact._shrink, exact._nearest_float

        def recording_shrink(coeffs, lo, hi, s_lo):
            shrunk.append(_value(lo) > 1)
            return shrink(coeffs, lo, hi, s_lo)

        def recording_nearest(sign, lo, hi, s_lo):
            if _value(lo) > 1:
                spans.append(ulp_distance(_value(lo), _value(hi)))
            return nearest(sign, lo, hi, s_lo)

        monkeypatch.setattr(exact, "_shrink", recording_shrink)
        monkeypatch.setattr(exact, "_nearest_float", recording_nearest)
        p = ModelParams(q=5, k=6, theta=0.1)
        assert [s.x.hex() for s in solve_im(p, 2)] == [
            "0x1.8d0424ac9d416p-4", "0x1.0000000000000p+0", "0x1.8aec624d97443p+2"]
        sols, rejected = solve_im_prime(p, 2)
        assert [s.z.hex() for s in sols] == [
            "0x1.90c00c9b7921dp-1", "0x1.0000000000000p+0", "0x1.23d7a0a60793fp+0"]
        assert rejected == []
        assert len(spans) == 2 and all(1 <= s <= 3 for s in spans)
        assert shrunk == [False, False]
        assert _certified_roots(im_coeffs(p, 2), k=6)[-1].hex() == "0x1.8aec624d97443p+2"
        assert _certified_roots(im_prime_coeffs(p, 2))[-1].hex() == "0x1.23d7a0a60793fp+0"

    @pytest.mark.parametrize("theta, xs", [
        (0.1, ["0x1.8d0424ac9d416p-4", "0x1.0000000000000p+0", "0x1.8aec624d97443p+2"]),
        (0.5, ["0x1.0000000000000p+0"]),   # above theta_cr = 2/7: no root below 1
    ])
    def test_block_roots_above_one_are_paired(self, isolations, theta, xs):
        # the partner brackets of the roots below 1 replace the second isolation
        assert [s.x.hex() for s in solve_im(ModelParams(q=5, k=6, theta=theta), 2)] == xs
        assert len(isolations) == 1

    @pytest.mark.parametrize("fake", [
        lambda v, y: Fraction(11, 10),  # no root of R in its bracket: no sign change
        lambda v, y: 1 / y,             # below 1
    ], ids=["no_sign_change", "below_one"])
    def test_block_pairing_falls_back(self, fake_images, isolations, fake):
        p = ModelParams(q=5, k=6, theta=0.1)
        want = [(s.x.hex(), s.y.hex()) for s in solve_im(p, 2)]
        isolations.clear()
        fake_images(fake)
        assert [(s.x.hex(), s.y.hex()) for s in solve_im(p, 2)] == want
        assert len(isolations) == 2

    def test_mirror_roots_above_one_are_paired(self, isolations):
        # the lifts t of the roots below 1 replace the second isolation
        sols, rejected = solve_im_prime(ModelParams(q=5, k=6, theta=0.1), 2)
        assert [s.z.hex() for s in sols] == [
            "0x1.90c00c9b7921dp-1", "0x1.0000000000000p+0", "0x1.23d7a0a60793fp+0"]
        assert rejected == []
        assert len(isolations) == 1

    @pytest.mark.parametrize("fake", [
        lambda z, t: Fraction(11, 10),  # no root of the polynomial in its bracket: no sign change
        lambda z, t: 1 / t,             # below 1
        lambda z, t: z,                 # a root, with a sign change, but below 1
    ], ids=["no_sign_change", "below_one", "root_below_one"])
    def test_mirror_pairing_falls_back(self, fake_images, isolations, fake):
        p = ModelParams(q=5, k=6, theta=0.1)
        want = [s.z.hex() for s in solve_im_prime(p, 2)[0]]
        isolations.clear()
        fake_images(fake)
        sols, rejected = solve_im_prime(p, 2)
        assert [s.z.hex() for s in sols] == want and rejected == []
        assert len(isolations) == 2

    @pytest.mark.parametrize("q, k", [(7, 9), (8, 8), (11, 11)])
    def test_no_fallback_at_theta_critical(self, isolations, q, k):
        # at float(theta_cr) the roots beside 1 lie within about 1e-9 of it,
        # and still every partner bracket lies above 1
        p = ModelParams(q=q, k=k, theta=theta_critical(q, k))
        solves = [("im", m, partial(solve_im, p, m)) for m in range(1, q)]
        solves += [("imprime", m, partial(solve_im_prime, p, m)) for m in range(1, (q - 1) // 2 + 1)]
        for kind, m, solve in solves:
            isolations.clear()
            solve()
            assert len(isolations) == 1, (kind, m)

    @pytest.mark.parametrize("factors, roots", [
        (([-3, 2], [-19, 10], [1, 1]), [1.5, 1.9]),
        (([-1, 3], [-3, 2], [-19, 10], [-7, 1]), [1 / 3, 1.5, 1.9, 7.0]),
    ], ids=["above_one", "both_sides"])
    def test_roots_above_one_take_signs_at_dyadics(self, monkeypatch, factors, roots):
        # the reversed polynomial's brackets end at points such as 3/4, whose
        # reciprocals are not dyadic; every exact sign is still taken at a
        # dyadic point
        dens = []
        homogeneous = exact._homogeneous

        def recording(coeffs, x):
            dens.append(_pair(x)[1])
            return homogeneous(coeffs, x)

        monkeypatch.setattr(exact, "_homogeneous", recording)
        assert [r.hex() for r in _certified_roots(_poly(*factors))] == [r.hex() for r in roots]
        assert dens and all(d & (d - 1) == 0 for d in dens)

    def test_reversed_route_matches_the_partner_route(self, monkeypatch):
        # with every partner derivation refused, each root above 1 is
        # isolated on the reversed polynomial, and every block and mirror
        # solve comes out bit for bit as from the partners
        def hexes(p):
            rows = [(s.x.hex(), s.y.hex(), s.residual_full.hex())
                    for m in range(1, p.q) for s in solve_im(p, m)]
            for m in range(1, (p.q - 1) // 2 + 1):
                sols, rejected = solve_im_prime(p, m)
                rows += [(s.z.hex(), s.t.hex(), s.x.hex(), s.y.hex(), s.residual_full.hex())
                         for s in sols]
                rows += [(r.z.hex(), r.reason) for r in rejected]
            return rows

        rng = np.random.default_rng(431)
        points = []
        for _ in range(6):
            k = int(rng.integers(3, 10))
            q = int(rng.integers(3, k + 1))
            t_cr = theta_critical(q, k)
            for theta in (t_cr, t_cr * (1 - 1e-9), t_cr * (1 + 1e-9), rng.uniform(0.02, 0.98)):
                points.append(ModelParams(q=q, k=k, theta=theta))
        want = [hexes(p) for p in points]
        derived = exact._derived_roots
        refused = []

        def refusing(sign, image, sources, prev):
            if prev == 1.0:
                refused.append(len(sources))
                return None
            return derived(sign, image, sources, prev)

        monkeypatch.setattr(exact, "_derived_roots", refusing)
        assert [hexes(p) for p in points] == want
        assert sum(refused) > 0

    def test_unit_root_divided_out_with_multiplicity(self):
        assert _divide_out_unit_root(_poly([-1, 1], [-1, 1], [-1, 1], [2, 1])) == [2, 1]

    def test_nearest_float(self):
        # each root comes back as the float nearest to it, on both sides of 1
        cases = [([-2, 0, 1], math.sqrt(2.0)), ([-1, 3], 1 / 3), ([-10, 3], 10 / 3),
                 ([-235742, 7], 235742 / 7), ([-3, 1_000_000], 3e-6)]
        for c, root in cases:
            assert _certified_roots(c) == [root]

    def test_roots_are_correctly_rounded(self):
        # the root lies between the midpoints to both neighbouring floats,
        # so no other float is nearer to it: every block x against R built
        # from its defining formula, every mirror root against its
        # polynomial, paired across 1 by its lift where the pairing holds,
        # k <= 9, near theta_cr and as theta -> 1
        def sign(v):
            return (v > 0) - (v < 0)

        def horner(c, z):
            acc = Fraction(0)
            for ci in reversed(c):
                acc = acc * z + ci
            return acc

        rng = np.random.default_rng(211)
        checked = 0
        for _ in range(96):
            k = int(rng.integers(3, 10))
            q = int(rng.integers(3, k + 1))
            t_cr = theta_critical(q, k)
            theta = float(rng.choice([
                t_cr * (1.0 + rng.choice([-1.0, 1.0]) * 10.0 ** -rng.uniform(6.0, 10.0)),
                1.0 - 10.0 ** -rng.uniform(3.0, 9.0),
                rng.uniform(0.02, 0.98),
            ]))
            p = ModelParams(q=q, k=k, theta=theta)
            if rng.random() < 0.5:
                m = int(rng.integers(1, q))
                roots = [s.x for s in solve_im(p, m)]
                value = partial(two_step_value, p, m)
            else:
                m = int(rng.integers(1, (q - 1) // 2 + 1))
                sols, rejected = solve_im_prime(p, m)
                roots = [s.z for s in sols if s.z != 1.0] + [r.z for r in rejected]
                value = partial(horner, _divide_out_unit_root(im_prime_coeffs(p, m)))
            for x in roots:
                below = (Fraction(x) + Fraction(math.nextafter(x, 0.0))) / 2
                above = (Fraction(x) + Fraction(math.nextafter(x, math.inf))) / 2
                assert sign(value(below)) * sign(value(above)) <= 0, (q, k, theta, x)
                checked += 1
        assert checked >= 40

    def test_triple_unit_root_at_dyadic_threshold(self):
        for q, k, m in ((3, 3, 1), (3, 7, 1)):
            c = im_prime_coeffs(ModelParams(q=q, k=k, theta=theta_critical(q, k)), m)
            assert len(c) - len(_divide_out_unit_root(c)) == 3
        # the two-step polynomial R, expanded from its defining formula: a
        # simple unit root off theta_cr, a triple one on it
        for q, k, m in ((3, 3, 1), (3, 3, 2), (3, 7, 1), (3, 7, 2)):
            t_cr = theta_critical(q, k)
            for theta, mult in ((t_cr, 3), (0.5 * t_cr, 1), (0.5 + 0.5 * t_cr, 1)):
                c = two_step_coeffs(ModelParams(q=q, k=k, theta=theta), m)
                assert len(c) - len(_divide_out_unit_root(c)) == mult, (q, k, m, theta)


class TestExactSign:
    @staticmethod
    def _horner(c, x):
        acc = Fraction(0)
        for ci in reversed(c):
            acc = acc * x + ci
        return acc

    def test_matches_fraction_horner(self):
        # at dyadic points, the shift-only evaluation is den^n c(x) exactly
        rng = np.random.default_rng(223)
        for _ in range(40):
            n = int(rng.integers(1, 13))
            c = [int(v) for v in rng.integers(-2 ** 60, 2 ** 60, size=n + 1)]
            c[-1] = c[-1] or 1
            for _ in range(6):
                x = Fraction(int(rng.integers(1, 2 ** 53)), 2 ** int(rng.integers(0, 70)))
                want = self._horner(c, x)
                assert _homogeneous(c, x) == x.denominator ** n * want
                assert _sign_at(c, x) == (want > 0) - (want < 0)
            assert _sign_at(c, float(x)) == _sign_at(c, x)

    def test_zero_at_exact_roots(self):
        # a dyadic root 5/2^7, and 2^9/3 as the dyadic root 3/2^9 of the
        # reversed polynomial, in both orders
        for c in (_poly([-5, 2 ** 7], [-2 ** 9, 3], [7, -1, 4]),
                  _poly([-2 ** 9, 3], [-5, 2 ** 7])):
            assert _sign_at(c, Fraction(5, 2 ** 7)) == 0
            assert _sign_at(c[::-1], Fraction(3, 2 ** 9)) == 0
            assert _sign_at(c[::-1], Fraction(3, 2 ** 9) + Fraction(1, 2 ** 50)) != 0

    def test_other_points_refused(self):
        # reciprocals of dyadic points included
        for x in (Fraction(3, 5), Fraction(2 ** 9, 3), 1 / Fraction(3, 2 ** 9)):
            with pytest.raises(EvaluationError):
                _sign_at([1, 2, 3], x)


class TestTwoStepFilter:
    """The head filter of the two-step sign leaves signs to the full powers, never changes one."""

    def test_filter_agrees_with_full_powers(self, monkeypatch):
        # every float and float midpoint within 8 ulps of every block root,
        # q <= k <= 9, one theta on each side of theta_cr and theta_cr (1 - 1e-9);
        # at x = 1, a root of R, only the full powers can tell
        rng = np.random.default_rng(433)
        cases = []
        for k in range(3, 10):
            for q in range(3, k + 1):
                t_cr = theta_critical(q, k)
                for theta in (rng.uniform(0.02, t_cr), rng.uniform(t_cr, 0.98), t_cr * (1 - 1e-9)):
                    p = ModelParams(q=q, k=k, theta=float(theta))
                    for m in range(1, q):
                        floats = sorted({y for s in solve_im(p, m) for y in _floats_near(s.x, 8)})
                        points = floats + [exact._midpoint(a, b) for a, b in zip(floats, floats[1:])
                                           if math.nextafter(a, math.inf) == b]
                        cases.append((im_coeffs(p, m), k, points))
        heads = []
        head_sign = exact._head_sign

        def recording(num, den, ut, vt, k):
            heads.append((num == den, head_sign(num, den, ut, vt, k)))
            return heads[-1][1]

        monkeypatch.setattr(exact, "_head_sign", recording)
        at_one, away, full_away = 0, 0, 0
        for coeffs, k, points in cases:
            sign = _two_step_sign(coeffs, k)
            u, v = coeffs[1::k], [-c for c in coeffs[::k]]
            for x in points:
                num, den = _pair(x)
                full = num * _homogeneous(u, x) ** k - den * _homogeneous(v, x) ** k
                heads.clear()
                assert sign(x) == (full > 0) - (full < 0), (coeffs, k, x)
                [(unit, s)] = heads
                if unit:
                    assert s == 0 and full == 0
                    at_one += 1
                else:
                    away += 1
                    full_away += s == 0
        assert at_one == len(cases)
        assert away > 20_000 and full_away < away / 1000


def _floats_near(x: float, n: int) -> list[float]:
    """x and the n floats on each side of it."""
    out = [x]
    for side in (0.0, math.inf):
        y = x
        for _ in range(n):
            y = math.nextafter(y, side)
            out.append(y)
    return out


def _reciprocal_draws(n: int, q_max: int, k_max: int, seed: int):
    """n seeded parameter points with q <= q_max, k <= k_max, on and around theta_cr."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        k = int(rng.integers(3, k_max + 1))
        q = int(rng.integers(3, min(k, q_max) + 1))
        t_cr = theta_critical(q, k)
        theta = float(rng.choice([t_cr, t_cr * (1.0 - 1e-9), t_cr * (1.0 + 1e-9), t_cr - 1e-10,
                                  rng.uniform(0.02, t_cr), rng.uniform(t_cr, 0.98)]))
        yield ModelParams(q=q, k=k, theta=theta)


def _hexes(solutions):
    return [(s.x.hex(), s.y.hex(), s.residual_full.hex()) for s in solutions]


class TestReciprocalSets:
    """x -> 1/x maps block set im:m onto im:q-m, exactly."""

    def test_coefficients_are_reversed_and_negated(self):
        checked = set()
        for p in _reciprocal_draws(120, 9, 16, seed=401):
            for m in range(1, p.q):
                assert im_coeffs(p, p.q - m) == [-c for c in reversed(im_coeffs(p, m))], p
            checked.add(p.theta == theta_critical(p.q, p.k))
        assert checked == {True, False}

    def test_sign_relation_at_dyadics_and_reciprocals(self):
        # sign R_(q-m)(x) = -sign R_m(1/x), with R from its defining formula
        # at both kinds of point, and the solver's exact sign functions agree
        # at whichever of x and 1/x is dyadic
        def sign(v):
            return (v > 0) - (v < 0)

        rng = np.random.default_rng(409)
        for p in _reciprocal_draws(24, 9, 16, seed=403):
            m = int(rng.integers(1, p.q))
            points = [Fraction(int(rng.integers(1, 2 ** 20)), 2 ** int(rng.integers(0, 40)))
                      for _ in range(3)]
            points += [1 / x for x in points]
            sign_m = _two_step_sign(im_coeffs(p, m), p.k)
            sign_qm = _two_step_sign(im_coeffs(p, p.q - m), p.k)
            for x in points:
                s = sign(two_step_value(p, p.q - m, x))
                assert s == -sign(two_step_value(p, m, 1 / x)) != 0
                if x.denominator & (x.denominator - 1) == 0:
                    assert sign_qm(x) == s
                else:
                    assert sign_m(1 / x) == -s

    def test_derived_set_is_the_direct_solve(self):
        for p in _reciprocal_draws(40, 7, 16, seed=419):
            for m in range(1, p.q):
                primary = solve_im(p, m)
                derived = solve_im_reciprocal(p, m, primary)
                assert _hexes(derived) == _hexes(solve_im(p, p.q - m)), (p, m)
                assert {s.set_id.m for s in derived} == {p.q - m}
                # the map is an involution
                assert _hexes(solve_im_reciprocal(p, p.q - m, derived)) == _hexes(primary)

    @pytest.fixture
    def block_solves(self, monkeypatch):
        """The m of every solve_im call solve_im_reciprocal makes from here on."""
        calls = []
        solve = solver.solve_im

        def recording(params, m):
            calls.append(m)
            return solve(params, m)

        monkeypatch.setattr(solver, "solve_im", recording)
        return calls

    def test_no_root_is_isolated(self, block_solves, isolations):
        p = ModelParams(q=5, k=6, theta=0.1)
        primary = solve_im(p, 2)
        isolations.clear()
        derived = solve_im_reciprocal(p, 2, primary)
        assert block_solves == [] and isolations == []
        assert _hexes(derived) == _hexes(solve_im(p, 3))

    def test_derived_from_fresh_records(self, block_solves):
        # the floats alone certify the derivation: records rebuilt from x
        # and y carry nothing else from the solve
        p = ModelParams(q=5, k=6, theta=0.1)
        primary = [ReducedScalar(x=s.x, y=s.y, set_id=s.set_id) for s in solve_im(p, 2)]
        assert _hexes(solve_im_reciprocal(p, 2, primary)) == _hexes(solve_im(p, 3))
        assert block_solves == []

    def test_no_sign_at_the_unit_root(self, monkeypatch, block_solves):
        # solve_sets of --set all, every q <= k <= 7, one theta on each side
        # of theta_cr: each derived set takes the root 1 as it is and signs
        # only at its other roots, and no solve takes a two-step sign at 1
        direct, derived = [], []
        two_step_sign = exact._two_step_sign

        def recording(points):
            def make(coeffs, k):
                sign = two_step_sign(coeffs, k)

                def recorded(x):
                    points.append(_pair(x))
                    return sign(x)

                return recorded
            return make

        monkeypatch.setattr(exact, "_two_step_sign", recording(direct))
        # solve_im_reciprocal looks the name up in solver
        monkeypatch.setattr(solver, "_two_step_sign", recording(derived))
        rng = np.random.default_rng(439)
        for k in range(3, 8):
            for q in range(3, k + 1):
                t_cr = theta_critical(q, k)
                for theta in (rng.uniform(0.02, t_cr), rng.uniform(t_cr, 0.98)):
                    p = ModelParams(q=q, k=k, theta=float(theta))
                    solve_sets(p, parse_set_spec("all", q))
        assert block_solves == [] and len(derived) > 100
        assert [x for x in direct + derived if x[0] == x[1]] == []

    @pytest.mark.parametrize("case", ["no_sign_change", "moved_one_ulp", "duplicated"])
    def test_fallback_when_a_bracket_shows_no_sign_change(self, fake_images, block_solves, case):
        p = ModelParams(q=5, k=6, theta=0.1)
        primary = solve_im(p, 2)
        want = _hexes(solve_im(p, 3))
        if case == "no_sign_change":
            # each image moved beside its root
            fake_images(lambda v, y: y * (1 + Fraction(1, 2 ** 40)))
        elif case == "moved_one_ulp":
            # the root is no longer in the cell of the smallest x
            primary[0] = replace(primary[0], x=math.nextafter(primary[0].x, 0.0))
        else:
            # xs not strictly increasing: equal images overlap
            primary.insert(0, primary[0])
        block_solves.clear()
        assert _hexes(solve_im_reciprocal(p, 2, primary)) == want
        assert block_solves == [3]

    def test_gates(self, p33):
        with pytest.raises(ParameterError):
            solve_im_reciprocal(p33, 3, [])
        with pytest.raises(HypothesisError):
            solve_im_reciprocal(ModelParams(q=3, k=2, theta=0.1), 1, [])


def _corpus_up_to_k7():
    """The (case, record) pairs of the root corpus with k <= 7."""
    from test_root_corpus import CORPUS, corpus_cases

    records = json.loads(CORPUS.read_text())
    return [(c, r) for c, r in zip(corpus_cases(), records) if c[1] <= 7]


class TestFloatSeed:
    """The float seed only picks where the exact shrink starts."""

    @staticmethod
    def _inner_floats(lo, hi):
        # the smallest float above lo and the largest below hi
        f_lo, f_hi = exact._floats_around(lo, hi)
        return math.nextafter(f_lo, math.inf), math.nextafter(f_hi, -math.inf)

    @pytest.mark.parametrize("seed", [
        lambda lo, hi: exact._split(lo, hi),
        lambda lo, hi: TestFloatSeed._inner_floats(lo, hi)[0],
        lambda lo, hi: TestFloatSeed._inner_floats(lo, hi)[1],
        # outside (lo, hi): ignored
        lambda lo, hi: exact._floats_around(lo, hi)[0],
        lambda lo, hi: exact._floats_around(lo, hi)[1],
        lambda lo, hi: 2.0,
        lambda lo, hi: math.nan,
    ], ids=["split", "above_lo", "below_hi", "at_or_below_lo", "at_or_above_hi", "two", "nan"])
    def test_seed_changes_no_root(self, monkeypatch, seed):
        from test_root_corpus import solve_case

        seeds = []

        def fixed(coeffs, lo, hi, s_lo):
            seeds.append(seed(lo, hi))
            return seeds[-1]

        monkeypatch.setattr(exact, "_float_seed", fixed)
        for case, record in _corpus_up_to_k7():
            assert solve_case(*case) == record, case
        assert len(seeds) > 100

    def test_exact_passes_per_shrink(self, monkeypatch):
        # exact Horner passes per shrink, every q <= k <= 7, one theta on
        # each side of theta_cr: about 5.7 from a bisection point, about 2
        # from the float seed
        counts = {"passes": 0, "shrinks": 0}
        scaled_values, shrink = exact._scaled_values, exact._shrink

        def counting_values(coeffs, x):
            counts["passes"] += 1
            return scaled_values(coeffs, x)

        def counting_shrink(coeffs, lo, hi, s_lo):
            counts["shrinks"] += 1
            return shrink(coeffs, lo, hi, s_lo)

        monkeypatch.setattr(exact, "_scaled_values", counting_values)
        monkeypatch.setattr(exact, "_shrink", counting_shrink)
        rng = np.random.default_rng(5)
        for k in range(3, 8):
            for q in range(3, k + 1):
                t_cr = theta_critical(q, k)
                for theta in (rng.uniform(0.02, t_cr), rng.uniform(t_cr, 0.98)):
                    p = ModelParams(q=q, k=k, theta=float(theta))
                    for m in range(1, q):
                        solve_im(p, m)
                    for m in range(1, (q - 1) // 2 + 1):
                        solve_im_prime(p, m)
        assert counts["shrinks"] > 50
        assert counts["passes"] / counts["shrinks"] <= 3.0


class TestNearestFloat:
    def test_root_anywhere_in_a_fine_bracket(self):
        # a root within a few units in the last place of a float g, in a
        # bracket whose ends are not floats: the result is the nearest float
        rng = np.random.default_rng(227)
        for _ in range(300):
            g = float(rng.uniform(0.01, 100.0))
            ulp = Fraction(math.ulp(g))
            root = Fraction(g) + ulp * Fraction(int(rng.integers(-499, 500)), 1000)
            lo = root - ulp * Fraction(int(rng.integers(1, 4000)), 1000)
            hi = root + ulp * Fraction(int(rng.integers(1, 4000)), 1000)
            s_lo = int(rng.choice([-1, 1]))

            def sign(x):
                x = _value(x)
                return 0 if x == root else (s_lo if x < root else -s_lo)

            assert _nearest_float(sign, lo, hi, s_lo) == g


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


class TestFlipLaw:
    def test_branch_width_follows_the_flip_law(self):
        """Non-unit roots next to 1 at theta = theta_cr (1 - eps), against a closed form.

        With eta = ((1 - x_low) + (x_high - 1)) / 2, x_low and x_high the
        non-unit x nearest 1 on each side,

            eta^2 = 12 k (k+1) (theta_cr - theta) / (q' (k-1)) + O((theta_cr - theta)^2)

        with q' = q for block sets: theta_cr is a supercritical flip of
        F = f^k at x = 1, with F'(1) = k (theta-1)/(theta+q-1), normal-form
        coefficient (k^2-1)/(12 k^2) and d(alpha)/d(theta) = -(k+1)^2/(k q).
        For mirror sets, q' = q + 6m is a conjecture, checked here and not
        derived.  The relative error is O(eps); it grows with k for block
        sets (33 eps at q=3, k=16, m=1), hence k <= 9 and the bounds 30 eps
        (block, measured at most 17.4 eps) and 3 eps (mirror, 1.24 eps).
        """
        for eps in (1e-6, 1e-7, 1e-8):
            for k in range(3, 10):
                for q in range(3, k + 1):
                    theta = theta_critical(q, k) * (1.0 - eps)
                    p = ModelParams(q=q, k=k, theta=theta)
                    gap = float(Fraction(k - q + 1, k + 1) - Fraction(theta))
                    cases = [(m, q, 30, solve_im(p, m)) for m in range(1, q)]
                    cases += [(m, q + 6 * m, 3, solve_im_prime(p, m)[0])
                              for m in range(1, (q - 1) // 2 + 1)]
                    for m, q_law, c, sols in cases:
                        xs = [s.x for s in sols]
                        x_low = max(x for x in xs if x < 1.0)
                        x_high = min(x for x in xs if x > 1.0)
                        eta = ((1.0 - x_low) + (x_high - 1.0)) / 2.0
                        law = 12 * k * (k + 1) * gap / (q_law * (k - 1))
                        assert abs(eta * eta / law - 1.0) <= c * eps, (q, k, m, q_law, eps)


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
