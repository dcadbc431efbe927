import numpy as np
import pytest

from gibbstree import (
    BudgetError,
    ModelParams,
    ParameterError,
    PeriodTwoField,
    build_tree,
    check_consistency,
    compat_map,
    finite_difference,
    mobius_deriv,
    mobius_map,
    solve_im,
    solve_im_prime,
    two_step_map,
    two_step_slope_at_one,
)
from gibbstree import oracle
from gibbstree.model import residual_norm

from conftest import (
    boundary_log_sum_by_enumeration,
    boundary_log_sum_by_factors,
    explicit_ball,
    gaps_by_enumeration,
    relative_spread_by_enumeration,
)


# every ball up to depth 6 of order up to 6 fits the vertex budget
_BALLS = [(k, n) for k in range(1, 7) for n in range(7)]


class TestBuildTree:
    """The ball's id arithmetic against explicit_ball, built vertex by vertex."""

    def test_order_three_depth_two(self):
        tree = build_tree(3, 2)
        assert tree.generations == (range(0, 1), range(1, 5), range(5, 17))
        assert tree.n_vertices == 1 + 4 + 12
        assert tree.boundary() == range(5, 17)

    def test_parents_and_depths_agree(self):
        for k, n in _BALLS:
            tree = build_tree(k, n)
            parent, depth, _ = explicit_ball(k, n)
            assert len(tree.generations) == n + 1
            for d, ids in enumerate(tree.generations):
                assert list(ids) == [v for v, dv in enumerate(depth) if dv == d], (k, n, d)
            assert tree.n_vertices == len(parent)
            assert tree.boundary() == tree.generations[n]
            assert parent[1:] == [max(0, (v - 2) // k) for v in range(1, tree.n_vertices)]

    def test_root_branching_convention(self):
        # the documented parent formula gives the root k+1 children, every
        # later inner vertex k and the boundary none, as the explicit ball does
        for k, n in _BALLS:
            tree = build_tree(k, n)
            children = [0] * tree.n_vertices
            for v in range(1, tree.n_vertices):
                children[max(0, (v - 2) // k)] += 1
            expected = [0] * tree.n_vertices
            for u, _ in explicit_ball(k, n)[2]:
                expected[u] += 1
            assert children == expected, (k, n)
            for d, ids in enumerate(tree.generations):
                want = 0 if d == n else k + 1 if d == 0 else k
                assert {children[v] for v in ids} == {want}, (k, n, d)

    def test_path_tree(self):
        tree = build_tree(1, 4)
        for d in range(1, 5):
            assert len(tree.generations[d]) == 2

    def test_depth_zero(self):
        for k in range(1, 7):
            tree = build_tree(k, 0)
            assert tree.generations == (range(1),)
            assert tree.n_vertices == 1
            assert tree.boundary() == range(1)
            assert explicit_ball(k, 0) == ([-1], [0], [])

    def test_budget(self):
        with pytest.raises(BudgetError):
            build_tree(3, 20)

    def test_budget_edges_at_order_three(self, p33):
        # the check lists no configuration, so only the ball's vertex budget
        # bounds the depth: 11 is the deepest ball of order three within it
        field = solve_im(p33, 1)[0].full_field
        assert check_consistency(build_tree(3, 10), p33, field).passed
        tree = build_tree(3, 11)
        assert tree.n_vertices == 354_293
        assert check_consistency(tree, p33, field).passed
        with pytest.raises(BudgetError, match="1062881 vertices"):
            build_tree(3, 12)

    def test_rejects_bad_args(self):
        with pytest.raises(ParameterError):
            build_tree(0, 2)
        with pytest.raises(ParameterError):
            build_tree(3, -1)
        with pytest.raises(ParameterError):
            build_tree(3, 1.5)
        with pytest.raises(ParameterError):
            build_tree(True, 2)
        with pytest.raises(ParameterError):
            build_tree(3, True)


class TestCheckConsistency:
    def test_zero_field_passes_depth_one(self, p33):
        tree = build_tree(3, 1)
        report = check_consistency(tree, p33, PeriodTwoField.zero(3), tol=1e-12)
        assert report.passed
        assert report.max_relative_error < 1e-12

    def test_zero_field_passes_depth_two(self, p33):
        tree = build_tree(3, 2)
        report = check_consistency(tree, p33, PeriodTwoField.zero(3), tol=1e-12)
        assert report.passed

    def test_period_two_solution_passes_depth_two(self, p33):
        tree = build_tree(3, 2)
        sol = solve_im(p33, 1)[0]
        report = check_consistency(tree, p33, sol.full_field, tol=1e-6)
        assert report.passed
        assert report.n == 2
        assert report.pairs_checked == 3

    def test_non_constant_field_fails_depth_one(self, p33):
        # at depth one the root's k+1 successors all sit on the boundary,
        # so the single-constant gap criterion requires the even and odd
        # components to agree; a genuinely two-periodic field cannot
        sol = solve_im(p33, 1)[0]
        tree = build_tree(3, 1)
        report = check_consistency(tree, p33, sol.full_field, tol=1e-6)
        assert not report.passed
        assert report.max_relative_error > 1e-2

    def test_perturbed_solution_fails(self, p33):
        sol = solve_im(p33, 1)[0]
        fld = sol.full_field
        bad = PeriodTwoField(h_even=fld.h_even + 0.1, h_odd=fld.h_odd.copy())
        tree = build_tree(3, 2)
        report = check_consistency(tree, p33, bad, tol=1e-6)
        assert not report.passed
        assert report.max_relative_error > 1e-3

    def test_depth_zero_rejected(self, p33):
        tree = build_tree(3, 0)
        with pytest.raises(ParameterError):
            check_consistency(tree, p33, PeriodTwoField.zero(3))

    def test_q_mismatch_rejected(self, p33):
        tree = build_tree(3, 1)
        with pytest.raises(ParameterError):
            check_consistency(tree, p33, PeriodTwoField.zero(4))

    def test_k_mismatch_rejected(self, p33):
        # an order-4 ball would check another model than the order-3 params
        sol = solve_im(p33, 1)[0]
        with pytest.raises(ParameterError, match="k=4"):
            check_consistency(build_tree(4, 2), p33, sol.full_field)

    def test_budget_env_override(self, p33, monkeypatch):
        # the vertex budget is read when the ball is built, so it can be moved
        monkeypatch.setattr(oracle, "_MAX_VERTICES", 16)
        with pytest.raises(BudgetError, match="17 vertices, budget 16"):
            build_tree(3, 2)
        monkeypatch.setattr(oracle, "_MAX_VERTICES", 17)
        assert check_consistency(build_tree(3, 2), p33, PeriodTwoField.zero(3)).passed

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_half_solution_fails_in_both_orders(self, p33, n):
        # h_odd = k F(h_even) holds exactly but h_even = k F(h_odd) does not;
        # a single-order check at even depth would pass this field
        h_even = np.array([0.7, -0.3])
        half = PeriodTwoField(h_even, p33.k * compat_map(h_even, p33))
        assert residual_norm(half, p33) > 0.1
        tree = build_tree(3, n)
        for field in (half, half.swapped()):
            report = check_consistency(tree, p33, field, tol=1e-8)
            assert not report.passed, (n, report.max_relative_error)
            assert report.pairs_checked == 3

    def test_solutions_pass_in_both_orders(self, p33):
        block = solve_im(p33, 1)
        mirror, _ = solve_im_prime(p33, 1)
        for n in (2, 3, 4):
            tree = build_tree(3, n)
            for sol in block + mirror:
                for field in (sol.full_field, sol.full_field.swapped()):
                    report = check_consistency(tree, p33, field, tol=1e-12)
                    assert report.passed, (n, sol.x, report.max_relative_error)

    def test_deterministic(self, p33):
        # nothing is drawn: the same inputs give the same report, bit for bit
        tree = build_tree(3, 2)
        sol = solve_im(p33, 1)[0]
        a = check_consistency(tree, p33, sol.full_field)
        b = check_consistency(tree, p33, sol.full_field)
        assert a == b


def _test_fields(params: ModelParams, rng: np.random.Generator) -> list[PeriodTwoField]:
    """Zero field, every block solution of im:1, and two perturbations of them."""
    sols = [s.full_field for s in solve_im(params, 1)]
    q = params.q
    return [PeriodTwoField.zero(q), *sols,
            PeriodTwoField(sols[0].h_even + 1e-3, sols[0].h_odd.copy()),
            PeriodTwoField(sols[-1].h_even + rng.normal(size=q - 1),
                           sols[-1].h_odd + rng.normal(size=q - 1))]


def _sampled_rows(q: int, n_inner: int, seed: int) -> list[list[int]]:
    """The all-ones configuration and 20 seeded ones, drawn one row at a time.

    The configurations a sampled check of 21 rows would compare.
    """
    rng = np.random.default_rng(seed)
    return [[1] * n_inner] + [rng.integers(1, q + 1, size=n_inner).tolist()
                              for _ in range(20)]


class TestExhaustiveEnumeration:
    """The closed form against the gap of every interior configuration, listed one by one."""

    # 3, 3^5 and 4^6 configurations
    @pytest.mark.parametrize("q, k, n", [(3, 3, 1), (3, 3, 2), (4, 4, 2)])
    def test_error_equals_spread_over_every_configuration(self, q, k, n):
        rng = np.random.default_rng(10 * q + n)
        p = ModelParams(q=q, k=k, theta=0.1)
        tree = build_tree(k, n)
        sols = [s.full_field for s in solve_im(p, 1)]
        fields = [*sols,
                  PeriodTwoField(sols[0].h_even + 0.1, sols[0].h_odd),
                  PeriodTwoField(sols[-1].h_even + rng.normal(size=q - 1),
                                 sols[-1].h_odd + rng.normal(size=q - 1))]
        for field in fields:
            report = check_consistency(tree, p, field, tol=1e-8)
            expected = relative_spread_by_enumeration(k, n, p, field)
            # solutions read roundoff on both sides, so those compare absolutely
            assert report.max_relative_error == pytest.approx(expected, rel=1e-12, abs=1e-13)
            assert report.passed == (expected <= 1e-8)
            assert report.pairs_checked == q


class TestFactorizedBoundarySum:
    """The tests' factor-by-factor boundary sum, and the oracle, against full enumeration."""

    # depth 2 enumerates 3^12 rows per configuration, so it gets fewer draws
    @pytest.mark.parametrize("q, k, n, thetas, n_configs", [
        (3, 3, 1, (0.1, 0.2), 6), (3, 3, 2, (0.1,), 1),
        (3, 5, 1, (0.1, 0.2), 6), (4, 4, 1, (0.1, 0.2), 6),
    ])
    def test_matches_enumeration(self, q, k, n, thetas, n_configs):
        rng = np.random.default_rng(100 * q + 10 * k + n)
        tree = build_tree(k, n)
        n_inner = tree.n_vertices - len(tree.boundary())
        worst = 0.0
        for theta in thetas:
            p = ModelParams(q=q, k=k, theta=theta)
            for field in _test_fields(p, rng):
                for inner in rng.integers(1, q + 1, size=(n_configs, n_inner)):
                    got = boundary_log_sum_by_factors(k, n, p, field, inner.tolist())
                    expected = boundary_log_sum_by_enumeration(tree, p, field, inner)
                    worst = max(worst, abs(got - expected) / max(1.0, abs(expected)))
        assert worst <= 1e-13

    @pytest.mark.parametrize("n", [1, 2])
    def test_verdicts_match_enumeration(self, p33, n):
        tree = build_tree(3, n)
        sol = solve_im(p33, 1)
        fields = [sol[1].full_field, sol[0].full_field,
                  PeriodTwoField(sol[0].full_field.h_even + 1e-3, sol[0].full_field.h_odd)]
        verdicts = set()
        for field in fields:
            report = check_consistency(tree, p33, field, tol=1e-6)
            expected = relative_spread_by_enumeration(3, n, p33, field)
            assert report.max_relative_error == pytest.approx(expected, abs=1e-13)
            assert report.passed == (expected <= 1e-6)
            verdicts.add(report.passed)
        assert verdicts == {True, False}

    def test_large_fields_do_not_overflow(self, p33):
        tree = build_tree(3, 2)
        field = PeriodTwoField(np.array([800.0, -800.0]), np.array([-800.0, 800.0]))
        report = check_consistency(tree, p33, field)
        assert np.isfinite(report.max_relative_error)
        expected = relative_spread_by_enumeration(3, 2, p33, field)
        assert report.max_relative_error == pytest.approx(expected, rel=1e-12)


class TestTiedToModel:
    """The closed form's per-spin gaps against the public Hamiltonian, row by row."""

    @staticmethod
    def _fields(p: ModelParams) -> list[PeriodTwoField]:
        sol = solve_im(p, 1)[0].full_field
        return [sol, sol.swapped(), PeriodTwoField(sol.h_even + 0.25, -sol.h_odd)]

    @staticmethod
    def _closed_form_gap(tree, g: list[float], row: list[int]) -> float:
        return sum(g[row[v] - 1] for v in tree.generations[tree.n - 1])

    @pytest.mark.parametrize("q, k", [(3, 3), (4, 5)])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_rows_match_sequential_draws(self, q, k, n):
        # the 21 configurations a sampled check compares: each gap is the sum
        # of g over generation n-1, and their spread never exceeds the
        # closed form's, which covers every configuration
        p = ModelParams(q=q, k=k, theta=0.1)
        tree = build_tree(k, n)
        width = len(tree.generations[n - 1])
        for seed in (0, 1, 2024):
            rows = _sampled_rows(q, tree.n_vertices - len(tree.boundary()), seed)
            for field in self._fields(p):
                g = oracle._spin_gaps(tree, p, field)
                gaps = gaps_by_enumeration(k, n, p, field, rows)
                for row, gap in zip(rows, gaps):
                    closed = self._closed_form_gap(tree, g, row)
                    assert closed == pytest.approx(gap, rel=1e-12, abs=1e-12)
                scale = max(1.0, width * max(map(abs, g)))
                assert max(gaps) - min(gaps) <= width * (max(g) - min(g)) + 1e-12 * scale

    @pytest.mark.parametrize("q, k", [(3, 3), (4, 5)])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_rows_match_model(self, q, k, n):
        # the q configurations with one spin throughout attain the extremes:
        # their gaps are width * g_s, and their spread is the closed form's
        p = ModelParams(q=q, k=k, theta=0.1)
        tree = build_tree(k, n)
        width = len(tree.generations[n - 1])
        n_inner = tree.n_vertices - len(tree.boundary())
        rows = [[s] * n_inner for s in range(1, q + 1)]
        for field in self._fields(p):
            g = oracle._spin_gaps(tree, p, field)
            gaps = gaps_by_enumeration(k, n, p, field, rows)
            assert gaps == pytest.approx([width * gs for gs in g], rel=1e-12, abs=1e-12)
            assert max(gaps) - min(gaps) == pytest.approx(width * (max(g) - min(g)),
                                                          rel=1e-12, abs=1e-12)


class TestDeepBalls:
    @pytest.fixture
    def fields(self, p33):
        block = solve_im(p33, 1)
        mirror, _ = solve_im_prime(p33, 1)
        return {
            "TI": next(s for s in block if abs(s.x - 1.0) < 1e-9).full_field,
            "P2 block": block[0].full_field,
            "P2 mirror": next(s for s in mirror if abs(s.x - 1.0) > 1e-6).full_field,
        }

    def test_solutions_pass_depth_six(self, p33, fields):
        tree = build_tree(3, 6)
        for name, field in fields.items():
            report = check_consistency(tree, p33, field, tol=1e-8)
            assert report.passed, (name, report.max_relative_error)

    def test_block_solution_passes_depth_eight(self, p33, fields):
        tree = build_tree(3, 8)
        assert tree.n_vertices == 13_121
        report = check_consistency(tree, p33, fields["P2 block"], tol=1e-8)
        assert report.passed, report.max_relative_error

    def test_error_does_not_depend_on_depth(self, p33, fields):
        # the per-spin gaps depend on the depth only through its parity, and
        # both parities are checked, so the width cancels from the error
        fld = fields["P2 block"]
        bad = PeriodTwoField(h_even=fld.h_even + 1e-3, h_odd=fld.h_odd.copy())
        errors = [check_consistency(build_tree(3, n), p33, bad).max_relative_error
                  for n in range(2, 12)]
        assert errors == pytest.approx([errors[0]] * len(errors), rel=1e-14)
        assert errors[0] > 1e-4

    def test_perturbed_field_fails_depth_six(self, p33, fields):
        fld = fields["P2 block"]
        bad = PeriodTwoField(h_even=fld.h_even + 1e-3, h_odd=fld.h_odd.copy())
        report = check_consistency(build_tree(3, 6), p33, bad, tol=1e-8)
        assert not report.passed
        assert report.max_relative_error > 1e-5


class TestFiniteDifference:
    def test_square(self):
        assert finite_difference(lambda x: x * x, 3.0) == pytest.approx(6.0, rel=1e-9)

    def test_matches_mobius_deriv(self, p33):
        fd = finite_difference(lambda x: mobius_map(x, p33, 1), 0.8, step=1e-6)
        assert fd == pytest.approx(mobius_deriv(0.8, p33, 1), rel=1e-7)

    def test_matches_two_step_slope(self, p33):
        fd = finite_difference(lambda x: two_step_map(x, p33, 1), 1.0, step=1e-6)
        assert fd == pytest.approx(two_step_slope_at_one(p33), rel=1e-6)
