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
from gibbstree.model import finite_volume_log_weight, monochromatic_edges, residual_norm
from gibbstree.oracle import _BoundarySum

from conftest import boundary_log_sum_by_enumeration


class TestBuildTree:
    def test_order_three_depth_two(self):
        tree = build_tree(3, 2)
        assert tree.n_vertices == 1 + 4 + 12
        assert len(tree.edges) == 16
        assert len(tree.boundary()) == 12
        assert tree.generations[0] == (0,)
        assert len(tree.generations[1]) == 4

    def test_root_branching_convention(self):
        # root carries k+1 children, every later vertex k
        tree = build_tree(3, 3)
        children = {v: 0 for v in range(tree.n_vertices)}
        for parent, child in tree.edges:
            children[parent] += 1
        assert children[0] == 4
        for v in tree.generations[1] + tree.generations[2]:
            assert children[v] == 3
        for v in tree.generations[3]:
            assert children[v] == 0

    def test_path_tree(self):
        tree = build_tree(1, 4)
        for d in range(1, 5):
            assert len(tree.generations[d]) == 2

    def test_depth_zero(self):
        tree = build_tree(3, 0)
        assert tree.n_vertices == 1
        assert tree.edges == ()
        assert tree.boundary() == (0,)

    def test_parents_and_depths_agree(self):
        tree = build_tree(2, 3)
        assert tree.parent[0] == -1
        for parent, child in tree.edges:
            assert tree.depth[child] == tree.depth[parent] + 1
            assert tree.parent[child] == parent

    def test_budget(self):
        with pytest.raises(BudgetError):
            build_tree(3, 20)

    def test_rejects_bad_args(self):
        with pytest.raises(ParameterError):
            build_tree(0, 2)
        with pytest.raises(ParameterError):
            build_tree(3, -1)
        with pytest.raises(ParameterError):
            build_tree(3, 1.5)


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
        assert report.pairs_checked == 21

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

    def test_budget_env_override(self, p33, monkeypatch):
        tree = build_tree(3, 2)
        monkeypatch.setattr(oracle, "_MAX_ENUM", 100)
        with pytest.raises(BudgetError):
            check_consistency(tree, p33, PeriodTwoField.zero(3))
        monkeypatch.setattr(oracle, "_MAX_ENUM", 1_000_000)
        assert check_consistency(tree, p33, PeriodTwoField.zero(3)).passed

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
            assert report.pairs_checked == 21

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
        tree = build_tree(3, 2)
        sol = solve_im(p33, 1)[0]
        a = check_consistency(tree, p33, sol.full_field, seed=7)
        b = check_consistency(tree, p33, sol.full_field, seed=7)
        assert a.max_relative_error == b.max_relative_error


def _test_fields(params: ModelParams, rng: np.random.Generator) -> list[PeriodTwoField]:
    """Zero field, every block solution of im:1, and two perturbations of them."""
    sols = [s.full_field for s in solve_im(params, 1)]
    q = params.q
    return [PeriodTwoField.zero(q), *sols,
            PeriodTwoField(sols[0].h_even + 1e-3, sols[0].h_odd.copy()),
            PeriodTwoField(sols[-1].h_even + rng.normal(size=q - 1),
                           sols[-1].h_odd + rng.normal(size=q - 1))]


def _brute_force_error(tree, params, field, n_pairs, seed):
    """check_consistency's relative spread with the boundary summed by enumeration."""
    rng = np.random.default_rng(seed)
    n_inner = tree.n_vertices - len(tree.boundary())
    configs = [np.ones(n_inner, dtype=np.int64)]
    configs += [rng.integers(1, params.q + 1, size=n_inner) for _ in range(n_pairs)]
    inner_edges = [e for e in tree.edges if tree.depth[e[1]] < tree.n]
    inner_boundary = [(v, tree.n - 1) for v in tree.generations[tree.n - 1]]
    gaps = [boundary_log_sum_by_enumeration(tree, params, field, inner)
            - finite_volume_log_weight({v: int(s) for v, s in enumerate(inner)},
                                       inner_edges, inner_boundary, field, params)
            for inner in configs]
    return (max(gaps) - min(gaps)) / max(1.0, max(abs(g) for g in gaps))


class TestFactorizedBoundarySum:
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
                rows = rng.integers(1, q + 1, size=(n_configs, n_inner))
                for inner, got in zip(rows, _BoundarySum(tree, p, rows).log_sums(field)):
                    expected = boundary_log_sum_by_enumeration(tree, p, field, inner)
                    worst = max(worst, abs(got - expected) / max(1.0, abs(expected)))
        assert worst <= 1e-13

    @pytest.mark.parametrize("n", [1, 2])
    def test_verdicts_match_enumeration(self, p33, n, monkeypatch):
        tree = build_tree(3, n)
        sol = solve_im(p33, 1)
        fields = [sol[1].full_field, sol[0].full_field,
                  PeriodTwoField(sol[0].full_field.h_even + 1e-3, sol[0].full_field.h_odd)]
        n_pairs = 5 if n == 1 else 1
        monkeypatch.setattr(oracle, "_N_PAIRS", n_pairs)
        verdicts = set()
        for field in fields:
            report = check_consistency(tree, p33, field, tol=1e-6, seed=0)
            expected = _brute_force_error(tree, p33, field, n_pairs, seed=0)
            assert report.max_relative_error == pytest.approx(expected, abs=1e-13)
            assert report.passed == (expected <= 1e-6)
            verdicts.add(report.passed)
        assert verdicts == {True, False}

    def test_large_fields_do_not_overflow(self, p33):
        tree = build_tree(3, 2)
        field = PeriodTwoField(np.array([800.0, -800.0]), np.array([-800.0, 800.0]))
        rows = np.ones((1, tree.n_vertices - len(tree.boundary())), dtype=np.int64)
        assert np.isfinite(_BoundarySum(tree, p33, rows).log_sums(field)[0])


class TestTiedToModel:
    """The batched oracle against the public Hamiltonian, row by row and exactly."""

    @pytest.mark.parametrize("q, k", [(3, 3), (4, 5)])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_rows_match_sequential_draws(self, q, k, n):
        tree = build_tree(k, n)
        n_inner = tree.n_vertices - len(tree.boundary())
        for seed in (0, 1, 2024):
            rng = np.random.default_rng(seed)
            expected = [np.ones(n_inner, dtype=np.int64)]
            expected += [rng.integers(1, q + 1, size=n_inner) for _ in range(oracle._N_PAIRS)]
            assert np.array_equal(oracle._draw_rows(q, n_inner, seed), np.stack(expected))

    @pytest.mark.parametrize("q, k", [(3, 3), (4, 5)])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_rows_match_model(self, q, k, n):
        p = ModelParams(q=q, k=k, theta=0.1)
        tree = build_tree(k, n)
        inner_edges = [e for e in tree.edges if tree.depth[e[1]] < tree.n]
        inner_boundary = [(v, n - 1) for v in tree.generations[n - 1]]
        sol = solve_im(p, 1)[0].full_field
        fields = [sol, sol.swapped(),
                  PeriodTwoField(sol.h_even + 0.25, -sol.h_odd)]
        for seed in (0, 7):
            rows = oracle._draw_rows(q, tree.n_vertices - len(tree.boundary()), seed)
            bsum = _BoundarySum(tree, p, rows)
            configs = rows.tolist()
            assert bsum.mono == [monochromatic_edges(c, inner_edges, q) for c in configs]
            for field in fields:
                assert bsum.inner_log_weights(field) == [
                    finite_volume_log_weight(c, inner_edges, inner_boundary, field, p)
                    for c in configs]


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
