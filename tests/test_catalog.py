import itertools
import math

import numpy as np
import pytest

from gibbstree import (
    Classification,
    InvariantSetId,
    ModelParams,
    ParameterError,
    ReducedScalar,
    ResidualError,
    SetKind,
    classify,
    embed_full,
    orbit_expand,
    solve_im,
    solve_im_prime,
    total_lower_bound,
)
from gibbstree.catalog import _round12, count_im, count_im_prime


class TestClassify:
    def test_unit_solution_is_translation_invariant(self, p33_warm):
        sols = solve_im(p33_warm, 1)
        assert classify(sols[0], p33_warm) == Classification.TRANSLATION_INVARIANT

    def test_outer_solutions_are_period_two(self, p33):
        sols = solve_im(p33, 1)
        assert classify(sols[0], p33) == Classification.PERIOD_TWO
        assert classify(sols[1], p33) == Classification.TRANSLATION_INVARIANT
        assert classify(sols[2], p33) == Classification.PERIOD_TWO

    def test_mirror_solutions(self, p33):
        sols, _ = solve_im_prime(p33, 1)
        tags = [classify(s, p33) for s in sols]
        assert tags[0] == Classification.PERIOD_TWO
        assert tags[1] == Classification.TRANSLATION_INVARIANT
        assert tags[2] == Classification.PERIOD_TWO

    def test_rejects_unverified_solution(self, p33):
        sol = ReducedScalar(x=2.0, y=3.0, set_id=InvariantSetId(SetKind.IM, 1))
        sol.residual_full = 1.0
        with pytest.raises(ResidualError):
            classify(sol, p33)


class TestOrbitExpand:
    def test_first_member_is_identity(self, p33):
        sols = solve_im(p33, 1)
        d = orbit_expand(sols[0], p33)[0]
        assert d.origin_permutation == (0, 1)
        assert d.origin_set.label() == "im:1"
        assert d.classification == Classification.PERIOD_TWO
        assert d.source is sols[0]
        # an equal copy of the solution's field, not the same object
        assert d.field is not sols[0].full_field
        assert np.array_equal(d.field.h_even, sols[0].full_field.h_even)
        assert np.array_equal(d.field.h_odd, sols[0].full_field.h_odd)

    def test_requires_embedding(self, p33):
        sol = ReducedScalar(x=2.0, y=3.0, set_id=InvariantSetId(SetKind.IM, 1))
        sol.residual_full = 0.0
        with pytest.raises(ParameterError):
            orbit_expand(sol, p33)

    def test_zero_field_orbit_is_trivial(self, p33_warm):
        sols = solve_im(p33_warm, 1)
        orbit = orbit_expand(sols[0], p33_warm)
        assert len(orbit) == 1

    def test_block_orbit_size(self):
        # q-1 = 3 free components with one distinguished slot: 3 images
        p = ModelParams(q=4, k=5, theta=0.1)
        sols = solve_im(p, 1)
        outer = sols[0]
        assert classify(outer, p) == Classification.PERIOD_TWO
        orbit = orbit_expand(outer, p)
        assert len(orbit) == math.comb(3, 1)

    def test_mirror_orbit_size(self):
        # 6 free components split 2+2+2: 6!/(2! 2! 2!) = 90 images
        p = ModelParams(q=7, k=7, theta=0.1)
        sols, _ = solve_im_prime(p, 2)
        outer = [s for s in sols if classify(s, p) == Classification.PERIOD_TWO]
        assert outer
        orbit = orbit_expand(outer[0], p)
        assert len(orbit) == math.factorial(6) // (2 * 2 * 2)

    def test_orbit_members_share_classification(self):
        p = ModelParams(q=4, k=5, theta=0.1)
        sols = solve_im(p, 1)
        orbit = orbit_expand(sols[0], p)
        tags = {d.classification for d in orbit}
        assert tags == {Classification.PERIOD_TWO}

    def test_orbit_fields_are_distinct(self):
        p = ModelParams(q=4, k=5, theta=0.1)
        orbit = orbit_expand(solve_im(p, 1)[0], p)
        keys = {tuple(np.round(d.field.h_even, 10)) for d in orbit}
        assert len(keys) == len(orbit)

    def test_orbit_matches_symbol_count(self):
        # independent count: distinct images of the symbol pattern
        # (a, 1, 1) under all permutations of three slots
        pattern = ("a", "1", "1")
        images = {tuple(pattern[i] for i in perm)
                  for perm in itertools.permutations(range(3))}
        p = ModelParams(q=4, k=5, theta=0.1)
        orbit = orbit_expand(solve_im(p, 1)[0], p)
        assert len(orbit) == len(images)

    def test_keys_round_as_numpy_does(self):
        # orbit keys are rounded without numpy; they equal numpy.round's,
        # up to the sign of zero, which a set key does not see
        rng = np.random.default_rng(2026)
        values = np.concatenate([
            rng.normal(scale=10.0, size=20_000),
            rng.normal(size=20_000) * 10.0 ** rng.uniform(-16, 290, size=20_000),
            np.round(rng.normal(size=20_000), 12) + rng.choice([-1, 1], 20_000) * 5e-13,
            [0.0, -0.0, 5e-13, -5e-13, 1.5e-12, 2.5e-12, 1e300, -1e300],
        ])
        with np.errstate(over="ignore"):
            expected = np.round(values, 12).tolist()
        got = [_round12(v) for v in values.tolist()]
        assert got == expected


class TestCounts:
    @pytest.mark.parametrize("q,m,expected", [
        (3, 1, 6),
        (3, 2, 6),
        (3, 3, 2),
        (4, 2, 12),
        (5, 5, 2),
    ])
    def test_count_im(self, q, m, expected):
        assert count_im(q, m) == expected

    @pytest.mark.parametrize("q,m,expected", [
        (3, 1, 12),
        (4, 1, 24),
        (4, 2, 12),
        (5, 2, 60),
    ])
    def test_count_im_prime(self, q, m, expected):
        assert count_im_prime(q, m) == expected

    def test_count_im_range(self):
        with pytest.raises(ParameterError):
            count_im(3, 4)
        with pytest.raises(ParameterError):
            count_im(3, 0)

    def test_count_im_prime_range(self):
        with pytest.raises(ParameterError):
            count_im_prime(4, 3)
        with pytest.raises(ParameterError):
            count_im_prime(3, 2)

    def test_count_formulas_match_direct_enumeration(self):
        # count ordered pairs of disjoint m-subsets of q states by brute force
        for q in range(3, 8):
            states = range(q)
            for m in range(1, q // 2 + 1):
                pairs = 0
                for a in itertools.combinations(states, m):
                    rest = [s for s in states if s not in a]
                    pairs += sum(1 for _ in itertools.combinations(rest, m))
                assert count_im_prime(q, m) == 2 * pairs
            for m in range(1, q + 1):
                subsets = sum(1 for _ in itertools.combinations(states, m))
                assert count_im(q, m) == 2 * subsets


class TestTotalLowerBound:
    @pytest.mark.parametrize("q,expected", [(3, 26), (4, 66), (5, 162)])
    def test_totals(self, q, expected):
        assert total_lower_bound(q).total == expected

    def test_rejects_two_states(self):
        with pytest.raises(ParameterError):
            total_lower_bound(2)
        with pytest.raises(ParameterError):
            total_lower_bound(2.5)

    def test_block_tally_identity(self):
        for q in range(3, 31):
            report = total_lower_bound(q)
            assert sum(report.per_im.values()) == 2 ** (q + 1) - 2

    def test_tallies_match_the_binomial_formulas(self):
        for q in range(3, 301):
            report = total_lower_bound(q)
            assert report.per_im == {m: count_im(q, m) for m in range(1, q + 1)}
            assert report.per_im_prime == {m: count_im_prime(q, m)
                                           for m in range(1, q // 2 + 1)}

    def test_report_structure(self):
        report = total_lower_bound(4)
        assert report.q == 4
        assert set(report.per_im) == {1, 2, 3, 4}
        assert set(report.per_im_prime) == {1, 2}
        assert report.total == sum(report.per_im.values()) \
            + sum(report.per_im_prime.values())
