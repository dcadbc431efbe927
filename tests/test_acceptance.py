"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints a single summary line with the measured quantity next to
its bound, so a verbose run doubles as a small report.
"""

import itertools
import math
import time

import mpmath as mp
import numpy as np
import pytest

from gibbstree import (
    Classification,
    InvariantSetId,
    ModelParams,
    PeriodTwoField,
    ReducedScalar,
    SetKind,
    build_tree,
    check_consistency,
    classify,
    compat_map,
    embed_full,
    finite_difference,
    im_prime_poly,
    im_prime_poly_mp,
    im_prime_poly_slope_at_one,
    mobius_deriv,
    mobius_map,
    orbit_expand,
    solve_im,
    solve_im_prime,
    theta_critical,
    total_lower_bound,
    two_step_map,
    two_step_slope_at_one,
)

from conftest import draw_regime_params

THETA_GRID = np.linspace(0.05, 0.45, 81)


def _transition_bracket(q: int, k: int) -> tuple[float, float]:
    """Last grid theta with >= 3 block solutions, first with exactly 1."""
    counts = {}
    for theta in THETA_GRID:
        p = ModelParams(q=q, k=k, theta=float(theta))
        counts[float(theta)] = len(solve_im(p, 1))
    t_lo = max(th for th, c in counts.items() if c >= 3)
    t_hi = min(th for th, c in counts.items() if c == 1)
    return t_lo, t_hi, counts


def test_criterion_01_threshold_reproduction_q3_k3():
    start = time.perf_counter()
    t_lo, t_hi, counts = _transition_bracket(3, 3)
    elapsed = time.perf_counter() - start
    for theta, count in counts.items():
        if theta <= 0.245 + 1e-12:
            assert count >= 3, f"theta={theta}: expected >= 3, got {count}"
        if theta >= 0.255 - 1e-12:
            assert count == 1, f"theta={theta}: expected 1, got {count}"
    assert t_lo >= 0.245 - 1e-9
    assert t_hi <= 0.255 + 1e-9
    assert t_lo < 0.25 <= t_hi
    print(f"criterion 1: transition in [{t_lo:.3f}, {t_hi:.3f}] around 0.25, "
          f"{elapsed:.2f}s (< 10 s)")
    assert elapsed < 10.0


@pytest.mark.parametrize("q,k", [(3, 4), (4, 5)])
def test_criterion_02_threshold_reproduction_other_points(q, k):
    t_cr = theta_critical(q, k)
    t_lo, t_hi, counts = _transition_bracket(q, k)
    step = 0.005
    assert abs(t_lo - t_cr) <= step + 1e-9
    assert abs(t_hi - t_cr) <= step + 1e-9
    for theta, count in counts.items():
        if theta <= t_lo + 1e-12:
            assert count >= 3
        if theta >= t_hi - 1e-12:
            assert count == 1
    print(f"criterion 2: (q,k)=({q},{k}) transition in [{t_lo:.3f}, {t_hi:.3f}] "
          f"around {t_cr:.4f} +/- {step}")


def test_criterion_03_slope_sign_tracks_threshold():
    rng = np.random.default_rng(303)
    checked = 0
    while checked < 200:
        p = draw_regime_params(rng)
        t_cr = theta_critical(p.q, p.k)
        if abs(p.theta - t_cr) < 1e-9:
            continue
        slope = im_prime_poly_slope_at_one(p)
        assert math.copysign(1.0, slope) == math.copysign(1.0, t_cr - p.theta), \
            f"sign mismatch at q={p.q} k={p.k} theta={p.theta}"
        checked += 1
    print(f"criterion 3: {checked} draws, sign(slope) == sign(theta_cr - theta) exactly")


def test_criterion_04_polynomial_anchors():
    rng = np.random.default_rng(404)
    worst_unit = 0.0
    worst_zero = 0.0
    for _ in range(100):
        p = draw_regime_params(rng)
        m = int(rng.integers(1, (p.q - 1) // 2 + 1))
        scale = (p.theta + p.q - 1.0) ** p.k * abs(p.theta - 1.0)
        worst_unit = max(worst_unit, abs(im_prime_poly(1.0, p, m)) / scale)

        # p(z) = b1^k D - b2^k N, with t^k = N/D, is the elimination of t from
        # the mirror system, common factor (theta-1)^k divided out.  At z = 0:
        #   D = theta+m-1,  N = -(q-2m),  b1 = q-2m,  b2 = theta+q-m-1,
        #   so p(0) = (q-2m)^k (theta+m-1) + (q-2m) (theta+q-m-1)^k.
        # An earlier reference form, (q-2m)^k (theta+m-1) + (q-2m) (theta+q-m-1),
        # dropped the k-th power on (theta+q-m-1).
        derived = (p.q - 2 * m) ** p.k * (p.theta + m - 1.0) \
            + (p.q - 2 * m) * (p.theta + p.q - m - 1.0) ** p.k
        got = im_prime_poly(0.0, p, m)
        worst_zero = max(worst_zero, abs(got - derived) / max(abs(derived), 1e-300))
    print(f"criterion 4: |poly(1)| <= {worst_unit:.2e} * scale (bound 1e-9); "
          f"poly(0) vs derived closed form, worst relative deviation {worst_zero:.2e} "
          f"(bound 1e-12)")
    assert worst_unit <= 1e-9
    assert worst_zero <= 1e-12, (
        "poly(0) does not match the derived closed form "
        "(q-2m)^k (theta+m-1) + (q-2m) (theta+q-m-1)^k; the two differ by up to "
        f"{worst_zero:.2e} relative"
    )


def test_criterion_05_derivative_oracles():
    rng = np.random.default_rng(101)
    worst = [0.0, 0.0, 0.0]
    for _ in range(50):
        p = draw_regime_params(rng)
        t_cr = theta_critical(p.q, p.k)
        while abs(p.theta - t_cr) < 1e-3:
            # the poly slope vanishes at the threshold, where a relative
            # comparison and the sign test are both undefined
            p = draw_regime_params(rng)
            t_cr = theta_critical(p.q, p.k)
        m_im = int(rng.integers(1, p.q))
        m_mir = int(rng.integers(1, (p.q - 1) // 2 + 1))
        x = float(rng.uniform(0.3, 3.0))

        fd = finite_difference(lambda u: mobius_map(u, p, m_im), x, step=1e-5)
        exact = mobius_deriv(x, p, m_im)
        worst[0] = max(worst[0], abs(fd - exact) / abs(exact))

        fd = finite_difference(lambda u: two_step_map(u, p, m_im), 1.0, step=1e-5)
        exact = two_step_slope_at_one(p)
        worst[1] = max(worst[1], abs(fd - exact) / abs(exact))

        with mp.workdps(40):
            h = mp.mpf("1e-8")
            fd_mp = (im_prime_poly_mp(1 + h, p, m_mir)
                     - im_prime_poly_mp(1 - h, p, m_mir)) / (2 * h)
            fd_norm = float(fd_mp / mp.mpf(p.theta + p.q - 1.0) ** (p.k - 1))
        exact = im_prime_poly_slope_at_one(p)
        assert (fd_norm > 0) == (exact > 0)
        worst[2] = max(worst[2], abs(fd_norm - exact) / abs(exact))
    print(f"criterion 5: worst relative FD deviations "
          f"{worst[0]:.2e} / {worst[1]:.2e} / {worst[2]:.2e} (bound 1e-6)")
    assert all(w <= 1e-6 for w in worst)


def test_criterion_06_full_system_embedding():
    rng = np.random.default_rng(606)
    worst = 0.0
    n_sols = 0
    for _ in range(30):
        p = draw_regime_params(rng)
        m_im = int(rng.integers(1, p.q))
        m_mir = int(rng.integers(1, (p.q - 1) // 2 + 1))
        sols = list(solve_im(p, m_im))
        mirror, _ = solve_im_prime(p, m_mir)
        sols.extend(mirror)
        for sol in sols:
            worst = max(worst, sol.residual_full)
        n_sols += len(sols)
    print(f"criterion 6: {n_sols} solutions over 30 draws, "
          f"worst full-system residual {worst:.2e} (bound 1e-9)")
    assert worst <= 1e-9


def test_criterion_07_oracle_consistency():
    start = time.perf_counter()
    tree = build_tree(3, 2)
    worst = 0.0
    n_checked = 0
    perturbed_field = None
    for theta in (0.1, 0.2):
        p = ModelParams(q=3, k=3, theta=theta)
        sols = list(solve_im(p, 1))
        mirror, _ = solve_im_prime(p, 1)
        sols.extend(mirror)
        for sol in sols:
            report = check_consistency(tree, p, sol.full_field, tol=1e-6)
            assert report.passed, (theta, sol.x, report.max_relative_error)
            worst = max(worst, report.max_relative_error)
            n_checked += 1
            if perturbed_field is None and sol.x != 1.0:
                perturbed_field = (p, sol.full_field)

    p, fld = perturbed_field
    bad = PeriodTwoField(h_even=np.asarray(fld.even) + np.array([0.1, 0.0]),
                         h_odd=fld.odd)
    bad_report = check_consistency(tree, p, bad, tol=1e-6)
    elapsed = time.perf_counter() - start
    assert not bad_report.passed
    assert bad_report.max_relative_error > 1e-3
    print(f"criterion 7: {n_checked} solutions pass at depth 2, worst error "
          f"{worst:.2e} (bound 1e-6); perturbed field fails at "
          f"{bad_report.max_relative_error:.2e}; {elapsed:.1f}s (< 60 s)")
    assert elapsed < 60.0


def test_criterion_08_involution_pairing():
    p = ModelParams(q=3, k=3, theta=0.1)
    sols = solve_im(p, 1)
    non_unit = [s for s in sols if abs(s.x - 1.0) > 1e-6]
    assert len(non_unit) == 2
    lo, hi = non_unit
    assert lo.x < 1.0 < hi.x
    assert abs(lo.x - hi.y) <= 1e-9
    assert abs(hi.x - lo.y) <= 1e-9
    print(f"criterion 8: pair ({lo.x:.9f}, {lo.y:.9f}) and ({hi.x:.9f}, {hi.y:.9f}), "
          f"|x0 - y2| = {abs(lo.x - hi.y):.2e}, |x2 - y0| = {abs(hi.x - lo.y):.2e}")


def _symbol_orbit_size(pattern: tuple[str, ...]) -> int:
    return len(set(itertools.permutations(pattern)))


def test_criterion_09_counting():
    totals = {q: total_lower_bound(q).total for q in (3, 4, 5)}
    assert totals == {3: 26, 4: 66, 5: 162}

    # cross-check: orbit expansion of actual solutions against brute-force
    # permutation counting of the symbol patterns they embed to
    checked = []
    for q, k in [(3, 3), (4, 5)]:
        p = ModelParams(q=q, k=k, theta=0.1)
        for m in range(1, q):
            sols = [s for s in solve_im(p, m)
                    if classify(s, p) == Classification.PERIOD_TWO]
            if not sols:
                continue
            pattern = ("x",) * m + ("1",) * (q - 1 - m)
            expected = _symbol_orbit_size(pattern)
            assert expected == math.comb(q - 1, m)
            pair_keys = set()
            for sol in sols[:2]:
                orbit = orbit_expand(sol, p)
                assert len(orbit) == expected, (q, k, m, len(orbit))
                for d in orbit:
                    pair_keys.add((tuple(np.round(d.field.even, 10)),
                                   tuple(np.round(d.field.odd, 10))))
            assert len(pair_keys) == 2 * expected
            checked.append((f"im:{m}", q, expected))
        for m in range(1, (q - 1) // 2 + 1):
            sols, _ = solve_im_prime(p, m)
            sols = [s for s in sols
                    if classify(s, p) == Classification.PERIOD_TWO]
            if not sols:
                continue
            pattern = ("x",) * m + ("1",) * (q - 1 - 2 * m) + ("y",) * m
            expected = _symbol_orbit_size(pattern)
            assert expected == (math.factorial(q - 1)
                                // (math.factorial(m) ** 2
                                    * math.factorial(q - 1 - 2 * m)))
            for sol in sols[:1]:
                orbit = orbit_expand(sol, p)
                assert len(orbit) == expected, (q, k, m, len(orbit))
            checked.append((f"imprime:{m}", q, expected))

    assert checked
    print(f"criterion 9: totals {totals}; orbit sizes verified for {checked}")


def test_criterion_10_pattern_invariance():
    rng = np.random.default_rng(1010)
    checked = 0
    worst = 0.0
    while checked < 100:
        p = draw_regime_params(rng)
        q = p.q
        kind = SetKind.IM if rng.integers(2) == 0 else SetKind.IM_PRIME
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
        for vec in (p.k * np.asarray(compat_map(fld.odd, p)),
                    p.k * np.asarray(compat_map(fld.even, p))):
            lead = vec[:m]
            worst = max(worst, float(np.max(np.abs(lead - lead[0]))))
            if kind == SetKind.IM:
                rest = vec[m:]
                if rest.size:
                    worst = max(worst, float(np.max(np.abs(rest))))
            else:
                mid = vec[m:q - 1 - m]
                tail = vec[q - 1 - m:]
                if mid.size:
                    worst = max(worst, float(np.max(np.abs(mid))))
                worst = max(worst, float(np.max(np.abs(tail - tail[0]))))
        checked += 1
    print(f"criterion 10: {checked} random pattern points, worst pattern "
          f"deviation after one map application {worst:.2e} (bound 1e-12)")
    assert worst <= 1e-12

