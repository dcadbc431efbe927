import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from gibbstree import (
    InvariantSetId,
    ModelParams,
    ParameterError,
    SelectorSyntaxError,
    SetKind,
    classify,
    solve_im,
    solve_im_prime,
)
from gibbstree import solver, sweep
from gibbstree.sweep import (
    CSV_HEADER,
    parse_set_spec,
    read_csv,
    run_sweep,
    solve_set,
    solve_sets,
    write_bifurcation_svg,
    write_csv,
)


class TestParseSetSpec:
    def test_single_selectors(self):
        ids = parse_set_spec("im:2", 4)
        assert len(ids) == 1
        assert ids[0].kind is SetKind.IM and ids[0].m == 2

        ids = parse_set_spec("imprime:1", 4)
        assert ids[0].kind is SetKind.IM_PRIME

    def test_all_q3(self):
        labels = [s.label() for s in parse_set_spec("all", 3)]
        assert labels == ["im:1", "im:2", "imprime:1"]

    def test_all_q4(self):
        labels = [s.label() for s in parse_set_spec("all", 4)]
        assert labels == ["im:1", "im:2", "im:3", "imprime:1"]

    def test_all_q5(self):
        labels = [s.label() for s in parse_set_spec("all", 5)]
        assert labels == ["im:1", "im:2", "im:3", "im:4", "imprime:1", "imprime:2"]

    @pytest.mark.parametrize("bad", ["foo", "im:x", "im", "im:", ":1", "im:1:2", ""])
    def test_malformed_is_syntax_error(self, bad):
        with pytest.raises(SelectorSyntaxError):
            parse_set_spec(bad, 3)

    @pytest.mark.parametrize("spec,q", [("im:9", 3), ("imprime:2", 4), ("im:0", 3)])
    def test_out_of_range_is_parameter_error(self, spec, q):
        with pytest.raises(ParameterError):
            parse_set_spec(spec, q)

    def test_syntax_error_is_a_parameter_error(self):
        # callers that only distinguish usage problems can catch one type
        assert issubclass(SelectorSyntaxError, ParameterError)


def _record(solutions, params):
    """Everything a row shows of each solution, in order, floats as hex."""
    def hex_or_none(v):
        return None if v is None else v.hex()

    return [(s.set_id, s.x.hex(), s.y.hex(), hex_or_none(s.z), hex_or_none(s.t),
             s.residual_full.hex(), classify(s, params)) for s in solutions]


class TestSolveSets:
    """solve_sets derives im:q-m from im:m; the rows must not show it."""

    def test_matches_per_set_solves_at_every_corpus_point(self, monkeypatch):
        records = json.loads(Path(__file__).with_name("root_corpus.json").read_text())
        points = {(q, k, float.fromhex(theta)) for q, k, theta, _, _ in
                  (r["case"] for r in records)}
        assert len(points) == 110
        # solve_im_reciprocal falls back through solver.solve_im; sweep and
        # this module bind their own, so every call here is a fallback
        fallbacks = []
        solve = solver.solve_im
        monkeypatch.setattr(solver, "solve_im",
                            lambda params, m: fallbacks.append((params, m)) or solve(params, m))
        for q, k, theta in sorted(points):
            p = ModelParams(q=q, k=k, theta=theta)
            ids = parse_set_spec("all", q)
            for set_id, solutions in zip(ids, solve_sets(p, ids)):
                if set_id.kind is SetKind.IM:
                    direct = solve_im(p, set_id.m)
                else:
                    direct = solve_im_prime(p, set_id.m)[0]
                assert _record(solutions, p) == _record(direct, p), (q, k, theta, set_id)
        assert fallbacks == []

    @pytest.fixture
    def set_solves(self, monkeypatch):
        """The label of every solve_set call solve_sets makes from here on."""
        calls = []
        solve = sweep.solve_set

        def recording(params, set_id):
            calls.append(set_id.label())
            return solve(params, set_id)

        monkeypatch.setattr(sweep, "solve_set", recording)
        return calls

    def test_each_block_pair_is_solved_once(self, set_solves):
        p = ModelParams(q=5, k=6, theta=0.1)
        solve_sets(p, parse_set_spec("all", 5))
        assert set_solves == ["im:1", "im:2", "imprime:1", "imprime:2"]

    @pytest.mark.parametrize("labels, solved", [
        (["im:3", "imprime:1", "im:1", "im:3"], ["imprime:1", "im:1"]),
        (["im:3"], ["im:3"]),                # no partner requested
        (["im:2", "im:2"], ["im:2"]),        # im:q/2 is its own partner
    ])
    def test_request_order_is_kept(self, set_solves, labels, solved):
        p = ModelParams(q=4, k=5, theta=0.05)
        ids = [parse_set_spec(label, 4)[0] for label in labels]
        got = solve_sets(p, ids)
        assert set_solves == solved
        assert [_record(s, p) for s in got] == [_record(solve_set(p, i), p) for i in ids]

    def test_invalid_set_raises_as_solve_set_does(self):
        p = ModelParams(q=3, k=3, theta=0.1)
        for bad in (InvariantSetId(SetKind.IM, 3), InvariantSetId(SetKind.IM_PRIME, 2)):
            with pytest.raises(ParameterError):
                solve_sets(p, [InvariantSetId(SetKind.IM, 1), bad])


class TestSweepRecords:
    """run_sweep's rows: one per solution, theta by theta, set by set."""

    def test_single_step_matches_solver(self, p33):
        ids = [InvariantSetId(SetKind.IM, 1)]
        rows = run_sweep(3, 3, 0.1, 0.1, 1, ids)
        assert len(rows) == 3
        assert {r.theta for r in rows} == {0.1}
        assert [r.sol_index for r in rows] == [0, 1, 2]
        direct = solve_set(p33, ids[0])
        for row, sol in zip(rows, direct):
            assert row.x == pytest.approx(sol.x, rel=1e-12)

    def test_count_collapses_above_threshold(self):
        ids = [InvariantSetId(SetKind.IM, 1)]
        assert len(run_sweep(3, 3, 0.1, 0.1, 1, ids)) == 3
        assert len(run_sweep(3, 3, 0.5, 0.5, 1, ids)) == 1

    def test_grid_layout(self):
        ids = parse_set_spec("all", 3)
        rows = run_sweep(3, 3, 0.1, 0.3, 5, ids)
        # theta by theta, and the sets in selector order within one theta
        groups = list(dict.fromkeys((r.theta, f"{r.set_kind}:{r.m}") for r in rows))
        thetas = [0.1, 0.15, 0.2, 0.25, 0.3]
        assert [th for th, _ in groups] == pytest.approx([th for th in thetas for _ in ids])
        assert [label for _, label in groups] == [s.label() for s in ids] * 5

    def test_validation(self):
        ids = [InvariantSetId(SetKind.IM, 1)]
        with pytest.raises(ParameterError):
            run_sweep(3, 3, 0.1, 0.3, 0, ids)
        with pytest.raises(ParameterError):
            run_sweep(3, 3, 0.3, 0.1, 2, ids)
        with pytest.raises(ParameterError):
            run_sweep(3, 3, 0.0, 0.3, 2, ids)
        with pytest.raises(ParameterError):
            run_sweep(3, 3, 0.1, 1.0, 2, ids)

    def test_rows_ascending_in_x(self):
        rows = run_sweep(3, 3, 0.05, 0.45, 9, parse_set_spec("all", 3))
        groups = {}
        for r in rows:
            groups.setdefault((r.theta, r.set_kind, r.m), []).append(r)
        for group in groups.values():
            xs = [r.x for r in group]
            assert xs == sorted(xs)
            assert [r.sol_index for r in group] == list(range(len(group)))

    def test_block_unit_rows_are_exact(self):
        # f(1) = 1 exactly, so the unit row carries y = 1.0 with no rounding
        for q, k in ((3, 3), (4, 5), (5, 7), (3, 7)):
            ids = [InvariantSetId(SetKind.IM, m) for m in range(1, q)]
            rows = run_sweep(q, k, 0.05, 0.95, 7, ids)
            unit = [r for r in rows if r.x == 1.0]
            assert len(unit) == 7 * len(ids)
            assert all(r.y == 1.0 and r.classification == "TI" for r in unit)


class TestThetaGrid:
    """run_sweep visits the theta values of numpy.linspace, bit for bit."""

    @staticmethod
    def thetas(monkeypatch, lo, hi, steps):
        monkeypatch.setattr(sweep, "rows_for", lambda params, set_ids: [params.theta])
        return run_sweep(3, 3, lo, hi, steps, [InvariantSetId(SetKind.IM, 1)])

    def test_matches_linspace(self, monkeypatch):
        rng = np.random.default_rng(20)
        tiny = 5e-324
        cases = [(0.1, 0.1, 1), (0.1, 0.1, 2), (0.1, 0.1, 9), (0.1, 0.3, 1),
                 (0.1, 0.3, 2), (0.05, 0.45, 81),
                 # a step that underflows to zero, which numpy computes apart
                 (tiny, 2 * tiny, 6), (tiny, 3 * tiny, 9), (2 * tiny, 7 * tiny, 40)]
        for _ in range(500):
            lo, hi = sorted(rng.uniform(0.0, 1.0, 2).tolist())
            lo = max(lo, tiny)
            steps = int(rng.integers(1, 30))
            cases.append((lo, hi, steps))
            # ends one to a few ulps apart
            near = lo
            for _ in range(int(rng.integers(1, 4))):
                near = math.nextafter(near, 1.0)
            cases.append((lo, near, steps))
        for lo, hi, steps in cases:
            got = self.thetas(monkeypatch, lo, hi, steps)
            want = np.linspace(lo, hi, steps).tolist()
            assert [t.hex() for t in got] == [t.hex() for t in want], (lo, hi, steps)
            assert all(type(t) is float for t in got)


class TestCsv:
    def test_header_is_frozen(self):
        assert CSV_HEADER == "theta,set_kind,m,sol_index,x,y,z,t,classification,residual_full"

    def test_round_trip_exact(self, tmp_path):
        rows = run_sweep(3, 3, 0.1, 0.2, 3, parse_set_spec("all", 3))
        path = tmp_path / "rows.csv"
        write_csv(rows, str(path))
        back = read_csv(str(path))
        assert back == rows

    def test_written_bytes(self, tmp_path):
        # the expected text is built here, field by field, so a change of
        # format in write_csv shows even when read_csv still inverts it
        rows = run_sweep(3, 3, 0.1, 0.2, 3, parse_set_spec("all", 3))
        assert {r.set_kind for r in rows} == {"im", "imprime"}

        def cell(v):
            if v is None:
                return ""
            return repr(v) if isinstance(v, float) else str(v)

        expected = "theta,set_kind,m,sol_index,x,y,z,t,classification,residual_full\n"
        for r in rows:
            fields = (r.theta, r.set_kind, r.m, r.sol_index, r.x, r.y, r.z, r.t,
                      r.classification, r.residual_full)
            expected += ",".join(cell(v) for v in fields) + "\n"
        path = tmp_path / "rows.csv"
        write_csv(rows, str(path))
        assert path.read_bytes() == expected.encode()

    def test_mirror_rows_carry_roots(self):
        rows = run_sweep(3, 3, 0.1, 0.1, 1, [InvariantSetId(SetKind.IM_PRIME, 1)])
        assert all(r.z is not None and r.t is not None for r in rows)
        block = run_sweep(3, 3, 0.1, 0.1, 1, [InvariantSetId(SetKind.IM, 1)])
        assert all(r.z is None and r.t is None for r in block)

    def test_csv_text_starts_with_header(self, tmp_path):
        rows = run_sweep(3, 3, 0.1, 0.1, 1, [InvariantSetId(SetKind.IM, 1)])
        path = tmp_path / "rows.csv"
        write_csv(rows, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(rows) == 3 and len(lines) == 1 + len(rows)

    def test_read_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("alpha,beta\n1,2\n")
        with pytest.raises(ParameterError):
            read_csv(str(path))

    def test_read_rejects_short_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(CSV_HEADER + "\n0.1,im,1\n")
        with pytest.raises(ParameterError):
            read_csv(str(path))

    def test_read_names_line_of_non_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(CSV_HEADER + "\n0.1,im,1,0,1.0,1.0,,,TI,0.0\nabc,im,1,0,1.0,1.0,,,TI,0.0\n")
        with pytest.raises(ParameterError, match="line 3"):
            read_csv(str(path))


class TestSvg:
    def test_writes_svg_with_solution_markers(self, tmp_path):
        rows = run_sweep(3, 3, 0.1, 0.3, 5, [InvariantSetId(SetKind.IM, 1)])
        path = tmp_path / "plot.svg"
        write_bifurcation_svg(rows, str(path))
        text = path.read_text()
        assert text.startswith("<svg")
        assert text.rstrip().endswith("</svg>")
        assert text.count("<circle") == 2 * len(rows)

    def test_unit_branch_draws_at_one_height(self, tmp_path):
        # above theta_cr = 0.4 every set holds only its unit solution
        rows = run_sweep(3, 4, 0.5, 0.9, 5, parse_set_spec("all", 3))
        assert {(r.x, r.y) for r in rows} == {(1.0, 1.0)}
        path = tmp_path / "plot.svg"
        write_bifurcation_svg(rows, str(path))
        heights = set(re.findall(r'<circle [^>]*cy="([^"]+)"', path.read_text()))
        assert len(heights) == 1

    def test_empty_rows_rejected(self, tmp_path):
        with pytest.raises(ParameterError):
            write_bifurcation_svg([], str(tmp_path / "plot.svg"))
