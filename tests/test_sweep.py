import io

import pytest

from gibbstree import InvariantSetId, ParameterError, SelectorSyntaxError, SetKind
from gibbstree.sweep import (
    CSV_HEADER,
    csv_text,
    parse_set_spec,
    read_csv,
    run_sweep,
    solve_set,
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


class TestCsv:
    def test_header_is_frozen(self):
        assert CSV_HEADER == "theta,set_kind,m,sol_index,x,y,z,t,classification,residual_full"

    def test_round_trip_exact(self, tmp_path):
        rows = run_sweep(3, 3, 0.1, 0.2, 3, parse_set_spec("all", 3))
        path = tmp_path / "rows.csv"
        write_csv(rows, str(path))
        back = read_csv(str(path))
        assert back == rows

    def test_mirror_rows_carry_roots(self):
        rows = run_sweep(3, 3, 0.1, 0.1, 1, [InvariantSetId(SetKind.IM_PRIME, 1)])
        assert all(r.z is not None and r.t is not None for r in rows)
        block = run_sweep(3, 3, 0.1, 0.1, 1, [InvariantSetId(SetKind.IM, 1)])
        assert all(r.z is None and r.t is None for r in block)

    def test_csv_text_starts_with_header(self):
        rows = run_sweep(3, 3, 0.5, 0.5, 1, [InvariantSetId(SetKind.IM, 1)])
        text = csv_text(rows)
        assert text.splitlines()[0] == CSV_HEADER
        assert len(text.splitlines()) == 2

    def test_write_accepts_file_object(self):
        rows = run_sweep(3, 3, 0.5, 0.5, 1, [InvariantSetId(SetKind.IM, 1)])
        buf = io.StringIO()
        write_csv(rows, buf)
        assert buf.getvalue() == csv_text(rows)

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


class TestSvg:
    def test_writes_svg_with_solution_markers(self, tmp_path):
        rows = run_sweep(3, 3, 0.1, 0.3, 5, [InvariantSetId(SetKind.IM, 1)])
        path = tmp_path / "plot.svg"
        write_bifurcation_svg(rows, str(path))
        text = path.read_text()
        assert text.startswith("<svg")
        assert text.rstrip().endswith("</svg>")
        assert text.count("<circle") == 2 * len(rows)

    def test_empty_rows_rejected(self, tmp_path):
        with pytest.raises(ParameterError):
            write_bifurcation_svg([], str(tmp_path / "plot.svg"))
