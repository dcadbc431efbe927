import json
import math

import pytest

from gibbstree.sweep import CSV_HEADER, read_csv
from gibbstree.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_three_solutions_below_threshold(self, capsys):
        code, out, _ = run(capsys, "solve", "--q", "3", "--k", "3",
                           "--theta", "0.1", "--set", "im:1")
        assert code == 0
        assert "3 solution(s)" in out
        tags = [line.split()[-2] for line in out.splitlines()
                if line.strip().startswith("im:1")]
        assert tags == ["P2", "TI", "P2"]

    def test_unique_above_threshold(self, capsys):
        code, out, _ = run(capsys, "solve", "--q", "3", "--k", "3",
                           "--theta", "0.5", "--set", "im:1")
        assert code == 0
        assert "1 solution(s)" in out
        assert " TI " in out

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "solve", "--q", "3", "--k", "3",
                           "--theta", "0.1", "--set", "im:1", "--json")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 3
        assert rows[0]["classification"] == "P2"
        assert rows[1]["x"] == pytest.approx(1.0, abs=1e-10)

    def test_out_writes_csv(self, capsys, tmp_path):
        path = tmp_path / "sols.csv"
        code, _, _ = run(capsys, "solve", "--q", "3", "--k", "3",
                         "--theta", "0.1", "--set", "all", "--out", str(path))
        assert code == 0
        rows = read_csv(str(path))
        assert len(rows) == 9

    def test_mirror_unit_solution_near_theta_one(self, capsys):
        code, out, _ = run(capsys, "solve", "--q", "3", "--k", "3",
                           "--theta", "0.9999999467599381", "--set", "imprime:1")
        assert code == 0
        assert "1 solution(s)" in out
        assert " TI " in out

    def test_coupling_temperature_form(self, capsys):
        # theta = exp(J/T); J = ln(0.1), T = 1 reproduces theta = 0.1
        code, out, _ = run(capsys, "solve", "--q", "3", "--k", "3",
                           "--coupling", str(math.log(0.1)), "--temp", "1.0",
                           "--set", "im:1")
        assert code == 0
        assert "3 solution(s)" in out

    def test_out_of_regime(self, capsys):
        code, _, _ = run(capsys, "solve", "--q", "5", "--k", "3",
                         "--theta", "0.1")
        assert code == 2

    def test_bad_m_value(self, capsys):
        code, _, _ = run(capsys, "solve", "--q", "3", "--k", "3",
                         "--theta", "0.1", "--set", "im:7")
        assert code == 2


class TestSweep:
    def test_writes_csv_and_svg(self, capsys, tmp_path):
        csv_path = tmp_path / "sweep.csv"
        svg_path = tmp_path / "sweep.svg"
        code, out, _ = run(capsys, "sweep", "--q", "3", "--k", "3",
                           "--theta-min", "0.1", "--theta-max", "0.3",
                           "--steps", "3", "--set", "im:1",
                           "--out", str(csv_path), "--svg", str(svg_path))
        assert code == 0
        assert csv_path.read_text().splitlines()[0] == CSV_HEADER
        assert svg_path.read_text().startswith("<svg")
        assert "wrote" in out

    def test_unwritable_output(self, capsys, tmp_path):
        code, _, _ = run(capsys, "sweep", "--q", "3", "--k", "3",
                         "--theta-min", "0.1", "--theta-max", "0.2",
                         "--steps", "2", "--out",
                         str(tmp_path / "missing_dir" / "x.csv"))
        assert code == 74

    def test_bad_range(self, capsys):
        code, _, _ = run(capsys, "sweep", "--q", "3", "--k", "3",
                         "--theta-min", "0.3", "--theta-max", "0.1",
                         "--steps", "2", "--out", "/tmp/never.csv")
        assert code == 2


class TestCount:
    def test_totals(self, capsys):
        code, out, _ = run(capsys, "count", "--q", "3")
        assert code == 0
        assert "total: 26" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "count", "--q", "4", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["total"] == 66
        assert data["per_im"]["1"] == 8

    def test_two_states_rejected(self, capsys):
        code, _, _ = run(capsys, "count", "--q", "2")
        assert code == 2


class TestVerify:
    def test_block_solutions_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--q", "3", "--k", "3",
                           "--theta", "0.1", "--set", "im:1", "--depth", "2",
                           "--tol", "1e-6")
        assert code == 0
        assert out.count("PASS") == 3
        assert "FAIL" not in out

    def test_warm_point_passes_depth_one(self, capsys):
        # the unique solution there has zero field, which survives even the
        # depth-one ball where the root's extra branch is on the boundary
        code, out, _ = run(capsys, "verify", "--q", "3", "--k", "3",
                           "--theta", "0.5", "--set", "all", "--depth", "1")
        assert code == 0
        assert "FAIL" not in out

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "verify", "--q", "3", "--k", "3",
                           "--theta", "0.5", "--set", "im:1", "--json")
        assert code == 0
        results = json.loads(out)
        assert all(r["passed"] for r in results)
        assert results[0]["depth"] == 2

    def test_depth_four_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--q", "3", "--k", "3",
                           "--theta", "0.1", "--set", "all", "--depth", "4")
        assert code == 0
        assert out.count("PASS") == 9
        assert "FAIL" not in out

    def test_depth_budget(self, capsys):
        # depth 11: 21 configurations x 236,196 boundary vertices x 3 spins
        # is about 1.49e7 terms, over the default budget of 1e7
        code, _, _ = run(capsys, "verify", "--q", "3", "--k", "3",
                         "--theta", "0.1", "--set", "im:1", "--depth", "11")
        assert code == 3

    def test_env_budget(self, capsys, monkeypatch):
        monkeypatch.setenv("GIBBS_TREE_MAX_ENUM", "50")
        code, _, _ = run(capsys, "verify", "--q", "3", "--k", "3",
                         "--theta", "0.1", "--set", "im:1", "--depth", "2")
        assert code == 3


class TestPlot:
    def test_renders_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "rows.csv"
        run(capsys, "sweep", "--q", "3", "--k", "3", "--theta-min", "0.1",
            "--theta-max", "0.3", "--steps", "3", "--set", "im:1",
            "--out", str(csv_path))
        svg_path = tmp_path / "plot.svg"
        code, out, _ = run(capsys, "plot", "--csv", str(csv_path),
                           "--out", str(svg_path))
        assert code == 0
        assert svg_path.read_text().startswith("<svg")

    def test_missing_input(self, capsys, tmp_path):
        code, _, _ = run(capsys, "plot", "--csv", str(tmp_path / "no.csv"),
                         "--out", str(tmp_path / "plot.svg"))
        assert code == 74


class TestUsageErrors:
    def test_no_subcommand(self, capsys):
        assert run(capsys, )[0] == 64

    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "frobnicate")[0] == 64

    def test_missing_temperature_spec(self, capsys):
        assert run(capsys, "solve", "--q", "3", "--k", "3")[0] == 64

    def test_conflicting_temperature_spec(self, capsys):
        code, _, _ = run(capsys, "solve", "--q", "3", "--k", "3",
                         "--theta", "0.1", "--coupling", "-1.0", "--temp", "1.0")
        assert code == 64

    def test_malformed_selector(self, capsys):
        code, _, _ = run(capsys, "solve", "--q", "3", "--k", "3",
                         "--theta", "0.1", "--set", "banana")
        assert code == 64

    def test_help_exits_clean(self, capsys):
        assert run(capsys, "--help")[0] == 0
        assert run(capsys, "solve", "--help")[0] == 0
