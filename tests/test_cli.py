import json
import math
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

import gibbstree
from gibbstree import ModelParams, oracle
from gibbstree.sweep import CSV_HEADER, parse_set_spec, read_csv, rows_for
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

    def test_json_bytes_match_asdict(self, capsys):
        # q=5 has block and mirror sets, so the rows hold floats and None
        code, out, _ = run(capsys, "solve", "--q", "5", "--k", "6",
                           "--theta", "0.1", "--json")
        assert code == 0
        p = ModelParams(q=5, k=6, theta=0.1)
        rows = [r for s in parse_set_spec("all", 5) for r in rows_for(p, s)]
        assert {r.z is None for r in rows} == {True, False}
        assert out == json.dumps([asdict(r) for r in rows], indent=2) + "\n"

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

    def test_three_mirror_solutions_at_large_k(self, capsys):
        code, out, _ = run(capsys, "solve", "--q", "3", "--k", "11",
                           "--theta", "0.0075", "--set", "imprime:1")
        assert code == 0
        assert "3 solution(s)" in out

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

    def test_overflowing_coupling_temperature(self, capsys):
        # exp(J/T) = exp(1000) is not a float
        code, _, err = run(capsys, "solve", "--q", "3", "--k", "3",
                           "--coupling", "1", "--temp", "1e-3")
        assert code == 2
        assert "overflows" in err

    @pytest.mark.parametrize("coupling,temp", [("0", "1e-320"), ("-1", "inf")])
    def test_coupling_temperature_giving_theta_one(self, capsys, coupling, temp):
        # exp(J/T) is exactly 1.0 here; the solver regime gate rejects it by theta
        code, _, err = run(capsys, "solve", "--q", "3", "--k", "3",
                           "--coupling", coupling, "--temp", temp)
        assert code == 2
        assert "theta" in err
        assert "beta" not in err


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

    def test_mirror_solutions_at_large_k_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--q", "3", "--k", "11",
                           "--theta", "0.0075", "--set", "imprime:1")
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
        monkeypatch.setattr(oracle, "_MAX_ENUM", 50)
        code, _, _ = run(capsys, "verify", "--q", "3", "--k", "3",
                         "--theta", "0.1", "--set", "im:1", "--depth", "2")
        assert code == 3

    @pytest.mark.parametrize("flag,value", [
        ("--seed", "-1"), ("--tol", "nan"), ("--tol", "-1"),
    ])
    def test_invalid_inputs_are_parameter_errors(self, capsys, flag, value):
        code, out, err = run(capsys, "verify", "--q", "3", "--k", "3",
                             "--theta", "0.1", "--set", "im:1", flag, value)
        assert code == 2
        assert "parameter error" in err
        assert "PASS" not in out and "FAIL" not in out


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

    @pytest.mark.parametrize("body", [
        (CSV_HEADER + "\nabc,im,1,0,1.0,1.0,,,TI,0.0\n").encode(),
        CSV_HEADER.encode() + b"\n\xff,im,1,0,1.0,1.0,,,TI,0.0\n",
    ], ids=["non-number", "non-utf8"])
    def test_malformed_csv(self, capsys, tmp_path, body):
        csv_path = tmp_path / "bad.csv"
        csv_path.write_bytes(body)
        code, _, err = run(capsys, "plot", "--csv", str(csv_path),
                           "--out", str(tmp_path / "plot.svg"))
        assert code == 2
        assert "parameter error" in err
        assert not (tmp_path / "plot.svg").exists()

    @pytest.mark.parametrize("rows,line", [
        ("0.1,im,1,0,1.0,1.0,,,TI,0.0\n0.2,im,1,0,nan,1.0,,,TI,0.0", 3),
        ("0.1,im,1,0,1.0,1.0,,,TI,inf", 2),
    ], ids=["nan-x", "inf-residual"])
    def test_non_finite_csv(self, capsys, tmp_path, rows, line):
        csv_path = tmp_path / "bad.csv"
        csv_path.write_text(f"{CSV_HEADER}\n{rows}\n")
        code, _, err = run(capsys, "plot", "--csv", str(csv_path),
                           "--out", str(tmp_path / "plot.svg"))
        assert code == 2
        assert f"line {line}: non-finite number" in err
        assert not (tmp_path / "plot.svg").exists()


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


class TestRuntimeDependencies:
    def test_solve_and_sweep_do_not_import_mpmath(self, tmp_path):
        # a fresh interpreter, so no other test has imported mpmath already
        script = (
            "import sys\n"
            "from gibbstree.cli import main\n"
            "assert main(['solve', '--q', '4', '--k', '5', '--theta', '0.2', '--set', 'all']) == 0\n"
            "assert main(['sweep', '--q', '3', '--k', '4', '--theta-min', '0.1', '--theta-max',"
            " '0.6', '--steps', '3', '--set', 'all', '--out', sys.argv[1] + '/s.csv',"
            " '--svg', sys.argv[1] + '/s.svg']) == 0\n"
            "sys.exit('mpmath' in sys.modules)\n"
        )
        src = str(Path(gibbstree.__file__).resolve().parent.parent)
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
        proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
