import hashlib
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

import pytest

import gibbstree
from gibbstree import ModelParams, oracle
from gibbstree.sweep import CSV_HEADER, parse_set_spec, read_csv, rows_for
from gibbstree.cli import build_parser, main


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
        rows = [r for s in parse_set_spec("all", 5) for r in rows_for(p, [s])]
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

    @pytest.mark.parametrize("q, digest", [
        (3, "a05e0bac988c24c5c581024c7b216181a3b24beee4989e03c8854293fcf5fbe0"),
        (10, "e2c40e0be9ea38066c9fde4fb0b10316966f21690edfcff6c5a3bbdf4189fabe"),
        (100, "ed298034e3c721c6d75407cdc7e1ab9bf347712cea897980e69d2996a88f96d7"),
        (1000, "9e5cd10e0b6e56b06c05b917ee9b8cce7e97a2cddadfe2c851a5516bea5f7f21"),
    ])
    def test_json_bytes_are_frozen(self, capsys, q, digest):
        # sha256 of the output when each tally was a product of two math.comb calls
        code, out, _ = run(capsys, "count", "--q", str(q), "--json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_two_states_rejected(self, capsys):
        code, _, _ = run(capsys, "count", "--q", "2")
        assert code == 2

    def test_unprintable_tallies_refused_at_once(self, capsys):
        # 2^15001 - 2 alone has 4,516 digits, past the default limit of 4,300
        start = time.perf_counter()
        code, out, err = run(capsys, "count", "--q", "15000")
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == "" and "more than" in err and "digits" in err

    @pytest.mark.parametrize("q, code", [
        (1344, 0),   # the largest q whose total has at most 640 digits
        (1345, 2),   # refused once the total is known
        (1348, 2),   # refused by its bound, before any tally is computed
    ])
    def test_tallies_at_the_digit_limit(self, q, code):
        # 640 is the lowest limit Python accepts; a fresh interpreter keeps
        # this process's limit as it is
        src = str(Path(gibbstree.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-X", "int_max_str_digits=640", "-m", "gibbstree.cli",
             "count", "--q", str(q), "--json"],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60)
        assert proc.returncode == code, proc.stderr
        if code == 0:
            assert len(str(json.loads(proc.stdout)["total"])) == 640


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
        # the check lists no configuration, so depth 11 (354,293 vertices)
        # passes, and only the ball's vertex budget refuses depth 12
        code, out, _ = run(capsys, "verify", "--q", "3", "--k", "3",
                           "--theta", "0.1", "--set", "im:1", "--depth", "11")
        assert code == 0
        assert out.count("PASS") == 3
        code, _, err = run(capsys, "verify", "--q", "3", "--k", "3",
                           "--theta", "0.1", "--set", "im:1", "--depth", "12")
        assert code == 3
        assert "depth-12 ball has 1062881 vertices" in err

    @pytest.mark.parametrize("depth", ["20000", "100000000"])
    def test_huge_depth_is_refused_at_once(self, capsys, depth):
        # the ball's size would have thousands of digits (or take minutes to
        # form): the budget is decided without forming it
        start = time.perf_counter()
        code, _, err = run(capsys, "verify", "--q", "3", "--k", "3",
                           "--theta", "0.1", "--depth", depth)
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert f"depth-{depth} ball has more than 1062881 vertices" in err

    def test_env_budget(self, capsys, monkeypatch):
        monkeypatch.setattr(oracle, "_MAX_VERTICES", 16)
        code, _, _ = run(capsys, "verify", "--q", "3", "--k", "3",
                         "--theta", "0.1", "--set", "im:1", "--depth", "2")
        assert code == 3

    def test_seed_is_accepted_and_selects_nothing(self, capsys):
        argv = ("verify", "--q", "3", "--k", "3", "--theta", "0.1", "--set", "all")
        plain = run(capsys, *argv)
        assert plain == run(capsys, *argv, "--seed", "7")
        assert plain[0] == 0
        assert plain[1].count("all configurations, depth 2") == 9

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

    def test_parameter_errors_read_like_argparse_errors(self, capsys):
        # the --theta/--coupling/--temp errors name the invoked command, as
        # argparse's own errors for it do, and keep exit code 64
        for cmd in ("solve", "verify"):
            _, _, own = run(capsys, cmd, "--k", "3", "--theta", "0.1")
            for extra in (["--theta", "0.1", "--coupling", "1"], [],
                          ["--coupling", "1", "--temp", "-1"]):
                code, out, err = run(capsys, cmd, "--q", "3", "--k", "3", *extra)
                assert code == 64 and out == ""
                assert err.splitlines()[:-1] == own.splitlines()[:-1]
                assert err.splitlines()[-1].startswith(f"gibbstree {cmd}: error: ")

    def test_top_level_help_does_not_depend_on_the_command(self):
        text = build_parser([]).format_help()
        for cmd in ("solve", "sweep", "count", "verify", "plot", "frobnicate"):
            assert build_parser([cmd, "--q", "3"]).format_help() == text


# The CLI's text at COLUMNS=80, byte for byte, as argparse of Python 3.11
# formats it; another Python version may word argparse's own messages
# differently.
TOP_USAGE = "usage: gibbstree [-h] {solve,sweep,count,verify,plot} ...\n"
TOP_HELP = TOP_USAGE + """
Boundary-field solutions of the antiferromagnetic q-state model on a Cayley
tree

positional arguments:
  {solve,sweep,count,verify,plot}
    solve               solve one parameter point
    sweep               solve across a theta grid, write CSV
    count               closed-form solution tallies
    verify              check solutions against finite-volume sums
    plot                render a sweep CSV as SVG

options:
  -h, --help            show this help message and exit
"""
SOLVE_USAGE = """\
usage: gibbstree solve [-h] --q Q --k K [--theta THETA] [--coupling COUPLING]
                       [--temp TEMP] [--set SET] [--out OUT] [--json]
"""
VERIFY_USAGE = """\
usage: gibbstree verify [-h] --q Q --k K [--theta THETA] [--coupling COUPLING]
                        [--temp TEMP] [--set SET] [--depth DEPTH] [--tol TOL]
                        [--seed SEED] [--json]
"""
MODEL_OPTIONS = """\
  --q Q                number of spin states
  --k K                tree branching order
  --theta THETA        interaction weight exp(J/T), in (0, 1)
  --coupling COUPLING  coupling constant J (alternative to --theta, with
                       --temp)
  --temp TEMP          temperature T > 0 (used with --coupling)
"""
COMMAND_HELP = {
    "solve": SOLVE_USAGE + """
options:
  -h, --help           show this help message and exit
""" + MODEL_OPTIONS + """\
  --set SET            invariant set: im:<m>, imprime:<m>, or all
  --out OUT            also write solutions as CSV
  --json               machine-readable output
""",
    "sweep": """\
usage: gibbstree sweep [-h] --q Q --k K --theta-min THETA_MIN --theta-max
                       THETA_MAX --steps STEPS [--set SET] --out OUT
                       [--svg SVG] [--json]

options:
  -h, --help            show this help message and exit
  --q Q
  --k K
  --theta-min THETA_MIN
  --theta-max THETA_MAX
  --steps STEPS
  --set SET
  --out OUT             output CSV path
  --svg SVG             optional SVG plot path
  --json
""",
    "count": """\
usage: gibbstree count [-h] --q Q [--json]

options:
  -h, --help  show this help message and exit
  --q Q
  --json
""",
    "verify": VERIFY_USAGE + """
options:
  -h, --help           show this help message and exit
""" + MODEL_OPTIONS + """\
  --set SET
  --depth DEPTH        ball depth for the consistency check (default 2); depth
                       1 fails every period-two solution by design, since the
                       root has k+1 children
  --tol TOL
  --seed SEED          accepted for older command lines; selects nothing,
                       since every configuration is checked
  --json
""",
    "plot": """\
usage: gibbstree plot [-h] --csv CSV --out OUT [--json]

options:
  -h, --help  show this help message and exit
  --csv CSV   input CSV path
  --out OUT   output SVG path
  --json
""",
}


class TestPinnedText:
    """stdout, stderr and exit code of help and usage errors, every byte."""

    @pytest.fixture(autouse=True)
    def columns(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")

    @pytest.mark.parametrize("argv, code, out", [
        (["--help"], 0, TOP_HELP),
        ([], 64, TOP_HELP),
    ] + [([cmd, "--help"], 0, text) for cmd, text in COMMAND_HELP.items()],
        ids=["help", "no-arguments"] + [f"{cmd}-help" for cmd in COMMAND_HELP])
    def test_help(self, capsys, argv, code, out):
        assert run(capsys, *argv) == (code, out, "")

    @pytest.mark.parametrize("argv, err", [
        (["frobnicate"], TOP_USAGE + "gibbstree: error: argument command: invalid choice: "
         "'frobnicate' (choose from 'solve', 'sweep', 'count', 'verify', 'plot')\n"),
        (["solve", "--k", "3", "--theta", "0.1"], SOLVE_USAGE
         + "gibbstree solve: error: the following arguments are required: --q\n"),
        (["solve", "--q", "x", "--k", "3", "--theta", "0.1"], SOLVE_USAGE
         + "gibbstree solve: error: argument --q: invalid int value: 'x'\n"),
        (["solve", "--q", "3", "--k", "3", "--theta", "0.1", "--frob"], TOP_USAGE
         + "gibbstree: error: unrecognized arguments: --frob\n"),
        (["solve", "--q", "3", "--k", "3", "--theta", "0.1", "--coupling", "1"], SOLVE_USAGE
         + "gibbstree solve: error: --theta conflicts with --coupling/--temp\n"),
        (["solve", "--q", "3", "--k", "3"], SOLVE_USAGE
         + "gibbstree solve: error: provide either --theta or both --coupling and --temp\n"),
        (["verify", "--q", "3", "--k", "3", "--coupling", "1", "--temp", "0"], VERIFY_USAGE
         + "gibbstree verify: error: --temp must be positive\n"),
    ], ids=["unknown-command", "missing-required", "bad-int", "unknown-option",
            "theta-and-coupling", "no-temperature", "temp-not-positive"])
    def test_usage_error(self, capsys, argv, err):
        assert run(capsys, *argv) == (64, "", err)


def run_fresh(script: str, tmp_path) -> subprocess.CompletedProcess:
    """Run script in a fresh interpreter, so no other test has imported a module already.

    The script gets tmp_path as sys.argv[1].
    """
    src = str(Path(gibbstree.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    return subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)


class TestRuntimeDependencies:
    def test_solve_and_sweep_do_not_import_mpmath(self, tmp_path):
        script = (
            "import sys\n"
            "from gibbstree.cli import main\n"
            "assert main(['solve', '--q', '4', '--k', '5', '--theta', '0.2', '--set', 'all']) == 0\n"
            "assert main(['sweep', '--q', '3', '--k', '4', '--theta-min', '0.1', '--theta-max',"
            " '0.6', '--steps', '3', '--set', 'all', '--out', sys.argv[1] + '/s.csv',"
            " '--svg', sys.argv[1] + '/s.svg']) == 0\n"
            "sys.exit('mpmath' in sys.modules)\n"
        )
        proc = run_fresh(script, tmp_path)
        assert proc.returncode == 0, proc.stderr

    def test_solve_sweep_count_and_plot_do_not_import_numpy(self, tmp_path):
        # verify comes last, so a check that needed numpy there could not
        # hide behind an earlier command's import
        script = (
            "import sys\n"
            "from gibbstree.cli import main\n"
            "d = sys.argv[1]\n"
            "assert main(['solve', '--q', '4', '--k', '5', '--theta', '0.2', '--set', 'all',"
            " '--json']) == 0\n"
            "assert main(['sweep', '--q', '3', '--k', '4', '--theta-min', '0.1', '--theta-max',"
            " '0.6', '--steps', '3', '--set', 'all', '--out', d + '/s.csv',"
            " '--svg', d + '/s.svg']) == 0\n"
            "assert main(['count', '--q', '7', '--json']) == 0\n"
            "assert main(['plot', '--csv', d + '/s.csv', '--out', d + '/p.svg']) == 0\n"
            "if 'numpy' in sys.modules:\n"
            "    sys.exit('numpy was imported')\n"
            "assert main(['verify', '--q', '3', '--k', '3', '--theta', '0.1', '--set', 'all']) == 0\n"
            "assert 'numpy' not in sys.modules\n"
        )
        proc = run_fresh(script, tmp_path)
        assert proc.returncode == 0, proc.stderr

    def test_commands_do_not_import_fractions_or_decimal(self, tmp_path):
        # the exact kernel works on integer pairs; fractions imports decimal
        script = (
            "import sys\n"
            "from gibbstree.cli import main\n"
            "d = sys.argv[1]\n"
            "assert main(['solve', '--q', '4', '--k', '5', '--theta', '0.2', '--set', 'all',"
            " '--json']) == 0\n"
            "assert main(['sweep', '--q', '3', '--k', '4', '--theta-min', '0.1', '--theta-max',"
            " '0.6', '--steps', '3', '--set', 'all', '--out', d + '/s.csv',"
            " '--svg', d + '/s.svg']) == 0\n"
            "assert main(['count', '--q', '7', '--json']) == 0\n"
            "assert main(['plot', '--csv', d + '/s.csv', '--out', d + '/p.svg']) == 0\n"
            "assert main(['verify', '--q', '3', '--k', '3', '--theta', '0.1', '--set', 'all']) == 0\n"
            "loaded = sorted({'fractions', 'decimal'} & set(sys.modules))\n"
            "assert not loaded, loaded\n"
        )
        proc = run_fresh(script, tmp_path)
        assert proc.returncode == 0, proc.stderr
