"""Tests of the benchmark's own machinery.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from gibbstree import cli  # noqa: E402
from gibbstree.sweep import run_sweep, parse_set_spec, write_bifurcation_svg, write_csv  # noqa: E402


def first_cycles(workload, seed, out_dir, n=2):
    stream = workloads.cycles(workload, seed, out_dir)
    return [next(stream) for _ in range(n)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload, tmp_path):
    a = first_cycles(workload, 5, tmp_path)
    assert a == first_cycles(workload, 5, tmp_path)
    assert a != first_cycles(workload, 6, tmp_path)


def test_solve_cycle_mix(tmp_path):
    (cycle,) = first_cycles("solve_mixed", 3, tmp_path, 1)
    assert sorted((op.q, op.k) for op in cycle) == sorted(workloads.QK_PAIRS)
    near = [op for op in cycle if op.near_critical]
    assert len(near) == 3
    for op in cycle:
        theta, tc = op.thetas[0], workloads.theta_critical(op.q, op.k)
        rel = abs(theta / tc - 1.0)
        assert (1e-10 * 0.99 <= rel <= 1e-8 * 1.01) == op.near_critical
    below = [op for op in cycle if not op.near_critical
             and op.thetas[0] < workloads.theta_critical(op.q, op.k)]
    assert len(below) == 7


def test_sweep_and_verify_thetas_avoid_the_critical_band(tmp_path):
    for cycle in first_cycles("sweep_block", 4, tmp_path, 3):
        for op in cycle:
            tc = workloads.theta_critical(op.q, op.k)
            assert min(op.thetas) < tc < max(op.thetas)
            assert all(abs(t / tc - 1.0) >= workloads.SWEEP_MIN_REL_GAP for t in op.thetas)
    (cycle,) = first_cycles("verify_d2", 4, tmp_path, 1)
    assert sorted(op.thetas[0] < 0.25 for op in cycle) == [False] * 3 + [True] * 3
    assert all(abs(op.thetas[0] - 0.25) > 0.01 for op in cycle)


def solve_rows(theta, counts):
    """Fake `solve --json` rows: counts maps a set label to its solution count."""
    rows = []
    for label, n in counts.items():
        kind, m = label.split(":")
        for i in range(n):
            rows.append({"theta": theta, "set_kind": kind, "m": int(m), "sol_index": i,
                         "classification": "TI" if i == 0 else "P2", "residual_full": 1e-15})
    return rows


def test_checker_accepts_a_right_solve_and_flags_a_planted_wrong_count():
    op = workloads.solve_op(3, 3, 0.1)
    good = solve_rows(0.1, {"im:1": 3, "im:2": 3, "imprime:1": 3})
    assert checks.check(op, 0, json.dumps(good)) == []
    bad = solve_rows(0.1, {"im:1": 3, "im:2": 2, "imprime:1": 3})
    failures = checks.check(op, 0, json.dumps(bad))
    assert [f.kind for f in failures] == ["count"]
    assert not checks.is_known_defect(op, failures)


def test_near_critical_miscount_is_a_known_defect_but_still_fails():
    theta = 0.25 * (1.0 - 1e-9)
    op = workloads.solve_op(3, 3, theta, near_critical=True)
    failures = checks.check(op, 0, json.dumps(solve_rows(theta, {"im:1": 2, "im:2": 3, "imprime:1": 3})))
    assert failures and checks.is_known_defect(op, failures)
    rows = solve_rows(theta, {"im:1": 3, "im:2": 3, "imprime:1": 3})
    rows[0]["residual_full"] = 1e-3
    failures = checks.check(op, 0, json.dumps(rows))
    assert [f.kind for f in failures] == ["residual"]
    assert not checks.is_known_defect(op, failures)


def test_refine_non_convergence_is_a_known_defect_other_errors_are_not():
    op = workloads.solve_op(3, 7, 0.1819101633035649)
    err = "gibbstree: error: bracket [33677.46, 33677.46] not reduced to 2*1e-12 within 200 iterations\n"
    failures = checks.check(op, 1, "", err)
    assert [f.kind for f in failures] == ["refine"] and checks.is_known_defect(op, failures)
    failures = checks.check(op, 1, "", "gibbstree: error: something else\n")
    assert [f.kind for f in failures] == ["exit"] and not checks.is_known_defect(op, failures)


def test_checker_flags_missing_ti_row_and_bad_exit():
    op = workloads.solve_op(3, 3, 0.5)
    rows = solve_rows(0.5, {"im:1": 1, "im:2": 1, "imprime:1": 1})
    rows[1]["classification"] = "P2"
    kinds = [f.kind for f in checks.check(op, 2, json.dumps(rows))]
    assert kinds == ["exit", "ti"]
    assert [f.kind for f in checks.check(op, 0, "not json")] == ["output"]


def test_checker_flags_a_failed_verify():
    op = workloads.verify_op("im:2", 0.5)
    report = [{"set": "im:2", "sol_index": 0, "passed": True, "max_relative_error": 1e-14,
               "pairs_checked": 21, "depth": 2}]
    assert checks.check(op, 0, json.dumps(report)) == []
    report[0]["passed"] = False
    kinds = [f.kind for f in checks.check(op, 1, json.dumps(report))]
    assert kinds == ["exit", "verify"]


def test_checker_reads_the_sweep_csv_back(tmp_path):
    op = workloads.sweep_op(3, 3, 1, 0.1, 0.6, 3, tmp_path, "s")
    rows = run_sweep(3, 3, 0.1, 0.6, 3, parse_set_spec("im:1", 3))
    write_csv(rows, op.out)
    write_bifurcation_svg(rows, op.svg)
    reply = {"rows": len(rows), "out": op.out, "svg": op.svg}
    assert checks.check(op, 0, json.dumps(reply)) == []
    reply["rows"] += 1
    kinds = [f.kind for f in checks.check(op, 0, json.dumps(reply))]
    assert kinds == ["csv", "svg"]
    write_csv(rows[:-1], op.out)
    reply["rows"] = len(rows)
    kinds = [f.kind for f in checks.check(op, 0, json.dumps(reply))]
    assert kinds == ["csv", "count"]


def test_a_missing_hook_is_reported_absent():
    tracer = tracing.Tracer()
    hooks = (tracing.Hook("gibbstree.solver", "no_such_function", "solver.gone",
                          measure=lambda args, result: {"solver.gone_count": 1},
                          counters=("solver.gone_count",)),
             tracing.Hook("gibbstree.no_such_module", "f", "nowhere.f"),
             tracing.Hook("gibbstree.cli", "build_tree", "oracle.build_tree"))
    try:
        absent = tracer.install(hooks)
    finally:
        tracer.uninstall()
    assert absent == ["gibbstree.solver.no_such_function", "gibbstree.no_such_module.f"]
    summary = tracer.summarize([0])
    assert "solver.gone.calls" not in summary and "solver.gone_count" not in summary
    assert summary["oracle.build_tree.calls"] == 0


def traced_counts(op):
    tracer = tracing.Tracer()
    tracer.install()
    main = tracer.span(tracing.ROOT_SPAN, cli.main)
    try:
        tracer.op = 0
        rc, _, _ = worker.run_op(main, op)
    finally:
        tracer.uninstall()
    assert rc == 0
    summary = tracer.summarize([0])
    roots = [end - start for _, _, _, name, start, end, _ in tracer.spans
             if name == tracing.ROOT_SPAN]
    # self times and leaf totals add up to the op exactly
    assert summary["trace.accounted_s"] == pytest.approx(sum(roots) / 1e9, abs=1e-9)
    return tracer.op_counts(0)


def test_traced_counts_repeat_exactly_and_hooks_are_removed(tmp_path):
    op = workloads.sweep_op(3, 4, 2, 0.05, 0.5, 3, tmp_path, "t")
    original = cli.run_sweep
    first = traced_counts(op)
    assert cli.run_sweep is original
    assert first == traced_counts(op)
    assert first["invariants.two_step_map.calls"] > 0
    assert first["invariants.im_prime_poly.calls"] == 0
    assert first["oracle.check_consistency.calls"] == 0


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail([float(i) for i in range(100)]) == (89.0, "p90.0 of 100 ops")
    value, label = run.tail([float(i) for i in range(11)])
    assert value == pytest.approx(9.0) and label.startswith("p90 of 11 ops, interpolated")


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)


def test_run_fails_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "solve_mixed",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
