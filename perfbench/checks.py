"""Output checks for benchmark ops.

Every op's output is held to the paper's count rule and to the CLI's
contract; a failed check is returned as data and never raises, so a wrong
answer counts against the run instead of stopping it.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from workloads import VERIFY_DEPTH, Op, theta_critical

RESIDUAL_TOL = 1e-9
# Two program defects are documented and expected.  Ops they hit still count
# as failed; they are the only failures a correct run may have.
# 1. In the band theta_cr * (1 +- 1e-8) the grid scans lose or misplace the
#    roots that branch off the unit solution, so a set reports the wrong
#    number of solutions or no translation-invariant one.
NEAR_CRITICAL_KINDS = frozenset({"count", "ti"})
# 2. refine's absolute tolerance (1e-12) is finer than the float spacing of a
#    root beyond about 1.6e4, so a far mirror-polynomial root makes the solve
#    raise ConvergenceError with this message and exit 1.
REFINE_DEFECT = "not reduced to 2*"


@dataclass(frozen=True)
class Failure:
    kind: str   # exit, refine, output, count, ti, residual, verify, csv or svg
    detail: str


def is_known_defect(op: Op, failures: list[Failure]) -> bool:
    """True when every failure is one of the two documented defects."""
    return bool(failures) and all(
        f.kind == "refine" or (op.near_critical and f.kind in NEAR_CRITICAL_KINDS)
        for f in failures)


def count_rule_ok(n: int, theta: float, q: int, k: int) -> bool:
    """At least 3 solutions below theta_cr, exactly 1 above it."""
    return n >= 3 if theta < theta_critical(q, k) else n == 1


def check_solution_rows(op: Op, rows: list[dict]) -> list[Failure]:
    """Count rule, one TI row and residuals for every (theta, set) the op covers.

    Each row needs the keys theta, set_kind, m, classification and
    residual_full, as in the solve JSON and the sweep CSV.
    """
    failures = []
    groups: dict[tuple[float, str], list[dict]] = {}
    for r in rows:
        groups.setdefault((r["theta"], f"{r['set_kind']}:{r['m']}"), []).append(r)
    expected = {(t, s) for t in op.thetas for s in op.sets}
    for key in sorted(set(groups) - expected):
        failures.append(Failure("output", f"unexpected rows for theta={key[0]!r} set {key[1]}"))
    for theta, label in sorted(expected):
        group = groups.get((theta, label), [])
        where = f"theta={theta!r} set {label}"
        if not count_rule_ok(len(group), theta, op.q, op.k):
            side = "below" if theta < theta_critical(op.q, op.k) else "above"
            failures.append(Failure("count", f"{len(group)} solution(s) {side} theta_cr at {where}"))
        n_ti = sum(1 for r in group if r["classification"] == "TI")
        if group and n_ti != 1:
            failures.append(Failure("ti", f"{n_ti} TI rows at {where}"))
        worst = max((r["residual_full"] for r in group), default=0.0)
        if not all(r["residual_full"] <= RESIDUAL_TOL for r in group):
            failures.append(Failure("residual", f"residual {worst!r} > {RESIDUAL_TOL} at {where}"))
    return failures


def _parse_json(stdout: str):
    try:
        return json.loads(stdout), None
    except json.JSONDecodeError as exc:
        return None, Failure("output", f"stdout is not JSON: {exc}")


def _check_solve(op: Op, data) -> list[Failure]:
    if not isinstance(data, list):
        return [Failure("output", "solve JSON is not a list")]
    return check_solution_rows(op, data)


def _check_verify(op: Op, data) -> list[Failure]:
    if not isinstance(data, list) or not data:
        return [Failure("output", "verify JSON is not a non-empty list")]
    failures = []
    for r in data:
        if not r["passed"]:
            failures.append(Failure(
                "verify", f"{r['set']} sol {r['sol_index']} failed, "
                          f"max relative error {r['max_relative_error']!r}"))
        if r["depth"] != VERIFY_DEPTH:
            failures.append(Failure("output", f"depth {r['depth']} != {VERIFY_DEPTH}"))
    theta = op.thetas[0]
    for label in op.sets:
        n = sum(1 for r in data if r["set"] == label)
        if not count_rule_ok(n, theta, op.q, op.k):
            failures.append(Failure("count", f"{n} field(s) verified for {label} at theta={theta!r}"))
    return failures


def _check_sweep(op: Op, data) -> list[Failure]:
    from gibbstree.errors import GibbsTreeError
    from gibbstree.sweep import read_csv

    if not isinstance(data, dict) or not isinstance(data.get("rows"), int):
        return [Failure("output", "sweep JSON has no integer 'rows'")]
    n = data["rows"]
    try:
        rows = read_csv(op.out)
    except (GibbsTreeError, OSError, ValueError) as exc:
        return [Failure("csv", f"read_csv({op.out!r}) raised {exc!r}")]
    failures = []
    if len(rows) != n:
        failures.append(Failure("csv", f"CSV has {len(rows)} rows, sweep reported {n}"))
    failures += check_solution_rows(op, [r.__dict__ for r in rows])
    try:
        svg = Path(op.svg).read_text()
    except OSError as exc:
        return failures + [Failure("svg", f"cannot read {op.svg!r}: {exc}")]
    # write_bifurcation_svg draws one point for each of x and y per row
    if not svg.startswith("<svg") or not svg.rstrip().endswith("</svg>"):
        failures.append(Failure("svg", "SVG is not a complete <svg> document"))
    elif svg.count("<circle") != 2 * n:
        failures.append(Failure("svg", f"SVG has {svg.count('<circle')} points, expected {2 * n}"))
    return failures


_CHECKS = {"solve": _check_solve, "sweep": _check_sweep, "verify": _check_verify}


def check(op: Op, rc: int, stdout: str, stderr: str = "") -> list[Failure]:
    """Every way the op's exit code and output break the rules; [] if none."""
    failures = []
    if rc != 0:
        kind = "refine" if rc == 1 and REFINE_DEFECT in stderr else "exit"
        failures.append(Failure(kind, f"exit code {rc}: {stderr.strip()}"))
        if not stdout.strip():
            return failures
    data, bad = _parse_json(stdout)
    if bad is not None:
        return failures + [bad]
    try:
        failures += _CHECKS[op.kind](op, data)
    except (KeyError, TypeError, ValueError) as exc:
        failures.append(Failure("output", f"malformed {op.kind} output: {exc!r}"))
    return failures
