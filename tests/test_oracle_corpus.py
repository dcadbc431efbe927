"""Regression check: every consistency report the oracle gives, bit for bit.

oracle_corpus.json holds, for a seeded set of checks, the inputs (q, k,
theta, ball depth and the float.hex of the field) and the report's
passed, pairs_checked and float.hex of max_relative_error.  The fields are
the solutions of every invariant set at one theta on each side of
theta_cr, plus a perturbed copy of each set's first solution below theta_cr,
which fails.  The checks cover q = k = 3 at depths 1-4 and 8 and every
3 <= q <= k <= 5 at depths 1-3; after them, one solution and one failure
each at q = k = 3, depths 9 and 10, q = k = 4, depth 6 and q = 4, k = 5,
depth 5.  The test re-runs each check from its stored
inputs and compares exactly, so it ties the oracle alone and not the solver.

Regenerate the file (only when a change is meant to move a report) with

    PYTHONPATH=src python tests/test_oracle_corpus.py

and add --diff to write nothing and print how many records would change,
per report field, and the largest ulp distance of max_relative_error; it
exits 1 if any record would change, else 0.
"""
import json
import sys
from pathlib import Path

import numpy as np

from conftest import ulp_distance
from gibbstree import ModelParams, PeriodTwoField, build_tree, check_consistency, theta_critical
from gibbstree.sweep import parse_set_spec, solve_set

CORPUS = Path(__file__).with_name("oracle_corpus.json")
SEED = 23
TOL = 1e-8
# the oracle once drew its configurations from one of these seeds; corpus_cases
# still draws one per case, so that every later draw, and every case, stays
_SEEDS = (0, 1, 7, 2024)


def _fields(params: ModelParams, rng: np.random.Generator, perturb: bool) -> list:
    """(label, field) of every solution of every set, and perturbed first solutions."""
    out = []
    for set_id in parse_set_spec("all", params.q):
        sols = [s.full_field for s in solve_set(params, set_id)]
        out += [(f"{set_id.label()} sol {i}", f) for i, f in enumerate(sols)]
        if perturb:
            h_even = sols[0].h_even + 1e-3 * rng.normal(size=params.q - 1)
            out.append((f"{set_id.label()} perturbed", PeriodTwoField(h_even, sols[0].h_odd)))
    return out


def _case(q: int, k: int, theta: float, depth: int, label: str,
          f: PeriodTwoField) -> list:
    return [q, k, theta.hex(), depth, label,
            [v.hex() for v in f.h_even.tolist()], [v.hex() for v in f.h_odd.tolist()]]


def corpus_cases() -> list[list]:
    """[q, k, theta hex, depth, label, h_even hex, h_odd hex] of every case."""
    rng = np.random.default_rng(SEED)
    cases = []
    for q, k in [(q, k) for k in range(3, 6) for q in range(3, k + 1)]:
        t_cr = theta_critical(q, k)
        for theta, perturb in ((float(rng.uniform(0.02, t_cr)), True),
                               (float(rng.uniform(t_cr, 0.98)), False)):
            fields = _fields(ModelParams(q=q, k=k, theta=theta), rng, perturb)
            depths = (1, 2, 3, 4) if q == k == 3 else (1, 2, 3)
            for depth in depths:
                for label, f in fields:
                    rng.choice(_SEEDS)
                    cases.append(_case(q, k, theta, depth, label, f))
            if q == k == 3 and perturb:
                # depth 8 costs most, so it checks one solution and one failure
                failing = next(lf for lf in fields if lf[0].endswith("perturbed"))
                for label, f in (fields[0], failing):
                    cases.append(_case(q, k, theta, 8, label, f))
    # deeper balls, drawn after the cases above so that none of their draws
    # moves; each checks one solution and one failure below theta_cr
    for q, k, depths in ((3, 3, (9, 10)), (4, 4, (6,)), (4, 5, (5,))):
        theta = float(rng.uniform(0.02, theta_critical(q, k)))
        fields = _fields(ModelParams(q=q, k=k, theta=theta), rng, True)
        failing = next(lf for lf in fields if lf[0].endswith("perturbed"))
        for depth in depths:
            for label, f in (fields[0], failing):
                rng.choice(_SEEDS)
                cases.append(_case(q, k, theta, depth, label, f))
    return cases


def check_case(case: list) -> dict:
    """One corpus record: the case and the report of its consistency check."""
    q, k, theta, depth, _, h_even, h_odd = case
    field = PeriodTwoField([float.fromhex(v) for v in h_even],
                           [float.fromhex(v) for v in h_odd])
    report = check_consistency(build_tree(k, depth),
                               ModelParams(q=q, k=k, theta=float.fromhex(theta)),
                               field, tol=TOL)
    return {
        "case": case,
        "passed": report.passed,
        "pairs_checked": report.pairs_checked,
        "max_relative_error": report.max_relative_error.hex(),
    }


def test_reports_match_corpus():
    records = json.loads(CORPUS.read_text())
    for record in records:
        assert check_case(record["case"]) == record


def test_corpus_holds_passes_and_failures():
    records = json.loads(CORPUS.read_text())
    for depth in (1, 2, 3, 4, 5, 6, 8, 9, 10):
        verdicts = {r["passed"] for r in records if r["case"][3] == depth}
        assert verdicts == {True, False}, depth


def print_diff(old: list[dict], new: list[dict]) -> bool:
    """Per report field, the records of new that differ from old.

    Returns whether any record differs.
    """
    for name in ("passed", "pairs_checked", "max_relative_error"):
        changed = sum(a[name] != b[name] for a, b in zip(old, new))
        print(f"{name}: {changed} of {len(new)} records differ")
    worst = max((ulp_distance(float.fromhex(a["max_relative_error"]),
                              float.fromhex(b["max_relative_error"]))
                 for a, b in zip(old, new)), default=0)
    print(f"max_relative_error: largest {worst} ulps")
    return old != new


if __name__ == "__main__":
    if "--diff" in sys.argv[1:]:
        old = json.loads(CORPUS.read_text())
        sys.exit(1 if print_diff(old, [check_case(r["case"]) for r in old]) else 0)
    else:
        lines = [json.dumps(check_case(c)) for c in corpus_cases()]
        CORPUS.write_text("[\n" + ",\n".join(lines) + "\n]\n")
        print(f"wrote {len(lines)} records to {CORPUS}")
