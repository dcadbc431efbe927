"""Regression check: every root the solvers return, bit for bit.

root_corpus.json holds float.hex of x, y, z and t of every solution, and
every rejected mirror root with its reason, for a seeded set of parameter
points: one uniform theta on each side of theta_cr, theta_cr itself and
theta_cr (1 +- 1e-9), at every block and mirror index, for every q at
k <= 7, for q = 3, 4 at k = 11, 16, and for q = k = 8, q = 7 at k = 9 and
q = k = 11, where at float(theta_cr) the roots beside 1 lie within about
1e-9 of it.  The test re-solves each point and compares exactly.

Regenerate the file (only when a change is meant to move a root) with

    PYTHONPATH=src python tests/test_root_corpus.py

and add --diff to write nothing and print, for each of x, y, z, t, the
solution count and the rejected list, how many records would change and
the largest ulp distance; it exits 1 if any record would change, else 0.
"""
import json
import sys
from pathlib import Path

import numpy as np

from conftest import ulp_distance
from gibbstree import ModelParams, solve_im, solve_im_prime, theta_critical

CORPUS = Path(__file__).with_name("root_corpus.json")
SEED = 17


def _hex(v):
    return None if v is None else float(v).hex()


def corpus_cases():
    """(q, k, theta, kind, m) for every case of the corpus, in a fixed order."""
    rng = np.random.default_rng(SEED)
    cases = []
    # the large-k points come last, so the draws of the small-k ones stay put
    qk = [(q, k) for k in range(3, 8) for q in range(3, k + 1)]
    qk += [(q, k) for k in (11, 16) for q in (3, 4)]
    qk += [(8, 8), (7, 9), (11, 11)]
    for q, k in qk:
        t_cr = theta_critical(q, k)
        thetas = (float(rng.uniform(0.02, t_cr)), float(rng.uniform(t_cr, 0.98)),
                  t_cr, t_cr * (1.0 - 1e-9), t_cr * (1.0 + 1e-9))
        for theta in thetas:
            cases += [(q, k, theta, "im", m) for m in range(1, q)]
            cases += [(q, k, theta, "im'", m) for m in range(1, (q - 1) // 2 + 1)]
    return cases


def solve_case(q: int, k: int, theta: float, kind: str, m: int) -> dict:
    """One corpus record: the case and the hex of everything the solver returns."""
    p = ModelParams(q=q, k=k, theta=theta)
    if kind == "im":
        solutions, rejected = solve_im(p, m), []
    else:
        solutions, rejected = solve_im_prime(p, m)
    return {
        "case": [q, k, theta.hex(), kind, m],
        "solutions": [[_hex(s.x), _hex(s.y), _hex(s.z), _hex(s.t)] for s in solutions],
        "rejected": [[_hex(r.z), r.reason] for r in rejected],
    }


def test_roots_match_corpus():
    records = json.loads(CORPUS.read_text())
    cases = corpus_cases()
    assert len(records) == len(cases)
    for record, case in zip(records, cases):
        assert solve_case(*case) == record


def print_diff(old: list[dict], new: list[dict]) -> bool:
    """Per field, the records of new that differ from old and the largest ulp distance.

    Returns whether any record differs.
    """
    for i, name in enumerate("xyzt"):
        changed, worst = 0, 0
        for a, b in zip(old, new):
            pairs = [(u[i], v[i]) for u, v in zip(a["solutions"], b["solutions"])
                     if u[i] != v[i]]
            changed += bool(pairs)
            for u, v in pairs:
                worst = max(worst, ulp_distance(float.fromhex(u), float.fromhex(v)))
        print(f"{name}: {changed} of {len(new)} records differ, largest {worst} ulps")
    counts = sum(len(a["solutions"]) != len(b["solutions"]) for a, b in zip(old, new))
    print(f"count: {counts} of {len(new)} records differ")
    rejected = sum(a["rejected"] != b["rejected"] for a, b in zip(old, new))
    print(f"rejected: {rejected} of {len(new)} records differ")
    if len(old) != len(new):
        print(f"records: {len(old)} in the corpus, {len(new)} cases")
    return old != new


if __name__ == "__main__":
    records = [solve_case(*case) for case in corpus_cases()]
    if "--diff" in sys.argv[1:]:
        sys.exit(1 if print_diff(json.loads(CORPUS.read_text()), records) else 0)
    else:
        lines = [json.dumps(r) for r in records]
        CORPUS.write_text("[\n" + ",\n".join(lines) + "\n]\n")
        print(f"wrote {len(lines)} records to {CORPUS}")
