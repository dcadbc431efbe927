"""Regression check: the exact bytes of `gibbstree solve --set all --json`.

solve_golden.json holds, for a few parameter points, the argv and the
stdout of one `solve --set all --json` call.  The points cover q = 3 to 7,
both sides of theta_cr, theta_cr itself (dyadic at (3, 3) and (7, 7), where
the unit root is triple) and theta_cr (1 +- 1e-9).  Every block set and its
reciprocal partner im:q-m is in each output, so the file pins the rows of
all of them, their order, classification and residual.

Regenerate the file (only when a change is meant to move an output) with

    PYTHONPATH=src python tests/test_solve_golden.py

and add --diff to write nothing and print which outputs would change and,
for each of x, y, z, t and residual_full, how many rows would change with
the largest ulp and absolute distance (an ulp count from or to 0.0 spans
every smaller float), then the changed classification cells and row
counts; it exits 1 if any output would change, else 0.
"""
import contextlib
import io
import json
import sys
from pathlib import Path

from conftest import ulp_distance
from gibbstree import theta_critical
from gibbstree.cli import main

GOLDEN = Path(__file__).with_name("solve_golden.json")

POINTS = (
    (3, 3, 0.1),
    (3, 3, theta_critical(3, 3)),
    (4, 4, 0.1),
    (4, 5, theta_critical(4, 5) * (1.0 - 1e-9)),
    (5, 6, theta_critical(5, 6)),
    (5, 5, 0.5),
    (6, 7, 0.05),
    (7, 7, theta_critical(7, 7)),
    (7, 7, theta_critical(7, 7) * (1.0 + 1e-9)),
)


def argv_for(q: int, k: int, theta: float) -> list[str]:
    return ["solve", "--q", str(q), "--k", str(k), "--theta", repr(theta),
            "--set", "all", "--json"]


def run_solve(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def records() -> list[dict]:
    out = []
    for point in POINTS:
        argv = argv_for(*point)
        code, stdout = run_solve(argv)
        out.append({"argv": argv, "exit": code, "stdout": stdout})
    return out


def test_solve_json_bytes_match_golden():
    golden = json.loads(GOLDEN.read_text())
    assert [g["argv"] for g in golden] == [argv_for(*p) for p in POINTS]
    for g in golden:
        assert run_solve(g["argv"]) == (g["exit"], g["stdout"])


def print_diff(old: list[dict], new: list[dict]) -> bool:
    """Per output and per row field, what would change from old to new.

    Rows are compared in order within each output; the row counts show
    where that order shifts.  Returns whether any output differs.
    """
    changed = [" ".join(n["argv"]) for o, n in zip(old, new) if o != n]
    for line in changed:
        print(f"would change: {line}")
    print(f"{len(changed)} of {len(new)} outputs would change")
    rows = [(json.loads(o["stdout"]), json.loads(n["stdout"])) for o, n in zip(old, new)]
    pairs = [pair for a, b in rows for pair in zip(a, b)]
    for name in ("x", "y", "z", "t", "residual_full"):
        moved = [(u[name], v[name]) for u, v in pairs
                 if u[name] != v[name] and None not in (u[name], v[name])]
        worst = max((ulp_distance(u, v) for u, v in moved), default=0)
        delta = max((abs(u - v) for u, v in moved), default=0.0)
        print(f"{name}: {len(moved)} of {len(pairs)} rows differ, "
              f"largest {worst} ulps ({delta:.3g} absolute)")
    labels = sum(u["classification"] != v["classification"] for u, v in pairs)
    print(f"classification: {labels} of {len(pairs)} rows differ")
    counts = sum(len(a) != len(b) for a, b in rows)
    print(f"row count: {counts} of {len(new)} outputs differ")
    if len(old) != len(new):
        print(f"outputs: {len(old)} in the file, {len(new)} points")
    return bool(changed) or len(old) != len(new)


if __name__ == "__main__":
    new = records()
    if "--diff" in sys.argv[1:]:
        sys.exit(1 if print_diff(json.loads(GOLDEN.read_text()), new) else 0)
    GOLDEN.write_text(json.dumps(new, indent=1) + "\n")
    print(f"wrote {len(new)} outputs to {GOLDEN}")
