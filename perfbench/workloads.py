"""Seeded generators for the benchmark's three workloads.

Each workload is an endless stream of cycles.  A cycle is a list of ops; an
op is one argv for ``gibbstree.cli.main`` plus the facts the output checker
needs (the program sees only the argv).  A cycle holds a fixed mix of op
kinds in a seeded order with seeded parameters, so a run made of whole
cycles does the same kinds of work whatever the seed.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("solve_mixed", "sweep_block", "verify_d2")
DEFAULT_SEED = 1
HELDOUT_SEED = 7919

# the paper's regime: k >= 3, 3 <= q <= k; 15 (q, k) pairs
QK_PAIRS = tuple((q, k) for k in range(3, 8) for q in range(3, k + 1))
# one solve_mixed cycle: one op per (q, k) pair; 7 below theta_cr, 5 above it
# and 3 (one op in five) in the band theta_cr * (1 +- 10^u), u in [-10, -8],
# where the grid scans are known to lose roots
SOLVE_REGIMES = ("below",) * 7 + ("above",) * 5 + ("near",) * 3
SWEEP_STEPS = 9
SWEEP_OPS_PER_CYCLE = 10
# sweep grids keep this relative distance from theta_cr; the near-critical
# band is solve_mixed's to exercise
SWEEP_MIN_REL_GAP = 0.02
VERIFY_SETS = ("im:1", "im:2", "imprime:1")
VERIFY_DEPTH = 2


def theta_critical(q: int, k: int) -> float:
    """(k - q + 1) / (k + 1), below which each invariant set has >= 3 solutions."""
    return (k - q + 1) / (k + 1)


@dataclass(frozen=True)
class Op:
    """One ``cli.main`` call and what its output must satisfy."""

    kind: str                      # "solve", "sweep" or "verify"
    argv: tuple[str, ...]
    q: int
    k: int
    thetas: tuple[float, ...]      # every theta the op solves at
    sets: tuple[str, ...]          # invariant set labels the op covers
    near_critical: bool = False
    out: str | None = None         # sweep CSV path
    svg: str | None = None         # sweep SVG path


def all_sets(q: int) -> tuple[str, ...]:
    """Labels selected by ``--set all``: im:1..q-1 and imprime:1..(q-1)//2."""
    return (tuple(f"im:{m}" for m in range(1, q))
            + tuple(f"imprime:{m}" for m in range(1, (q - 1) // 2 + 1)))


def solve_op(q: int, k: int, theta: float, near_critical: bool = False) -> Op:
    argv = ("solve", "--q", str(q), "--k", str(k), "--theta", repr(theta),
            "--set", "all", "--json")
    return Op("solve", argv, q, k, (theta,), all_sets(q), near_critical)


def sweep_op(q: int, k: int, m: int, theta_min: float, theta_max: float,
             steps: int, out_dir: Path, tag: str) -> Op:
    out = str(out_dir / f"{tag}.csv")
    svg = str(out_dir / f"{tag}.svg")
    argv = ("sweep", "--q", str(q), "--k", str(k),
            "--theta-min", repr(theta_min), "--theta-max", repr(theta_max),
            "--steps", str(steps), "--set", f"im:{m}",
            "--out", out, "--svg", svg, "--json")
    return Op("sweep", argv, q, k, sweep_grid(theta_min, theta_max, steps),
              (f"im:{m}",), out=out, svg=svg)


def verify_op(set_label: str, theta: float) -> Op:
    argv = ("verify", "--q", "3", "--k", "3", "--depth", str(VERIFY_DEPTH),
            "--set", set_label, "--theta", repr(theta), "--json")
    return Op("verify", argv, 3, 3, (theta,), (set_label,))


def sweep_grid(theta_min: float, theta_max: float, steps: int) -> tuple[float, ...]:
    """The theta values ``run_sweep`` visits: numpy.linspace, as it uses."""
    return tuple(float(t) for t in np.linspace(theta_min, theta_max, steps))


def _solve_cycle(rng: random.Random) -> list[Op]:
    pairs = list(QK_PAIRS)
    regimes = list(SOLVE_REGIMES)
    rng.shuffle(pairs)
    rng.shuffle(regimes)
    ops = []
    for (q, k), regime in zip(pairs, regimes):
        tc = theta_critical(q, k)
        if regime == "below":
            ops.append(solve_op(q, k, tc * rng.uniform(0.1, 0.9)))
        elif regime == "above":
            ops.append(solve_op(q, k, tc + (1.0 - tc) * rng.uniform(0.1, 0.9)))
        else:
            rel = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-10.0, -8.0)
            ops.append(solve_op(q, k, tc * (1.0 + rel), near_critical=True))
    return ops


_BLOCK_TRIPLES = tuple((q, k, m) for (q, k) in QK_PAIRS for m in range(1, q))


def _sweep_cycle(rng: random.Random, out_dir: Path) -> list[Op]:
    ops = []
    for i in range(SWEEP_OPS_PER_CYCLE):
        q, k, m = rng.choice(_BLOCK_TRIPLES)
        tc = theta_critical(q, k)
        while True:
            lo = tc * rng.uniform(0.3, 0.8)
            hi = tc + (1.0 - tc) * rng.uniform(0.1, 0.6)
            grid = sweep_grid(lo, hi, SWEEP_STEPS)
            if all(abs(t / tc - 1.0) >= SWEEP_MIN_REL_GAP for t in grid):
                break
        # two files per op slot, reused every cycle, keep disk use bounded
        ops.append(sweep_op(q, k, m, lo, hi, SWEEP_STEPS, out_dir, f"sweep{i}"))
    return ops


def _verify_cycle(rng: random.Random) -> list[Op]:
    tc = theta_critical(3, 3)
    ops = [verify_op(s, rng.uniform(0.05, tc - 0.01)) for s in VERIFY_SETS]
    ops += [verify_op(s, rng.uniform(tc + 0.01, 0.9)) for s in VERIFY_SETS]
    rng.shuffle(ops)
    return ops


def cycles(workload: str, seed: int, out_dir: Path):
    """Endless iterator of op cycles; the same seed gives the same ops."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(seed)
    while True:
        if workload == "solve_mixed":
            yield _solve_cycle(rng)
        elif workload == "sweep_block":
            yield _sweep_cycle(rng, out_dir)
        else:
            yield _verify_cycle(rng)


def warmup_op(workload: str, out_dir: Path) -> Op:
    """A fixed, cheap op of the workload, run untimed during set-up.

    It does not depend on the seed, so set-up time does not either.
    """
    if workload == "solve_mixed":
        return solve_op(3, 3, 0.5)
    if workload == "sweep_block":
        return sweep_op(3, 3, 1, 0.1, 0.6, SWEEP_STEPS, out_dir, "warmup")
    if workload == "verify_d2":
        return verify_op("im:2", 0.5)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
