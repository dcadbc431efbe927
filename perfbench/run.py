"""gibbstree benchmark: one workload, end-to-end or per-module metrics.

    python3 perfbench/run.py --workload solve_mixed --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The program runs from the checkout's src/
in fresh single-threaded processes started one at a time: two set-up probes,
then the measuring worker (see worker.py).  With --trace 0 it prints the
end-to-end metrics, with --trace 1 the per-module metrics of a traced run and
the tracing overhead.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.

``failed`` counts every op whose exit code or output broke a check.
``correct`` is false when any failure is of another kind than the two
documented program defects (see checks.py), or when the trace does not
account for the traced time or repeat its counts.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 2        # set-up is measured in these and in the worker: median of 3
TOTAL_LIMIT_S = 170.0   # the whole run, children included
TAIL_BEYOND = 10        # the tail percentile keeps this many samples above it
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# Seconds the calibration kernel (worker.calibrate) takes at the reference
# speed, about its median on the 2-CPU machine baseline.json was measured on.
# Reported times are scaled by CAL_REF_S / (mean kernel time in the run).
CAL_REF_S = 0.017
END_TO_END_UNITS = {"setup_s": "s", "op_p50_s": "s", "op_tail_s": "s",
                    "ops_per_s": "1/s", "peak_rss_mb": "MiB"}


class BenchError(Exception):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("GIBBS_TREE_MAX_ENUM", None)   # the oracle's default budget applies
    env.update({v: "1" for v in THREAD_VARS})
    env.update(PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0")
    return env


def run_worker(args, mode: str, deadline: float) -> dict:
    cmd = [sys.executable, "-B", str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode,
           "--out-dir", str(OUT / f"{args.workload}-seed{args.seed}")]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left for the {mode} worker")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker did not finish within {timeout:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def tail(samples: list[float]) -> tuple[float, str]:
    """Highest percentile with TAIL_BEYOND samples above it, and its label.

    With fewer than 2 * TAIL_BEYOND samples that percentile would sit below
    the median; the interpolated 90th percentile is reported instead, which
    rests on the two slowest ops rather than on the single slowest.
    """
    s = sorted(samples)
    n = len(s)
    if n < 2 * TAIL_BEYOND:
        p90 = statistics.quantiles(s, n=10, method="inclusive")[-1] if n > 1 else s[0]
        return p90, f"p90 of {n} ops, interpolated: fewer than {2 * TAIL_BEYOND} ops"
    return s[n - TAIL_BEYOND - 1], f"p{100.0 * (n - TAIL_BEYOND) / n:.1f} of {n} ops"


def speed(cal_s: list[float]) -> float:
    """Machine speed during the samples, relative to the reference (1 = reference)."""
    return CAL_REF_S / statistics.fmean(cal_s)


def end_to_end(res: dict, setups: list[tuple[float, float]]) -> tuple[dict, list[str]]:
    """Metrics at reference speed; setups holds (seconds, speed) per cold start.

    All ops of the run are scaled by the speed over the whole run: scaling each
    op by the few samples next to it proved noisier.
    """
    raw_s = res["op_s"]
    v = speed(res["cal_s"])
    op_s = [t * v for t in raw_s]
    tail_s, tail_label = tail(op_s)
    raw = {
        "setup_s": statistics.median(t for t, _ in setups),
        "op_p50_s": statistics.median(raw_s),
        "op_tail_s": tail(raw_s)[0],
        "ops_per_s": len(raw_s) / res["wall_s"],
        "peak_rss_mb": res["peak_rss_mb"],
    }
    values = {
        "setup_s": statistics.median(t * sp for t, sp in setups),
        "op_p50_s": statistics.median(op_s),
        "op_tail_s": tail_s,
        "ops_per_s": raw["ops_per_s"] / v,
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    notes = {
        "setup_s": f"median of {len(setups)} cold starts; raw "
                   + ", ".join(f"{t:.3f} s at speed {sp:.3f}" for t, sp in setups),
        "op_p50_s": f"median of {len(op_s)} ops",
        "op_tail_s": tail_label,
        "ops_per_s": f"{len(op_s)} ops in {res['wall_s']:.2f} s, one client, closed loop",
        "peak_rss_mb": "max resident set of the worker",
    }
    lines = [f"machine speed during the ops: {v:.3f} of reference "
             f"({len(res['cal_s'])} calibration samples); times below are scaled to it"]
    lines += [f"{name:<14} {values[name]:>12.6g} {unit:<4} (raw {raw[name]:.6g}; {notes[name]})"
              for name, unit in END_TO_END_UNITS.items()]
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END_UNITS.items()}
    return metrics, lines


def per_layer(res: dict) -> tuple[dict, list[str]]:
    layer = res["per_layer"]
    metrics, lines = {}, []
    for name, unit, _ in tracing.PER_LAYER:
        if name in layer:
            metrics[name] = {"value": layer[name], "unit": unit}
            lines.append(f"{name:<38} {layer[name]:>14.6g} {unit}")
        else:
            lines.append(f"{name:<38} {'absent':>14}")
    lines.append(f"absent hooks: {', '.join(res['absent']) or 'none'}")
    lines.append(f"tracing overhead: traced ops/s {layer['trace.overhead_share']:.1%} below untraced")
    lines.append(f"accounting: self times leave {layer['trace.unaccounted_share']:.2%} "
                 f"of traced op time unexplained ({'ok' if res['accounting_ok'] else 'FAILED'})")
    lines.append("repeat of op 0: counts " + ("identical" if res["repeat_ok"]
                                              else f"DIFFER {res['repeat_diff']}"))
    lines.append(f"spans written to {res['trace_file']}")
    return metrics, lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if not (SRC / "gibbstree" / "cli.py").is_file():
        print(f"perfbench: no gibbstree sources under {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TOTAL_LIMIT_S
    try:
        runs = [run_worker(args, "probe", deadline) for _ in range(SETUP_PROBES)]
        res = run_worker(args, "trace" if args.trace else "measure", deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    setups = [(r["setup_s"], speed(r["setup_cal_s"])) for r in runs + [res]]

    outcomes = res["outcomes"]
    failed = [o for o in outcomes if o["failed"]]
    unexpected = [o for o in failed if not o["known_defect"]]
    if res["warmup"]["failed"]:
        unexpected.append(res["warmup"])
    correct = not unexpected
    if args.trace:
        metrics, lines = per_layer(res)
        correct = correct and res["accounting_ok"] and res["repeat_ok"]
    else:
        metrics, lines = end_to_end(res, setups)

    import mpmath
    import numpy
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} python={sys.version.split()[0]} numpy={numpy.__version__} "
          f"mpmath={mpmath.__version__} nproc={os.cpu_count()}")
    for line in lines:
        print(line)
    known = sum(o["known_defect"] for o in failed)
    print(f"failed_share   {len(failed) / len(outcomes):.4f} ({len(failed)} of "
          f"{len(outcomes)} ops; {known} of them the documented defects in checks.py)")
    for o in unexpected:
        print(f"UNEXPECTED FAILURE {' '.join(o['argv'])}: {'; '.join(o['failures'])}")
    print(json.dumps({"correct": correct, "attempted": len(outcomes),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
