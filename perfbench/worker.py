"""One benchmark process: cold import and set-up, then ops in a closed loop.

Started by run.py with PYTHONPATH pointing at the checkout's src/.  Modes:

  probe    set up only (import, prepare, one warm-up op) and report its time
  measure  set up, then run whole op cycles for about --seconds, untraced
  trace    set up, run each op of a fixed prefix untraced and then traced,
           then the first op traced again to compare its counts

Prints one JSON line on stdout; everything the ops print is captured.
"""
import time

_T0 = time.perf_counter()  # set-up time counts from here, before any import

import argparse
import contextlib
import importlib
import io
import json
import math
import resource
import sys
from pathlib import Path

import mpmath
import numpy as np

import checks
import tracing
import workloads

# a cycle starts only if one as long as the last would end within --seconds;
# past this many times --seconds a run stops even inside a cycle, so a severe
# slowdown still ends the run in time
HARD_STOP_FACTOR = 4
TRACE_OPS = {"solve_mixed": 4, "sweep_block": 10, "verify_d2": 2}
# share of traced op wall time the module self times may leave unexplained
ACCOUNTING_SHARE = 0.02
# After each op, one calibration sample per this much op time (at least
# one); after set-up, this many.  See calibrate().
CAL_EVERY_S = 0.5
CAL_SETUP_SAMPLES = 20


def calibrate() -> float:
    """Seconds taken by a fixed kernel of the kinds of work the program does.

    The machine's speed drifts by tens of percent over minutes, and by as
    much between runs.  The kernel does mpmath arithmetic at 40 digits,
    pure-Python float arithmetic, and the numpy exp, list and fsum pass the
    oracle makes per configuration; it is timed next to the ops, so run.py
    can state op times at a reference speed.  It touches nothing of the
    program.
    """
    t = time.perf_counter()
    with mpmath.workdps(40):
        x = mpmath.mpf(3) / 7
        for _ in range(1000):
            x = (x * x + 1) / (x + 2)
    s = 0.0
    for i in range(30000):
        s += (i * 0.5) ** 0.5 / (1.0 + i)
    math.fsum(np.exp(np.linspace(-3.0, 0.0, 50000)).tolist())
    return time.perf_counter() - t


def run_op(main, op) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(list(op.argv))
    return rc, out.getvalue(), err.getvalue()


def timed_op(main, op) -> tuple[float, dict]:
    """Run one op; its wall seconds and check outcome."""
    t = time.perf_counter()
    rc, stdout, stderr = run_op(main, op)
    seconds = time.perf_counter() - t
    return seconds, outcome(op, rc, stdout, stderr)


def outcome(op, rc: int, stdout: str, stderr: str) -> dict:
    failures = checks.check(op, rc, stdout, stderr)
    return {
        "failed": bool(failures),
        "known_defect": checks.is_known_defect(op, failures),
        "count_misses": sum(1 for f in failures if f.kind == "count"),
        "failures": [f"{f.kind}: {f.detail}" for f in failures],
        "argv": list(op.argv),
    }


def measure(main, stream, seconds: float) -> dict:
    times, outcomes, cal = [], [], []
    start = time.perf_counter()
    last_cycle = 0.0
    for cycle in stream:
        elapsed = time.perf_counter() - start
        if times and elapsed + last_cycle > seconds:
            break
        c0 = time.perf_counter()
        for op in cycle:
            if time.perf_counter() - start > HARD_STOP_FACTOR * seconds:
                break
            t, o = timed_op(main, op)
            times.append(t)
            outcomes.append(o)
            cal += [calibrate() for _ in range(max(1, round(t / CAL_EVERY_S)))]
        last_cycle = time.perf_counter() - c0
    wall = time.perf_counter() - start - sum(cal)
    return {"op_s": times, "wall_s": wall, "outcomes": outcomes, "cal_s": cal,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def trace(main, ops, trace_path: Path) -> dict:
    # each op runs untraced and then traced, so drift in machine speed
    # mostly cancels from the overhead; op 0 is traced once more at the end
    tracer = tracing.Tracer()
    traced_main = tracer.span(tracing.ROOT_SPAN, main)
    untraced_s, traced_s, outcomes, traced_outcomes = [], [], [], []
    for i, op in enumerate(ops + ops[:1]):
        if i < len(ops):
            t, o = timed_op(main, op)
            untraced_s.append(t)
            outcomes.append(o)
        tracer.op = i
        absent = tracer.install()
        try:
            t, o = timed_op(traced_main, op)
        finally:
            tracer.uninstall()
        outcomes.append(o)
        if i < len(ops):
            traced_s.append(t)
            traced_outcomes.append(o)
    layer = tracer.summarize(range(len(ops)))
    first, repeat = tracer.op_counts(0), tracer.op_counts(len(ops))
    unaccounted = 1.0 - layer.pop("trace.accounted_s") / sum(traced_s)
    layer.update({
        "solver.count_misses": sum(o["count_misses"] for o in traced_outcomes),
        "trace.ops": len(ops),
        "trace.overhead_share": 1.0 - sum(untraced_s) / sum(traced_s),
        "trace.unaccounted_share": unaccounted,
        "failed_share": sum(o["failed"] for o in traced_outcomes) / len(ops),
    })
    trace_path.write_text(json.dumps({
        "spans": tracer.spans,
        "leaves": [[p, name, n, ns] for (p, name), (n, ns) in tracer.leaves.items()],
        "counters": {str(k): v for k, v in tracer.counters.items()},
        "absent": absent,
    }))
    return {
        "outcomes": outcomes,
        "per_layer": layer,
        "absent": absent,
        "accounting_ok": abs(unaccounted) <= ACCOUNTING_SHARE,
        "repeat_ok": first == repeat,
        "repeat_diff": {k: [first.get(k), repeat.get(k)]
                        for k in sorted(set(first) | set(repeat))
                        if first.get(k) != repeat.get(k)},
        "trace_file": str(trace_path),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", required=True, choices=("probe", "measure", "trace"))
    p.add_argument("--out-dir", type=Path, required=True)
    args = p.parse_args(argv)

    cli = importlib.import_module("gibbstree.cli")
    args.out_dir.mkdir(parents=True, exist_ok=True)
    stream = workloads.cycles(args.workload, args.seed, args.out_dir)
    warm = workloads.warmup_op(args.workload, args.out_dir)
    _, warm_outcome = timed_op(cli.main, warm)
    result = {"setup_s": time.perf_counter() - _T0, "warmup": warm_outcome,
              "setup_cal_s": [calibrate() for _ in range(CAL_SETUP_SAMPLES)]}
    if args.mode == "measure":
        result.update(measure(cli.main, stream, args.seconds))
    elif args.mode == "trace":
        ops = next(stream)[:TRACE_OPS[args.workload]]
        path = args.out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        result.update(trace(cli.main, ops, path))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
