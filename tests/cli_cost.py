"""Per-call cost of the command line's argument parsing: build_parser plus parse_args.

For each command it starts fresh interpreters that import gibbstree.cli and
then time build_parser + parse_args on one argv of that command: the first
call (what one shell command pays beyond interpreter start-up and imports)
and the median of a warm loop of further calls (what each cli.main call of
an in-process loop pays).  It prints, per source tree and command, the
median over the runs of both.  A whole-subprocess wall time (about 90 ms)
is too noisy to resolve a fraction of a millisecond, so both are timed
inside the interpreter.  pytest does not collect this file; run it from the
repository root with

    python tests/cli_cost.py [--runs N] [--loops N] [SRC ...]

SRC is a directory holding the gibbstree package (default: this checkout's
src).  Given several, the runs alternate between them, so two trees are
compared under the same machine load.  A build_parser that takes no argv is
called without one.
"""
import argparse
import os
import statistics
import subprocess
import sys
from pathlib import Path

ARGV = {
    "solve": ["solve", "--q", "3", "--k", "3", "--theta", "0.1", "--set", "all", "--json"],
    "sweep": ["sweep", "--q", "3", "--k", "4", "--theta-min", "0.1", "--theta-max", "0.5",
              "--steps", "9", "--set", "im:1", "--out", "s.csv", "--svg", "s.svg", "--json"],
    "count": ["count", "--q", "7", "--json"],
    "verify": ["verify", "--q", "3", "--k", "3", "--theta", "0.1", "--set", "im:1",
               "--depth", "2", "--json"],
    "plot": ["plot", "--csv", "s.csv", "--out", "p.svg", "--json"],
}

# Runs in the fresh interpreter; prints the first call's time and the warm median in s.
CHILD = """
import sys, time
from gibbstree import cli
loops, argv = int(sys.argv[1]), sys.argv[2:]
build = cli.build_parser
takes_argv = build.__code__.co_argcount > 0
def call():
    start = time.perf_counter()
    (build(argv) if takes_argv else build()).parse_args(argv)
    return time.perf_counter() - start
first = call()
print(first, sorted(call() for _ in range(loops))[loops // 2])
"""


def measure(src: Path, command: str, loops: int) -> tuple[float, float]:
    """(first call, warm median) in seconds, in one fresh interpreter importing from src."""
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", CHILD, str(loops), *ARGV[command]],
                          env=env, capture_output=True, text=True, check=True, timeout=120)
    first, warm = proc.stdout.split()
    return float(first), float(warm)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("src", nargs="*", type=Path,
                   default=[Path(__file__).resolve().parent.parent / "src"])
    p.add_argument("--runs", type=int, default=15, help="fresh interpreters per command and tree")
    p.add_argument("--loops", type=int, default=200, help="warm calls per interpreter")
    args = p.parse_args()
    times = {(src, cmd): [] for src in args.src for cmd in ARGV}
    for _ in range(args.runs):
        for cmd in ARGV:
            for src in args.src:
                times[src, cmd].append(measure(src, cmd, args.loops))
    print(f"medians of {args.runs} fresh interpreters per row, {args.loops} warm calls each")
    print(f"{'command':<8} {'warm (us)':>10} {'first (us)':>11}  source")
    for (src, cmd), runs in times.items():
        first = statistics.median(r[0] for r in runs)
        warm = statistics.median(r[1] for r in runs)
        print(f"{cmd:<8} {warm * 1e6:>10.0f} {first * 1e6:>11.0f}  {src}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
