"""Command-line interface.

Subcommands: solve (one parameter point), sweep (theta grid to CSV/SVG),
count (closed-form solution tallies), verify (finite-volume consistency
oracle), plot (CSV to SVG).  Exit codes: 0 success, 1 internal failure or
failed verification, 2 parameter regime violation, 3 oracle ball over its
vertex budget, 64 usage error, 74 file I/O error.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import shutil
import sys
from dataclasses import asdict

from .catalog import total_lower_bound
from .errors import (
    BudgetError,
    GibbsTreeError,
    HypothesisError,
    ParameterError,
    SelectorSyntaxError,
)
from .model import ModelParams
from .oracle import build_tree, check_consistency
from .sweep import (
    parse_set_spec,
    read_csv,
    rows_for,
    run_sweep,
    solve_set,  # noqa: F401  unused; perfbench/tracing.py hooks it here
    solve_sets,
    write_bifurcation_svg,
    write_csv,
)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_REGIME = 2
EXIT_BUDGET = 3
EXIT_USAGE = 64
EXIT_IO = 74

class _Parser(argparse.ArgumentParser):
    """argparse with BSD-style usage exit code instead of the default 2."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.format_usage()}{self.prog}: error: {message}\n")


def _add_model_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--q", type=int, required=True, help="number of spin states")
    p.add_argument("--k", type=int, required=True, help="tree branching order")
    p.add_argument("--theta", type=float, default=None,
                   help="interaction weight exp(J/T), in (0, 1)")
    p.add_argument("--coupling", type=float, default=None,
                   help="coupling constant J (alternative to --theta, with --temp)")
    p.add_argument("--temp", type=float, default=None,
                   help="temperature T > 0 (used with --coupling)")


def _params_from(args, parser: argparse.ArgumentParser) -> ModelParams:
    has_theta = args.theta is not None
    has_pair = args.coupling is not None or args.temp is not None
    if has_theta and has_pair:
        parser.error("--theta conflicts with --coupling/--temp")
    if has_theta:
        return ModelParams(q=args.q, k=args.k, theta=args.theta)
    if args.coupling is None or args.temp is None:
        parser.error("provide either --theta or both --coupling and --temp")
    if args.temp <= 0.0:
        parser.error("--temp must be positive")
    try:
        theta = math.exp(args.coupling / args.temp)
    except OverflowError:
        raise ParameterError(f"theta = exp(coupling/temp) overflows for --coupling "
                             f"{args.coupling!r} --temp {args.temp!r}") from None
    return ModelParams(q=args.q, k=args.k, theta=theta)


def _print_rows(rows) -> None:
    print(f"{'set':<10} {'idx':>3} {'x':>18} {'y':>18} "
          f"{'z':>14} {'t':>14} {'class':<5} {'residual':>10}")
    for r in rows:
        z = f"{r.z:.8g}" if r.z is not None else "-"
        t = f"{r.t:.8g}" if r.t is not None else "-"
        print(f"{r.set_kind + ':' + str(r.m):<10} {r.sol_index:>3} "
              f"{r.x:>18.12g} {r.y:>18.12g} {z:>14} {t:>14} "
              f"{r.classification:<5} {r.residual_full:>10.2e}")


def cmd_solve(args, parser) -> int:
    params = _params_from(args, parser)
    rows = rows_for(params, parse_set_spec(args.set, args.q))
    if args.out:
        write_csv(rows, args.out)
    if args.json:
        # vars keeps SweepRow's field order and, unlike asdict, copies nothing
        print(json.dumps([vars(r) for r in rows], indent=2))
    else:
        print(f"q={params.q} k={params.k} theta={params.theta:.12g}")
        _print_rows(rows)
        print(f"{len(rows)} solution(s)")
    return EXIT_OK


def cmd_sweep(args, parser) -> int:
    set_ids = parse_set_spec(args.set, args.q)
    rows = run_sweep(args.q, args.k, args.theta_min, args.theta_max,
                     args.steps, set_ids)
    write_csv(rows, args.out)
    if args.svg:
        write_bifurcation_svg(rows, args.svg)
    if args.json:
        print(json.dumps({"rows": len(rows), "out": args.out, "svg": args.svg}))
    else:
        print(f"wrote {len(rows)} rows to {args.out}")
        if args.svg:
            print(f"wrote plot to {args.svg}")
    return EXIT_OK


def _refuse_unprintable_tallies(q: int, total: int | None = None) -> None:
    """ParameterError if the tallies of count --q pass Python's int-to-str digit limit.

    The total, the largest tally, exceeds 3^q / (q+1): its mirror part is
    twice the largest coefficient of (1+x+x^2)^q, less 2.  So without the
    total, a q whose bound passes the limit is refused before any tally is
    computed; with it, the check is exact.  The limit is left as it is.
    """
    limit = sys.get_int_max_str_digits()
    if not limit or q < 3:
        return
    if total is None:
        too_long = q * math.log10(3) - math.log10(q + 1) >= limit
    else:
        too_long = total >= 10 ** limit
    if too_long:
        raise ParameterError(f"the tallies for q={q} have more than {limit} digits, "
                             "past Python's int-to-str limit")


def cmd_count(args, parser) -> int:
    _refuse_unprintable_tallies(args.q)
    report = total_lower_bound(args.q)
    _refuse_unprintable_tallies(args.q, report.total)
    if args.json:
        print(json.dumps(asdict(report), indent=2))
        return EXIT_OK
    print(f"q={report.q}")
    for m, c in sorted(report.per_im.items()):
        print(f"  im m={m}: {c}")
    for m, c in sorted(report.per_im_prime.items()):
        print(f"  imprime m={m}: {c}")
    print(f"total: {report.total}")
    return EXIT_OK


def cmd_verify(args, parser) -> int:
    params = _params_from(args, parser)
    tree = build_tree(params.k, args.depth)
    all_passed = True
    results = []
    set_ids = parse_set_spec(args.set, args.q)
    for set_id, solutions in zip(set_ids, solve_sets(params, set_ids)):
        for i, sol in enumerate(solutions):
            report = check_consistency(tree, params, sol.full_field, tol=args.tol)
            results.append((set_id.label(), i, report))
            all_passed &= report.passed
    if args.json:
        print(json.dumps([{
            "set": label, "sol_index": i, "passed": rep.passed,
            "max_relative_error": rep.max_relative_error,
            "pairs_checked": rep.pairs_checked, "depth": rep.n,
        } for label, i, rep in results], indent=2))
    else:
        for label, i, rep in results:
            status = "PASS" if rep.passed else "FAIL"
            print(f"{label} sol {i}: {status} "
                  f"(max relative error {rep.max_relative_error:.3e}, "
                  f"all configurations, depth {rep.n})")
        print(f"{len(results)} solution(s) checked")
    return EXIT_OK if all_passed else EXIT_INTERNAL


def cmd_plot(args, parser) -> int:
    rows = read_csv(args.csv)
    write_bifurcation_svg(rows, args.out)
    if args.json:
        print(json.dumps({"rows": len(rows), "out": args.out}))
    else:
        print(f"wrote plot to {args.out}")
    return EXIT_OK


def _solve_options(p: argparse.ArgumentParser) -> None:
    _add_model_args(p)
    p.add_argument("--set", default="all",
                   help="invariant set: im:<m>, imprime:<m>, or all")
    p.add_argument("--out", default=None, help="also write solutions as CSV")
    p.add_argument("--json", action="store_true", help="machine-readable output")


def _sweep_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--theta-min", type=float, required=True)
    p.add_argument("--theta-max", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--set", default="all")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--svg", default=None, help="optional SVG plot path")
    p.add_argument("--json", action="store_true")


def _count_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--json", action="store_true")


def _verify_options(p: argparse.ArgumentParser) -> None:
    _add_model_args(p)
    p.add_argument("--set", default="all")
    p.add_argument("--depth", type=int, default=2,
                   help="ball depth for the consistency check (default 2); "
                        "depth 1 fails every period-two solution by design, "
                        "since the root has k+1 children")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--json", action="store_true")


def _plot_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--csv", required=True, help="input CSV path")
    p.add_argument("--out", required=True, help="output SVG path")
    p.add_argument("--json", action="store_true")


# name, help line, options, handler
_COMMANDS = (
    ("solve", "solve one parameter point", _solve_options, cmd_solve),
    ("sweep", "solve across a theta grid, write CSV", _sweep_options, cmd_sweep),
    ("count", "closed-form solution tallies", _count_options, cmd_count),
    ("verify", "check solutions against finite-volume sums", _verify_options, cmd_verify),
    ("plot", "render a sweep CSV as SVG", _plot_options, cmd_plot),
)


def build_parser(argv=None) -> _Parser:
    """The parser for argv (default sys.argv[1:]), built for that one call.

    Every command is registered with its help line, so the top-level help,
    usage and "invalid choice" text do not depend on argv.  Only the command
    that argv names (its first token not starting with "-") gets its options,
    its handler and a -h action, since argparse parses no other subcommand.
    The help width is read from the terminal once, not in every formatter.
    """
    if argv is None:
        argv = sys.argv[1:]
    named = next((a for a in argv if not a.startswith("-")), None)
    formatter = functools.partial(argparse.HelpFormatter,
                                  width=shutil.get_terminal_size().columns - 2)
    parser = _Parser(prog="gibbstree",
                     description="Boundary-field solutions of the antiferromagnetic "
                                 "q-state model on a Cayley tree",
                     formatter_class=formatter)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    for name, help_text, add_options, handler in _COMMANDS:
        if name != named:
            sub.add_parser(name, help=help_text, add_help=False)
            continue
        p = sub.add_parser(name, help=help_text, formatter_class=formatter)
        add_options(p)
        p.set_defaults(func=handler, parser=p)
    return parser


def main(argv=None) -> int:
    parser = build_parser(argv)
    try:
        args = parser.parse_args(argv)
        if getattr(args, "func", None) is None:
            parser.print_help()
            return EXIT_USAGE
        return args.func(args, args.parser)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except SelectorSyntaxError as exc:
        print(f"gibbstree: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (HypothesisError, ParameterError) as exc:
        print(f"gibbstree: parameter error: {exc}", file=sys.stderr)
        return EXIT_REGIME
    except BudgetError as exc:
        print(f"gibbstree: budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except OSError as exc:
        print(f"gibbstree: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except GibbsTreeError as exc:
        print(f"gibbstree: error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
