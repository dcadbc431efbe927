"""Per-module spans for the traced benchmark run, recorded from outside.

Hooks replace a function at the name its caller looks up (for example
``gibbstree.solver.im_prime_poly``, which the solver's closures call), so the
library itself is not edited.  A span records its name, parent, start, end and
the time its children cover; self time is the rest.  Functions called
thousands of times per op are leaves: they get no span of their own, only a
call count and total time per parent span.  Everything stays in memory until
the run ends.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import os
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

SPAN, LEAF = "span", "leaf"


def _brackets(args, result):
    return {"solver.brackets": len(result)}


def _block_roots(args, result):
    return {"solver.roots_returned": len(result)}


def _mirror_roots(args, result):
    solutions, rejected = result
    return {"solver.roots_returned": len(solutions), "solver.rejected_roots": len(rejected)}


def _enumeration(args, result):
    # check_consistency(tree, params, field, ...): q^b boundary terms summed
    # for each configuration, each term an int8 row of b spins compared
    tree, params = args[0], args[1]
    b = len(tree.boundary())
    terms = params.q ** b * result.pairs_checked
    return {"oracle.enum_terms": terms, "oracle.enum_bytes_computed": terms * b}


def _file_bytes(name):
    def measure(args, result):
        return {name: os.path.getsize(args[1])}
    return measure


@dataclass(frozen=True)
class Hook:
    module: str                 # module whose global the caller looks up
    attr: str
    name: str                   # metric prefix: <layer module>.<function>
    kind: str = SPAN
    measure: Callable | None = None   # (args, result) -> {counter: value}
    counters: tuple[str, ...] = ()    # every key measure can return


HOOKS = (
    Hook("gibbstree.solver", "im_prime_poly", "invariants.im_prime_poly", LEAF),
    Hook("gibbstree.solver", "im_prime_poly_mp", "invariants.im_prime_poly_mp", LEAF),
    Hook("gibbstree.solver", "two_step_map", "invariants.two_step_map", LEAF),
    Hook("gibbstree.solver", "scan_sign_changes", "solver.scan_sign_changes",
         measure=_brackets, counters=("solver.brackets",)),
    Hook("gibbstree.solver", "refine", "solver.refine"),
    Hook("gibbstree.solver", "embed_full", "invariants.embed_full"),
    Hook("gibbstree.invariants", "residual_norm", "model.residual_norm"),
    Hook("gibbstree.sweep", "solve_im", "solver.solve_im",
         measure=_block_roots, counters=("solver.roots_returned",)),
    Hook("gibbstree.sweep", "solve_im_prime", "solver.solve_im_prime",
         measure=_mirror_roots,
         counters=("solver.roots_returned", "solver.rejected_roots")),
    Hook("gibbstree.sweep", "classify", "catalog.classify"),
    Hook("gibbstree.sweep", "solve_set", "sweep.solve_set"),
    Hook("gibbstree.cli", "solve_set", "sweep.solve_set"),
    Hook("gibbstree.cli", "run_sweep", "sweep.run_sweep"),
    Hook("gibbstree.cli", "write_csv", "sweep.write_csv",
         measure=_file_bytes("sweep.write_csv.bytes"), counters=("sweep.write_csv.bytes",)),
    Hook("gibbstree.cli", "write_bifurcation_svg", "sweep.write_bifurcation_svg",
         measure=_file_bytes("sweep.write_bifurcation_svg.bytes"),
         counters=("sweep.write_bifurcation_svg.bytes",)),
    Hook("gibbstree.cli", "build_tree", "oracle.build_tree"),
    Hook("gibbstree.cli", "check_consistency", "oracle.check_consistency",
         measure=_enumeration,
         counters=("oracle.enum_terms", "oracle.enum_bytes_computed")),
    Hook("gibbstree.oracle", "finite_volume_log_weight", "model.finite_volume_log_weight", LEAF),
)
ROOT_SPAN = "cli.main"
SCAN_SPAN = "solver.scan_sign_changes"
SCAN_LEAVES = ("invariants.im_prime_poly", "invariants.two_step_map")

# (name, unit, better): what a traced run reports, in BENCHMARK.json order
PER_LAYER = (
    ("invariants.im_prime_poly.calls", "count", "lower"),
    ("invariants.im_prime_poly.s", "s", "lower"),
    ("invariants.im_prime_poly_mp.calls", "count", "lower"),
    ("invariants.two_step_map.calls", "count", "lower"),
    ("invariants.two_step_map.s", "s", "lower"),
    ("invariants.evals_per_root", "ratio", "lower"),
    ("solver.scan_sign_changes.calls", "count", "lower"),
    ("solver.scan_sign_changes.s", "s", "lower"),
    ("solver.scan_sign_changes.self_s", "s", "lower"),
    ("solver.refine.calls", "count", "lower"),
    ("solver.refine.s", "s", "lower"),
    ("solver.brackets", "count", "higher"),
    ("solver.solve_im.calls", "count", "lower"),
    ("solver.solve_im.s", "s", "lower"),
    ("solver.solve_im.self_s", "s", "lower"),
    ("solver.solve_im_prime.calls", "count", "lower"),
    ("solver.solve_im_prime.s", "s", "lower"),
    ("solver.solve_im_prime.self_s", "s", "lower"),
    ("solver.roots_returned", "count", "higher"),
    ("solver.rejected_roots", "count", "lower"),
    ("solver.count_misses", "count", "lower"),
    ("invariants.embed_full.calls", "count", "lower"),
    ("invariants.embed_full.s", "s", "lower"),
    ("model.residual_norm.calls", "count", "lower"),
    ("model.residual_norm.s", "s", "lower"),
    ("catalog.classify.calls", "count", "lower"),
    ("catalog.classify.s", "s", "lower"),
    ("oracle.check_consistency.calls", "count", "lower"),
    ("oracle.check_consistency.s", "s", "lower"),
    ("oracle.check_consistency.self_s", "s", "lower"),
    ("oracle.build_tree.s", "s", "lower"),
    ("oracle.enum_terms", "count", "lower"),
    ("oracle.enum_bytes_computed", "B", "lower"),
    ("model.finite_volume_log_weight.calls", "count", "lower"),
    ("model.finite_volume_log_weight.s", "s", "lower"),
    ("sweep.solve_set.calls", "count", "lower"),
    ("sweep.solve_set.s", "s", "lower"),
    ("sweep.solve_set.self_s", "s", "lower"),
    ("sweep.run_sweep.s", "s", "lower"),
    ("sweep.write_csv.s", "s", "lower"),
    ("sweep.write_csv.bytes", "B", "lower"),
    ("sweep.write_bifurcation_svg.s", "s", "lower"),
    ("sweep.write_bifurcation_svg.bytes", "B", "lower"),
    ("cli.main.s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.ops", "count", "higher"),
    ("trace.overhead_share", "ratio", "lower"),
    ("trace.unaccounted_share", "ratio", "lower"),
    ("failed_share", "ratio", "lower"),
)


class Tracer:
    """Installs hooks, records spans and leaf totals, and summarizes them.

    Set ``op`` before each op; spans carry it so a summary can select ops.
    """

    def __init__(self) -> None:
        self.op = None
        # finished spans: (op, id, parent id, name, start ns, end ns, child ns)
        self.spans: list[tuple] = []
        self.counters: dict[int, dict[str, int]] = {}       # span id -> counts
        self.leaves: dict[tuple, list[int]] = {}            # (parent id, name) -> [calls, ns]
        self.absent: list[str] = []
        self.installed: dict[str, str] = {ROOT_SPAN: SPAN}  # wrapped name -> kind
        self._stack: list[list] = []                        # open: [id, parent, name, start, child ns]
        self._ids = itertools.count()
        self._saved: list[tuple] = []
        self._declared: dict[str, list[str]] = defaultdict(list)   # counter -> hook names

    def install(self, hooks=HOOKS) -> list[str]:
        """Wrap every hook target that exists; return the absent ones."""
        self.absent, self._declared = [], defaultdict(list)
        for h in hooks:
            for key in h.counters:
                self._declared[key].append(h.name)
            try:
                module = importlib.import_module(h.module)
            except ImportError:
                module = None
            fn = getattr(module, h.attr, None)
            if not callable(fn):
                self.absent.append(f"{h.module}.{h.attr}")
                continue
            wrapped = self.leaf(h.name, fn) if h.kind == LEAF else self.span(h.name, fn, h.measure)
            self._saved.append((module, h.attr, fn))
            self.installed[h.name] = h.kind
            setattr(module, h.attr, wrapped)
        return list(self.absent)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def span(self, name: str, fn, measure=None):
        """fn wrapped to record one span per call."""
        stack, now = self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(self._ids)
            frame = [sid, stack[-1][0] if stack else None, name, now(), 0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
                if measure is not None:
                    self.counters[sid] = measure(args, result)
                return result
            finally:
                end = now()
                stack.pop()
                if stack:
                    stack[-1][4] += end - frame[3]
                self.spans.append((self.op, sid, frame[1], name, frame[3], end, frame[4]))
        return wrapper

    def leaf(self, name: str, fn):
        """fn wrapped to add its count and time to the enclosing span."""
        stack, leaves, now = self._stack, self.leaves, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = now()
            try:
                return fn(*args, **kwargs)
            finally:
                ns = now() - start
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[4] += ns
                key = (parent[0] if parent else None, name)
                total = leaves.get(key)
                if total is None:
                    leaves[key] = [1, ns]
                else:
                    total[0] += 1
                    total[1] += ns
        return wrapper

    def summarize(self, ops) -> dict[str, float]:
        """Layer metrics over the given op ids; metrics of absent hooks are left out."""
        ops = set(ops)
        span_op, span_name = {}, {}
        calls, ns, self_ns = defaultdict(int), defaultdict(int), defaultdict(int)
        counts = defaultdict(int)
        scan_evals = 0
        for op, sid, _parent, name, start, end, child in self.spans:
            span_op[sid], span_name[sid] = op, name
            if op not in ops:
                continue
            calls[name] += 1
            ns[name] += end - start
            self_ns[name] += end - start - child
            for key, value in self.counters.get(sid, {}).items():
                counts[key] += value
        for (parent, name), (n, t) in self.leaves.items():
            if span_op.get(parent) not in ops:
                continue
            calls[name] += n
            ns[name] += t
            self_ns[name] += t
            if span_name[parent] == SCAN_SPAN and name in SCAN_LEAVES:
                scan_evals += n

        out: dict[str, float] = {}
        for name, kind in self.installed.items():
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = ns[name] / 1e9
            if kind == SPAN:
                out[f"{name}.self_s"] = self_ns[name] / 1e9
        out["cli.self_s"] = out.pop(f"{ROOT_SPAN}.self_s")
        for key, owners in self._declared.items():
            if all(o in self.installed for o in owners):
                out[key] = counts[key]
        needed = {SCAN_SPAN, *SCAN_LEAVES, "solver.solve_im", "solver.solve_im_prime"}
        if needed <= self.installed.keys() and out["solver.roots_returned"]:
            out["invariants.evals_per_root"] = scan_evals / out["solver.roots_returned"]
        out["trace.accounted_s"] = sum(self_ns.values()) / 1e9
        return out

    def op_counts(self, op) -> dict[str, int]:
        """Call counts and counters of one op, for comparing repeated runs."""
        s = self.summarize([op])
        return {k: v for k, v in s.items() if not k.endswith("_s") and not k.endswith(".s")}
