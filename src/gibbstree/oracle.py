"""Exact consistency oracle on finite subtrees.

The fixed-point equations assert one concrete, checkable fact: summing the
finite-volume weights over the outermost spin generation reproduces the
weights of the next smaller volume, up to a single constant that does not
depend on the interior configuration.  This module measures how far that
ratio is from constant on a depth-n ball, over every interior configuration.

It does so in closed form.  Every boundary vertex is a leaf whose only edge
goes to its parent, so once the interior spins are fixed the sum over the
boundary spins factorizes into one factor per boundary vertex, and that
factor depends only on its parent's spin:

    sum_boundary w = theta^(inner monochromatic edges)
                     * prod over boundary v of exp(L[spin of v's parent])
    L_s = log(theta e^(h_s) + sum over s' != s of e^(h_s'))

with h the field of generation n and h_q = 0.  The depth-(n-1) weight is
theta^(inner monochromatic edges) times exp(h'_s) for each vertex of
generation n-1 with spin s, where h' is that generation's field.  The
monochromatic term cancels, so the log-ratio of a configuration, its gap, is

    gap = sum over v in generation n-1 of g[spin of v],   g_s = c L_s - h'_s,

where c is the number of boundary children of each vertex of generation
n-1: k, and k+1 at depth 1, where that generation is the root.  The spins
of generation n-1 are free, so over all interior configurations the gap
takes every value sum_s N_s g_s over integers N_s >= 0 with sum_s N_s = W,
the width of generation n-1.  Its spread is W (max g - min g) and its
largest magnitude W max|g|, both attained by the q configurations whose
generation n-1 holds one spin throughout.  A check costs O(q) at every
depth.

The check uses only the Hamiltonian and the field; it shares no algebra with
the solver (no compatibility map, no invariant-set reduction).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import BudgetError, ParameterError
from .model import (
    ModelParams,
    PeriodTwoField,
    finite_volume_log_weight,  # noqa: F401  unused; perfbench/tracing.py counts its calls here
)

_MAX_VERTICES = 1_000_000


@dataclass(frozen=True)
class FiniteTree:
    """Depth-n Cayley-tree ball of order k: the root has k+1 children, other inner vertices k.

    Ids run generation by generation: generations[d] is the range of ids at
    depth d, and each range starts where the one before stops.  So vertex
    v >= 1 has parent max(0, (v - 2) // k), and the children of a vertex are
    consecutive ids.
    """

    k: int
    n: int
    generations: tuple[range, ...]

    def boundary(self) -> range:
        """Vertex ids of the outermost generation."""
        return self.generations[self.n]

    @property
    def n_vertices(self) -> int:
        return self.generations[-1].stop


def build_tree(k: int, n: int) -> FiniteTree:
    """Depth-n ball with root branching k+1 and inner branching k."""
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ParameterError(f"k must be a positive integer, got {k!r}")
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ParameterError(f"n must be a nonnegative integer, got {n!r}")
    # generation widths k+1, (k+1)k, (k+1)k^2, ... are summed before any
    # generation is made, and only until they pass the budget: a refused
    # depth costs no memory, and no count of its ball's size is formed
    stops = [1]
    width = k + 1
    while len(stops) <= n:
        stops.append(stops[-1] + width)
        width *= k
        if stops[-1] > _MAX_VERTICES:
            size = stops[-1] if len(stops) > n else f"more than {stops[-1]}"
            raise BudgetError(f"depth-{n} ball has {size} vertices, budget {_MAX_VERTICES}")
    generations = tuple(map(range, [0] + stops[:-1], stops))
    return FiniteTree(k=k, n=n, generations=generations)


@dataclass(frozen=True)
class ConsistencyReport:
    """Outcome of one check_consistency call.

    pairs_checked is q: the configurations whose generation n-1 holds one
    spin throughout, which attain the extremes of the gap over all interior
    configurations.  The error covers every configuration, not only those.
    """

    passed: bool
    max_relative_error: float
    pairs_checked: int
    n: int


def _spin_gaps(tree: FiniteTree, params: ModelParams, field: PeriodTwoField) -> list[float]:
    """g_s for s = 1..q: a configuration's gap is the sum of g over generation n-1's spins."""
    outer, inner = (field.even, field.odd) if tree.n % 2 == 0 else (field.odd, field.even)
    h = outer + (0.0,)
    shift = max(h)
    ex = [math.exp(v - shift) for v in h]
    # spin s sums theta*e^{h_s} and e^{h_s'} over s' != s: positive terms
    # only, the others as the sums before and after s
    before = list(itertools.accumulate(ex, initial=0.0))
    after = list(itertools.accumulate(reversed(ex), initial=0.0))[::-1]
    c = tree.k + 1 if tree.n == 1 else tree.k
    return [c * (shift + math.log(params.theta * e + before[s] + after[s + 1])) - hs
            for s, (e, hs) in enumerate(zip(ex, inner + (0.0,)))]


def check_consistency(tree: FiniteTree, params: ModelParams, field: PeriodTwoField,
                      tol: float = 1e-8) -> ConsistencyReport:
    """Test that summed depth-n weights track depth-(n-1) weights by one constant.

    Over every interior configuration of the depth-n ball, takes the gap
    log(sum over boundary) - log(inner weight), and passes when its spread
    relative to max(1, largest |gap|) stays within tol.  Works for n >= 1.
    Both are computed in closed form from the per-spin gaps g (see the
    module docstring), so no configuration is drawn or listed.

    From depth 2 on, a check tests one of the two period-two equations: the
    one that gives the generation-(n-1) field from the generation-n field.
    So the check runs on the field and on field.swapped(), the ball centred
    on a vertex of the other sublattice, and the larger error is reported.
    At depth 1 the root has k+1 children, so the check tests
    h_even = (k+1) F(h_odd), which no genuinely period-two field satisfies
    in either order; it runs on the field alone.

    The tree must have params' k and the field params' q, and tol must be
    finite and >= 0; otherwise ParameterError is raised.
    """
    if tree.n < 1:
        raise ParameterError("consistency check needs a ball of depth >= 1")
    if field.q != params.q:
        raise ParameterError(f"field has q={field.q}, params q={params.q}")
    if tree.k != params.k:
        raise ParameterError(f"tree has k={tree.k}, params k={params.k}")
    if not math.isfinite(tol) or tol < 0.0:
        raise ParameterError(f"tol must be a finite nonnegative real, got {tol!r}")
    orders = (field,) if tree.n == 1 else (field, field.swapped())
    width = len(tree.generations[tree.n - 1])
    err = max(_relative_spread(_spin_gaps(tree, params, f), width) for f in orders)
    return ConsistencyReport(
        passed=bool(err <= tol),
        max_relative_error=err,
        pairs_checked=params.q,
        n=tree.n,
    )


def _relative_spread(g: list[float], width: int) -> float:
    """Spread of the gap over all configurations, relative to its largest magnitude."""
    spread = width * (max(g) - min(g))
    scale = max(1.0, width * max(map(abs, g)))
    return spread / scale


def finite_difference(fn, x: float, step: float = 1e-6) -> float:
    """Central difference derivative estimate."""
    return (fn(x + step) - fn(x - step)) / (2.0 * step)
