"""Exact consistency oracle on finite subtrees.

The fixed-point equations assert one concrete, checkable fact: summing the
finite-volume weights over the outermost spin generation reproduces the
weights of the next smaller volume, up to a single constant that does not
depend on the interior configuration.  This module measures how far that
ratio is from constant on a depth-n ball.

The boundary sum is exact.  Every boundary vertex is a leaf whose only edge
goes to its parent, so once the interior spins are fixed the sum over the
boundary spins factorizes into one factor per boundary vertex, and that
factor depends only on its parent's spin:

    sum_boundary w = theta^(inner monochromatic edges)
                     * prod_v sum_s theta^[s = spin of v's parent] exp(h_s)

The check uses only the Hamiltonian and the field; it shares no algebra with
the solver (no compatibility map, no invariant-set reduction).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, ParameterError
from .model import (
    ModelParams,
    PeriodTwoField,
    finite_volume_log_weight,
    monochromatic_edges,
)

_MAX_VERTICES = 1_000_000
_MAX_ENUM = 10_000_000
_N_PAIRS = 20   # random interior configurations per check, besides the all-ones one


@dataclass(frozen=True)
class FiniteTree:
    """A rooted ball of a Cayley tree: the root has k+1 neighbors, others k+1 total.

    parent[v] is the parent index (-1 for the root), depth[v] the generation,
    generations[d] the tuple of vertex ids at depth d, edges the parent-child
    pairs in creation order.
    """

    k: int
    n: int
    parent: tuple[int, ...]
    depth: tuple[int, ...]
    generations: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[int, int], ...]

    def boundary(self) -> tuple[int, ...]:
        """Vertex ids of the outermost generation."""
        return self.generations[self.n]

    @property
    def n_vertices(self) -> int:
        return len(self.parent)


def build_tree(k: int, n: int) -> FiniteTree:
    """Depth-n ball with root branching k+1 and inner branching k."""
    if not isinstance(k, int) or k < 1:
        raise ParameterError(f"k must be a positive integer, got {k!r}")
    if not isinstance(n, int) or n < 0:
        raise ParameterError(f"n must be a nonnegative integer, got {n!r}")
    size = 1
    width = k + 1
    for _ in range(n):
        size += width
        width *= k
    if size > _MAX_VERTICES:
        raise BudgetError(f"depth-{n} ball has {size} vertices, budget {_MAX_VERTICES}")
    parent = [-1]
    depth = [0]
    generations = [(0,)]
    edges = []
    frontier = [0]
    for d in range(1, n + 1):
        new_frontier = []
        branching = k + 1 if d == 1 else k
        for v in frontier:
            for _ in range(branching):
                u = len(parent)
                parent.append(v)
                depth.append(d)
                edges.append((v, u))
                new_frontier.append(u)
        generations.append(tuple(new_frontier))
        frontier = new_frontier
    return FiniteTree(
        k=k, n=n,
        parent=tuple(parent),
        depth=tuple(depth),
        generations=tuple(generations),
        edges=tuple(edges),
    )


class _BoundarySum:
    """Configuration-independent pieces of the factorized boundary sum.

    parents holds the inner vertex each boundary vertex hangs from,
    log_factor[s-1] the log of one boundary vertex's summed weight when its
    parent has spin s, and inner_edges the edges of the depth-(n-1) ball.
    Built once per (tree, field) pair and reused across interior
    configurations.
    """

    def __init__(self, tree: FiniteTree, params: ModelParams,
                 field: PeriodTwoField) -> None:
        q = params.q
        self.q = q
        self.parents = np.array([tree.parent[v] for v in tree.boundary()], dtype=np.int64)
        h = field.h_even if tree.n % 2 == 0 else field.h_odd
        h_full = np.append(h, 0.0)
        shift = float(h_full.max())
        ex = np.exp(h_full - shift)
        # row s' sums theta*e^{h_s'} and e^{h_s} over s != s': positive terms only
        terms = np.where(np.eye(q, dtype=bool), params.theta * ex, ex)
        self.log_factor = shift + np.log(terms.sum(axis=1))
        self.log_theta = math.log(params.theta)
        self.inner_edges = [e for e in tree.edges if tree.depth[e[1]] < tree.n]

    def log_sum(self, inner: np.ndarray) -> float:
        """log sum over all boundary spin assignments of the full volume weight."""
        inner_mono = monochromatic_edges(inner.tolist(), self.inner_edges, self.q)
        counts = np.bincount(inner[self.parents] - 1, minlength=self.q)
        return inner_mono * self.log_theta + math.fsum(counts * self.log_factor)


@dataclass(frozen=True)
class ConsistencyReport:
    passed: bool
    max_relative_error: float
    pairs_checked: int
    n: int
    tolerance: float


def check_consistency(tree: FiniteTree, params: ModelParams, field: PeriodTwoField,
                      tol: float = 1e-8, seed: int = 0) -> ConsistencyReport:
    """Test that summed depth-n weights track depth-(n-1) weights by one constant.

    Draws _N_PAIRS random interior configurations (plus the all-ones one),
    computes log(sum over boundary) - log(inner weight) for each, and passes
    when the spread of that difference stays within tol.  Works for n >= 1.

    From depth 2 on, a check tests one of the two period-two equations: the
    one that gives the generation-(n-1) field from the generation-n field.
    So the same configurations are checked on the field and on
    field.swapped(), the ball centred on a vertex of the other sublattice,
    and the larger error is reported.  At depth 1 the root has k+1 children,
    so the check tests h_even = (k+1) F(h_odd), which no genuinely
    period-two field satisfies in either order; it runs on the field alone.

    tol must be finite and >= 0 and seed a nonnegative integer; otherwise
    ParameterError is raised.
    """
    if tree.n < 1:
        raise ParameterError("consistency check needs a ball of depth >= 1")
    if field.q != params.q:
        raise ParameterError(f"field has q={field.q}, params q={params.q}")
    if not math.isfinite(tol) or tol < 0.0:
        raise ParameterError(f"tol must be a finite nonnegative real, got {tol!r}")
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ParameterError(f"seed must be a nonnegative integer, got {seed!r}")
    orders = (field,) if tree.n == 1 else (field, field.swapped())
    b = len(tree.boundary())
    terms = len(orders) * (_N_PAIRS + 1) * b * params.q
    if terms > _MAX_ENUM:
        raise BudgetError(
            f"boundary sum needs {len(orders)} field order(s) x {_N_PAIRS + 1} "
            f"configurations x {b} boundary vertices x {params.q} spins = {terms} "
            f"terms, budget {_MAX_ENUM}"
        )
    rng = np.random.default_rng(seed)
    n_inner = tree.n_vertices - b

    configs = [np.ones(n_inner, dtype=np.int64)]
    for _ in range(_N_PAIRS):
        configs.append(rng.integers(1, params.q + 1, size=n_inner))

    err = max(_relative_spread(tree, params, f, configs) for f in orders)
    return ConsistencyReport(
        passed=bool(err <= tol),
        max_relative_error=float(err),
        pairs_checked=len(configs),
        n=tree.n,
        tolerance=tol,
    )


def _relative_spread(tree: FiniteTree, params: ModelParams, field: PeriodTwoField,
                     configs: list[np.ndarray]) -> float:
    """Spread of the outer-minus-inner log weights over configs, relative to their size."""
    bsum = _BoundarySum(tree, params, field)
    inner_boundary = [(v, tree.n - 1) for v in tree.generations[tree.n - 1]]
    gaps = []
    for inner in configs:
        log_outer = bsum.log_sum(inner)
        log_inner = finite_volume_log_weight(inner.tolist(), bsum.inner_edges,
                                             inner_boundary, field, params)
        gaps.append(log_outer - log_inner)
    spread = max(gaps) - min(gaps)
    scale = max(1.0, max(abs(g) for g in gaps))
    return spread / scale


def finite_difference(fn, x: float, step: float = 1e-6) -> float:
    """Central difference derivative estimate."""
    return (fn(x + step) - fn(x - step)) / (2.0 * step)
