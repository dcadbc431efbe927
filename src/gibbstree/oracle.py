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
from typing import TYPE_CHECKING

from .errors import BudgetError, ParameterError
from .model import (
    ModelParams,
    PeriodTwoField,
    finite_volume_log_weight,  # noqa: F401  unused; perfbench/tracing.py counts its calls here
)

if TYPE_CHECKING:
    import numpy as np

_MAX_VERTICES = 1_000_000
_MAX_ENUM = 10_000_000
_N_PAIRS = 20   # random interior configurations per check, besides the all-ones one


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


class _BoundarySum:
    """Both log weights of every interior configuration of one check, as one array.

    rows is a (configurations x inner vertices) array of spins in 1..q, the
    columns in id order.  Built once per check, it holds what does not depend
    on the field: mono[r], the monochromatic edges of the depth-(n-1) ball in
    row r, which the full and the inner weight share; counts[r, s-1], the
    boundary vertices whose parent has spin s in row r; and inner_index, the
    spins less one of generation n-1, the inner ball's boundary and the
    boundary's parents.  Every vertex of generation n-1 has the same number
    of boundary children, so counts is that number times the spin counts of
    generation n-1.  log_sums and inner_log_weights then evaluate every row
    at once for one field.
    """

    def __init__(self, tree: FiniteTree, params: ModelParams, rows: np.ndarray) -> None:
        import numpy as np

        self.n = tree.n
        self.theta = params.theta
        self.log_theta = math.log(params.theta)
        # the depth-(n-1) ball's edges are (parent of v, v) for its vertices v > 0
        parent = np.maximum((np.arange(1, rows.shape[1]) - 2) // tree.k, 0)
        self.mono = (rows[:, parent] == rows[:, 1:]).sum(axis=1).tolist()
        last = rows[:, tree.generations[tree.n - 1].start:]
        children = tree.k + 1 if tree.n == 1 else tree.k
        spins = np.arange(1, params.q + 1, dtype=rows.dtype)
        self.counts = children * np.count_nonzero(last[:, :, None] == spins, axis=1)
        self.inner_index = last - 1

    def log_sums(self, field: PeriodTwoField) -> list[float]:
        """Per row, log sum over all boundary spin assignments of the full volume weight."""
        import numpy as np

        h = field.even if self.n % 2 == 0 else field.odd
        h_full = np.array(h + (0.0,))
        shift = float(h_full.max())
        ex = np.exp(h_full - shift)
        # row s' sums theta*e^{h_s'} and e^{h_s} over s != s': positive terms only
        terms = np.where(np.eye(len(ex), dtype=bool), self.theta * ex, ex)
        log_factor = shift + np.log(terms.sum(axis=1))
        return [m * self.log_theta + math.fsum(row)
                for m, row in zip(self.mono, (self.counts * log_factor).tolist())]

    def inner_log_weights(self, field: PeriodTwoField) -> list[float]:
        """Per row, model.finite_volume_log_weight of the depth-(n-1) ball."""
        import numpy as np

        h = field.even if (self.n - 1) % 2 == 0 else field.odd
        # fsum is exactly rounded, so the zero terms of spin q change no bit;
        # rows become Python floats one at a time, which keeps deep balls small
        h_full = np.array(h + (0.0,))
        return [m * self.log_theta + math.fsum(row.tolist())
                for m, row in zip(self.mono, h_full[self.inner_index])]


@dataclass(frozen=True)
class ConsistencyReport:
    passed: bool
    max_relative_error: float
    pairs_checked: int
    n: int
    tolerance: float


def _draw_rows(q: int, n_inner: int, seed: int) -> np.ndarray:
    """The all-ones configuration and _N_PAIRS seeded random ones, one per row.

    One draw of _N_PAIRS rows gives the same spins as _N_PAIRS draws of one
    row each.  Spins are stored in the smallest integer type that holds q.
    """
    import numpy as np

    draws = np.random.default_rng(seed).integers(1, q + 1, size=(_N_PAIRS, n_inner))
    rows = np.ones((_N_PAIRS + 1, n_inner), dtype=np.min_scalar_type(q))
    rows[1:] = draws
    return rows


def check_consistency(tree: FiniteTree, params: ModelParams, field: PeriodTwoField,
                      tol: float = 1e-8, seed: int = 0) -> ConsistencyReport:
    """Test that summed depth-n weights track depth-(n-1) weights by one constant.

    Draws _N_PAIRS random interior configurations (plus the all-ones one),
    computes log(sum over boundary) - log(inner weight) for each, and passes
    when the spread of that difference stays within tol.  Works for n >= 1.
    All configurations are evaluated together as the rows of one array, and
    each row's monochromatic inner edges are counted once, for both weights.

    From depth 2 on, a check tests one of the two period-two equations: the
    one that gives the generation-(n-1) field from the generation-n field.
    So the same configurations are checked on the field and on
    field.swapped(), the ball centred on a vertex of the other sublattice,
    and the larger error is reported.  At depth 1 the root has k+1 children,
    so the check tests h_even = (k+1) F(h_odd), which no genuinely
    period-two field satisfies in either order; it runs on the field alone.

    The tree must have params' k and the field params' q, tol must be finite
    and >= 0 and seed a nonnegative integer; otherwise ParameterError is
    raised.
    """
    if tree.n < 1:
        raise ParameterError("consistency check needs a ball of depth >= 1")
    if field.q != params.q:
        raise ParameterError(f"field has q={field.q}, params q={params.q}")
    if tree.k != params.k:
        raise ParameterError(f"tree has k={tree.k}, params k={params.k}")
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
    rows = _draw_rows(params.q, tree.n_vertices - b, seed)
    bsum = _BoundarySum(tree, params, rows)
    err = max(_relative_spread(bsum, f) for f in orders)
    return ConsistencyReport(
        passed=bool(err <= tol),
        max_relative_error=float(err),
        pairs_checked=len(rows),
        n=tree.n,
        tolerance=tol,
    )


def _relative_spread(bsum: _BoundarySum, field: PeriodTwoField) -> float:
    """Spread of the outer-minus-inner log weights over the rows, relative to their size."""
    gaps = [outer - inner for outer, inner
            in zip(bsum.log_sums(field), bsum.inner_log_weights(field))]
    spread = max(gaps) - min(gaps)
    scale = max(1.0, max(abs(g) for g in gaps))
    return spread / scale


def finite_difference(fn, x: float, step: float = 1e-6) -> float:
    """Central difference derivative estimate."""
    return (fn(x + step) - fn(x - step)) / (2.0 * step)
