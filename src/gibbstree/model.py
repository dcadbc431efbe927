"""Potts boundary fields on the Cayley tree: parameters, recursion map, finite-volume weights.

A boundary field assigns each spin value a real weight exponent; the q-th
component is pinned to zero throughout, so field vectors have q-1 entries.
Period-two fields alternate between two vectors by generation parity, with the
root sitting on the even sublattice.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .errors import DomainError, HypothesisError, ParameterError, ShapeError

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class ModelParams:
    """Model constants: q spin states, tree order k, activity theta = exp(J/T).

    theta in (0, 1) is the antiferromagnetic regime (J < 0), the one the
    solvers accept.  theta is the model's only temperature parameter: a
    coupling J and temperature T enter only through exp(J/T).
    """

    q: int
    k: int
    theta: float

    def __post_init__(self) -> None:
        if not isinstance(self.q, int) or isinstance(self.q, bool) or self.q < 2:
            raise ParameterError(f"q must be an integer >= 2, got {self.q!r}")
        if not isinstance(self.k, int) or isinstance(self.k, bool) or self.k < 1:
            raise ParameterError(f"k must be an integer >= 1, got {self.k!r}")
        theta = float(self.theta)
        if not math.isfinite(theta) or theta <= 0.0:
            raise ParameterError(f"theta must be a finite positive real, got {self.theta!r}")
        object.__setattr__(self, "theta", theta)

    def require_solver_regime(self) -> None:
        """Entry gate for the solvers: k >= 3, 3 <= q <= k, 0 < theta < 1."""
        if self.k < 3 or not (3 <= self.q < self.k + 1) or not (0.0 < self.theta < 1.0):
            raise HypothesisError(
                "solvers require k >= 3, 3 <= q <= k and 0 < theta < 1, "
                f"got q={self.q}, k={self.k}, theta={self.theta}"
            )


def as_field(values, q: int) -> np.ndarray:
    """Coerce to a finite float vector of length q-1."""
    import numpy as np

    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.shape[0] != q - 1:
        raise ShapeError(f"field vector must have length q-1 = {q - 1}, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DomainError("field vector has non-finite entries")
    return arr


def _components(values) -> tuple[float, ...]:
    """A one-dimensional field vector as a tuple of floats."""
    if getattr(values, "ndim", 1) != 1:
        raise ShapeError(f"field vectors must be one-dimensional, got shape {values.shape}")
    try:
        return tuple(map(float, values))
    except TypeError:
        raise ShapeError(f"field vectors must be sequences of numbers, got {values!r}") from None


def _read_only(components: tuple[float, ...]) -> np.ndarray:
    """The components as a read-only float64 ndarray."""
    import numpy as np

    arr = np.array(components)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class PeriodTwoField:
    """Field pair (h_even, h_odd) applied by generation parity; root parity is even.

    The components are held as tuples of floats, even and odd.  h_even and
    h_odd are the same vectors as read-only float64 ndarrays, built on first
    access, so a field that is only solved, checked and written never
    imports numpy.  Fields are immutable, and compare and hash by their
    components.
    """

    even: tuple[float, ...]
    odd: tuple[float, ...]

    def __init__(self, h_even, h_odd) -> None:
        even, odd = _components(h_even), _components(h_odd)
        if len(even) != len(odd):
            raise ShapeError(
                f"h_even and h_odd must be equal-length vectors, got lengths "
                f"{len(even)} and {len(odd)}"
            )
        if not even:
            raise ShapeError("field vectors must have at least one component (q >= 2)")
        if not all(map(math.isfinite, even + odd)):
            raise DomainError("field vectors have non-finite entries")
        object.__setattr__(self, "even", even)
        object.__setattr__(self, "odd", odd)

    def __repr__(self) -> str:
        return f"PeriodTwoField(h_even={list(self.even)!r}, h_odd={list(self.odd)!r})"

    @cached_property
    def h_even(self) -> np.ndarray:
        return _read_only(self.even)

    @cached_property
    def h_odd(self) -> np.ndarray:
        return _read_only(self.odd)

    @classmethod
    def zero(cls, q: int) -> "PeriodTwoField":
        return cls((0.0,) * (q - 1), (0.0,) * (q - 1))

    @property
    def q(self) -> int:
        return len(self.even) + 1

    def swapped(self) -> "PeriodTwoField":
        """The same field with parities exchanged."""
        return PeriodTwoField(self.odd, self.even)


def _compat_floats(h: Sequence[float], theta: float) -> list[float]:
    """compat_map of a finite field vector given as a sequence of floats, on plain floats."""
    shift = max(max(h), 0.0)
    ex = [math.exp(v - shift) for v in h] + [math.exp(-shift)]  # the pinned exp(0) last
    # component i sums theta*x_i and every other x_j, positive terms only; the
    # pinned component's sum is the denominator.  fsum rounds each sum once,
    # so equal terms give equal sums, and theta = 1 gives exact zeros.  Components
    # with equal exp values sum the same terms, so each value is summed once
    logs = {}
    for i, e in enumerate(ex):
        if e not in logs:
            logs[e] = math.log(math.fsum(ex[:i] + [theta * e] + ex[i + 1:]))
    den = logs[ex[-1]]
    return [logs[e] - den for e in ex[:-1]]


def compat_map(h, params: ModelParams) -> np.ndarray:
    """One-generation image of a boundary-field vector, as an ndarray.

    With x_j = exp(h_j) for the q-1 free components and the q-th pinned to 1:

        F_i = ln( (theta*x_i + sum_{j != i} x_j + 1) / (theta + sum_j x_j) )

    Every term in this arrangement is positive, and all exponentials are
    shifted by the max entry so large fields cannot overflow.  Each sum is
    rounded once (math.fsum) from its positive terms, so nothing cancels and
    the error does not grow as theta falls.  theta = 1 maps every vector to
    zero.  The vector is checked with as_field; the arithmetic runs on
    plain floats with math.exp and math.log (a vector of length q-1 is too
    short for numpy to pay), and only the result is an ndarray.
    """
    import numpy as np

    return np.array(_compat_floats(as_field(h, params.q).tolist(), params.theta))


def _residual_floats(field: PeriodTwoField, params: ModelParams,
                     ) -> tuple[list[float], list[float]]:
    """The period-two residual pair as lists, on plain floats."""
    if field.q != params.q:
        raise ShapeError(f"field has q={field.q}, params have q={params.q}")
    k, theta = params.k, params.theta
    h_even, h_odd = field.even, field.odd
    return ([h - k * f for h, f in zip(h_even, _compat_floats(h_odd, theta))],
            [h - k * f for h, f in zip(h_odd, _compat_floats(h_even, theta))])


def period2_residual(field: PeriodTwoField, params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Residual pair (h_even - k*F(h_odd), h_odd - k*F(h_even)).

    Both vectors vanish exactly when the field pair is a period-two solution
    of the tree recursion; a translation-invariant solution is the special
    case h_even = h_odd.
    """
    import numpy as np

    r_even, r_odd = _residual_floats(field, params)
    return np.array(r_even), np.array(r_odd)


def residual_norm(field: PeriodTwoField, params: ModelParams) -> float:
    """Max-norm of the period-two residual pair, computed on plain floats."""
    r_even, r_odd = _residual_floats(field, params)
    return max(map(abs, r_even + r_odd))


def _check_spin(s, q: int) -> int:
    # operator.index takes Python and numpy integers, and refuses floats and numpy bools
    try:
        spin = operator.index(s)
    except TypeError:
        spin = None
    if spin is None or isinstance(s, bool):
        raise DomainError(f"spin values must be integers, got {s!r}")
    if not 1 <= spin <= q:
        raise DomainError(f"spin {s} outside {{1..{q}}}")
    return spin


def monochromatic_edges(config: Sequence[int] | Mapping[int, int],
                        edges: Iterable[tuple[int, int]], q: int) -> int:
    """Number of edges whose two endpoints carry the same spin.

    Every endpoint spin must be an integer in 1..q; otherwise DomainError is
    raised.
    """
    mono = 0
    for u, v in edges:
        if _check_spin(config[u], q) == _check_spin(config[v], q):
            mono += 1
    return mono


def finite_volume_log_weight(config: Sequence[int] | Mapping[int, int],
                             edges: Iterable[tuple[int, int]],
                             boundary: Iterable[tuple[int, int]],
                             field: PeriodTwoField,
                             params: ModelParams) -> float:
    """Log of the unnormalized finite-volume weight.

        ln w = ln(theta) * #monochromatic(edges) + sum over boundary field terms

    boundary lists (vertex, depth) pairs for the outer generation; a vertex of
    even depth reads field.even, odd depth field.odd, and spin q
    contributes zero.  At depth 0 the boundary is the root itself, so the
    volume-zero weight of a root spin s is exp(field.even[s - 1]).
    """
    q = params.q
    if field.q != q:
        raise ShapeError(f"field has q={field.q}, params have q={q}")
    mono = monochromatic_edges(config, edges, q)
    parts = []
    for v, d in boundary:
        s = _check_spin(config[v], q)
        if s < q:
            vec = field.even if d % 2 == 0 else field.odd
            parts.append(vec[s - 1])
    return mono * math.log(params.theta) + math.fsum(parts)
