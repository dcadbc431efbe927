"""Potts boundary fields on the Cayley tree: parameters, recursion map, finite-volume weights.

A boundary field assigns each spin value a real weight exponent; the q-th
component is pinned to zero throughout, so field vectors have q-1 entries.
Period-two fields alternate between two vectors by generation parity, with the
root sitting on the even sublattice.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DomainError, HypothesisError, ParameterError, ShapeError


@dataclass(frozen=True)
class ModelParams:
    """Model constants: q spin states, tree order k, activity theta = exp(J/T).

    theta in (0, 1) is the antiferromagnetic regime (J < 0). j_coupling and
    beta are optional provenance; when both are present they must reproduce
    theta to within 1e-12 relative.
    """

    q: int
    k: int
    theta: float
    j_coupling: float | None = None
    beta: float | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.q, int) or isinstance(self.q, bool) or self.q < 2:
            raise ParameterError(f"q must be an integer >= 2, got {self.q!r}")
        if not isinstance(self.k, int) or isinstance(self.k, bool) or self.k < 1:
            raise ParameterError(f"k must be an integer >= 1, got {self.k!r}")
        theta = float(self.theta)
        if not math.isfinite(theta) or theta <= 0.0:
            raise ParameterError(f"theta must be a finite positive real, got {self.theta!r}")
        object.__setattr__(self, "theta", theta)
        if self.j_coupling is not None and self.beta is not None:
            if not (self.beta > 0.0 and math.isfinite(self.beta)):
                raise ParameterError(f"beta must be a positive real, got {self.beta!r}")
            implied = math.exp(self.j_coupling * self.beta)
            if abs(theta - implied) > 1e-12 * theta:
                raise ParameterError(
                    f"theta={theta} inconsistent with exp(j_coupling*beta)={implied}"
                )

    @property
    def n_components(self) -> int:
        """Length of a field vector: one entry per spin value except the pinned q-th."""
        return self.q - 1

    def require_solver_regime(self) -> None:
        """Entry gate for the solvers: k >= 3, 3 <= q <= k, 0 < theta < 1."""
        if self.k < 3 or not (3 <= self.q < self.k + 1) or not (0.0 < self.theta < 1.0):
            raise HypothesisError(
                "solvers require k >= 3, 3 <= q <= k and 0 < theta < 1, "
                f"got q={self.q}, k={self.k}, theta={self.theta}"
            )


def as_field(values, q: int) -> np.ndarray:
    """Coerce to a finite float vector of length q-1."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.shape[0] != q - 1:
        raise ShapeError(f"field vector must have length q-1 = {q - 1}, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DomainError("field vector has non-finite entries")
    return arr


@dataclass(frozen=True)
class PeriodTwoField:
    """Field pair (h_even, h_odd) applied by generation parity; root parity is even."""

    h_even: np.ndarray
    h_odd: np.ndarray

    def __post_init__(self) -> None:
        h_even = np.array(self.h_even, dtype=float)
        h_odd = np.array(self.h_odd, dtype=float)
        if h_even.ndim != 1 or h_odd.ndim != 1 or h_even.shape != h_odd.shape:
            raise ShapeError(
                f"h_even and h_odd must be equal-length vectors, got shapes "
                f"{h_even.shape} and {h_odd.shape}"
            )
        if h_even.shape[0] < 1:
            raise ShapeError("field vectors must have at least one component (q >= 2)")
        if not (np.all(np.isfinite(h_even)) and np.all(np.isfinite(h_odd))):
            raise DomainError("field vectors have non-finite entries")
        h_even.flags.writeable = False
        h_odd.flags.writeable = False
        object.__setattr__(self, "h_even", h_even)
        object.__setattr__(self, "h_odd", h_odd)

    @classmethod
    def zero(cls, q: int) -> "PeriodTwoField":
        return cls(np.zeros(q - 1), np.zeros(q - 1))

    @property
    def q(self) -> int:
        return self.h_even.shape[0] + 1

    def swapped(self) -> "PeriodTwoField":
        """The same field with parities exchanged."""
        return PeriodTwoField(self.h_odd, self.h_even)


def compat_map(h, params: ModelParams) -> np.ndarray:
    """One-generation image of a boundary-field vector.

    With x_j = exp(h_j) for the q-1 free components and the q-th pinned to 1:

        F_i = ln( (theta*x_i + sum_{j != i} x_j + 1) / (theta + sum_j x_j) )

    Every term in this arrangement is positive, so there is no cancellation,
    and all exponentials are shifted by the max entry so large fields cannot
    overflow.  theta = 1 maps every vector to zero.
    """
    h = as_field(h, params.q)
    theta = params.theta
    shift = max(float(h.max()), 0.0)
    ex = np.exp(h - shift)
    e0 = math.exp(-shift)  # the pinned component exp(0), shifted
    s = float(ex.sum())
    num = theta * ex + (s - ex) + e0
    den = theta * e0 + s
    return np.log(num) - math.log(den)


def period2_residual(field: PeriodTwoField, params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Residual pair (h_even - k*F(h_odd), h_odd - k*F(h_even)).

    Both vectors vanish exactly when the field pair is a period-two solution
    of the tree recursion; a translation-invariant solution is the special
    case h_even = h_odd.
    """
    if field.q != params.q:
        raise ShapeError(f"field has q={field.q}, params have q={params.q}")
    k = params.k
    r_even = field.h_even - k * compat_map(field.h_odd, params)
    r_odd = field.h_odd - k * compat_map(field.h_even, params)
    return r_even, r_odd


def residual_norm(field: PeriodTwoField, params: ModelParams) -> float:
    """Max-norm of the period-two residual pair."""
    r_even, r_odd = period2_residual(field, params)
    return max(float(np.abs(r_even).max()), float(np.abs(r_odd).max()))


def _check_spin(s, q: int | None):
    if not isinstance(s, (int, np.integer)) or isinstance(s, bool):
        raise DomainError(f"spin values must be integers, got {s!r}")
    if s < 1 or (q is not None and s > q):
        raise DomainError(f"spin {s} outside {{1..{q if q is not None else '?'}}}")
    return int(s)


def monochromatic_edges(config: Sequence[int] | Mapping[int, int],
                        edges: Iterable[tuple[int, int]], q: int | None = None) -> int:
    """Number of edges whose two endpoints carry the same spin.

    Every endpoint spin must be an integer >= 1 (and <= q when q is given);
    otherwise DomainError is raised.
    """
    mono = 0
    for u, v in edges:
        if _check_spin(config[u], q) == _check_spin(config[v], q):
            mono += 1
    return mono


def hamiltonian(config: Mapping[int, int], edges: Iterable[tuple[int, int]],
                j_coupling: float, q: int | None = None) -> float:
    """Energy -J * (number of monochromatic edges); pass q to range-check spins."""
    return -j_coupling * monochromatic_edges(config, edges, q)


def finite_volume_log_weight(config: Sequence[int] | Mapping[int, int],
                             edges: Iterable[tuple[int, int]],
                             boundary: Iterable[tuple[int, int]],
                             field: PeriodTwoField,
                             params: ModelParams) -> float:
    """Log of the unnormalized finite-volume weight.

        ln w = ln(theta) * #monochromatic(edges) + sum over boundary field terms

    boundary lists (vertex, depth) pairs for the outer generation; a vertex of
    even depth reads field.h_even, odd depth field.h_odd, and spin q
    contributes zero.  At depth 0 the boundary is the root itself, so the
    volume-zero weight of a root spin s is exp(h_even[s]).
    """
    q = params.q
    if field.q != q:
        raise ShapeError(f"field has q={field.q}, params have q={q}")
    mono = monochromatic_edges(config, edges, q)
    parts = []
    for v, d in boundary:
        s = _check_spin(config[v], q)
        if s < q:
            vec = field.h_even if d % 2 == 0 else field.h_odd
            parts.append(float(vec[s - 1]))
    return mono * math.log(params.theta) + math.fsum(parts)


def finite_volume_weight(config, edges, boundary, field: PeriodTwoField,
                         params: ModelParams) -> float:
    """Unnormalized finite-volume weight; strictly positive and finite."""
    logw = finite_volume_log_weight(config, edges, boundary, field, params)
    if logw > 709.0:
        raise DomainError(f"weight exp({logw:.3g}) overflows; use finite_volume_log_weight")
    return math.exp(logw)
