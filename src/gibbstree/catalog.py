"""Classification and counting of boundary-field solutions.

A solved scalar pair either has equal components (a translation-invariant
field, the same vector on both sublattices) or distinct ones (a genuinely
two-periodic field that alternates between even and odd generations).  The
scalar patterns are anchored to the leading coordinates; permuting the q-1
free components of the full vectors produces the rest of each symmetry
orbit, and closed-form binomial counts give the orbit totals without
enumerating them.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dataclass_field
from enum import Enum

import numpy as np

from .errors import ParameterError, ResidualError
from .invariants import InvariantSetId, ReducedScalar, SetKind
from .model import ModelParams, PeriodTwoField, period2_residual

_CLASSIFY_RESIDUAL_TOL = 1e-9
_TI_REL_TOL = 1e-10


class Classification(str, Enum):
    TRANSLATION_INVARIANT = "TI"
    PERIOD_TWO = "P2"


@dataclass(frozen=True)
class MeasureDescriptor:
    """One boundary-field solution together with how it was produced."""

    classification: Classification
    field: PeriodTwoField
    origin_set: InvariantSetId
    origin_permutation: tuple[int, ...]
    source: ReducedScalar


def classify(sol: ReducedScalar, params: ModelParams) -> Classification:
    """Tag a solved pair as translation invariant or two periodic.

    Refuses to classify anything that does not satisfy the fixed-point
    system: a wrong label on a non-solution would silently poison counts.
    """
    if not sol.residual_full <= _CLASSIFY_RESIDUAL_TOL:
        raise ResidualError(
            f"solution residual {sol.residual_full!r} exceeds {_CLASSIFY_RESIDUAL_TOL}; "
            "refusing to classify a non-solution"
        )
    pairs = [(sol.x, sol.y)]
    if sol.z is not None:
        pairs.append((sol.z, sol.t))
    for a, b in pairs:
        if abs(a - b) > _TI_REL_TOL * max(abs(a), abs(b)):
            return Classification.PERIOD_TWO
    return Classification.TRANSLATION_INVARIANT


def orbit_expand(sol: ReducedScalar, params: ModelParams) -> list[MeasureDescriptor]:
    """All distinct fields obtained by permuting the free components.

    Applies each permutation of the q-1 free coordinates to both sublattice
    vectors at once, then drops duplicates (the anchored patterns have many
    stabilizers).  The first descriptor is the solution itself under the
    identity permutation, with a copy of its field.  Every survivor is
    residual-checked again after the permutation; symmetry of the
    compatibility map makes this a tautology in exact arithmetic, so a
    failure here means a numerics bug.
    """
    base = sol.full_field
    if base is None:
        raise ParameterError("solution has no embedded field; call embed_full first")
    label = classify(sol, params)
    n = params.q - 1
    seen: set[tuple] = set()
    out: list[MeasureDescriptor] = []
    for perm in itertools.permutations(range(n)):
        idx = list(perm)
        h_even = base.h_even[idx]
        h_odd = base.h_odd[idx]
        key = tuple(np.round(h_even, 12)) + tuple(np.round(h_odd, 12))
        if key in seen:
            continue
        seen.add(key)
        fld = PeriodTwoField(h_even=h_even, h_odd=h_odd)
        r_even, r_odd = period2_residual(fld, params)
        res = max(np.abs(r_even).max(), np.abs(r_odd).max())
        if not res <= 10.0 * _CLASSIFY_RESIDUAL_TOL:
            raise ResidualError(
                f"permuted field residual {res:.3e} too large under permutation {perm}"
            )
        out.append(MeasureDescriptor(
            classification=label,
            field=fld,
            origin_set=sol.set_id,
            origin_permutation=perm,
            source=sol,
        ))
    return out


def count_im(q: int, m: int) -> int:
    """Closed-form number of block-pattern solution pairs at fixed m."""
    _check_qm(q, m, q)
    return 2 * math.comb(q, m)


def count_im_prime(q: int, m: int) -> int:
    """Closed-form number of mirror-pattern solution pairs at fixed m."""
    _check_qm(q, m, q // 2)
    return 2 * math.comb(q, m) * math.comb(q - m, m)


def _check_qm(q: int, m: int, m_max: int) -> None:
    if not isinstance(q, int) or not isinstance(m, int):
        raise ParameterError(f"q and m must be integers, got {q!r}, {m!r}")
    if q < 2:
        raise ParameterError(f"q must be >= 2, got {q}")
    if not 1 <= m <= m_max:
        raise ParameterError(f"m must lie in [1, {m_max}] for q={q}, got {m}")


@dataclass(frozen=True)
class CountReport:
    q: int
    per_im: dict[int, int]
    per_im_prime: dict[int, int]
    total: int


def total_lower_bound(q: int) -> CountReport:
    """Aggregate solution-pair counts over every admissible m of both patterns.

    The block counts alone sum to 2^(q+1) - 2, which doubles as an internal
    cross-check on the per-m table.  q=2 is rejected: with two states the
    model degenerates to the two-spin case handled by other machinery.
    """
    if not isinstance(q, int) or q < 3:
        raise ParameterError(f"q must be an integer >= 3, got {q!r}")
    per_im = {m: count_im(q, m) for m in range(1, q + 1)}
    per_im_prime = {m: count_im_prime(q, m) for m in range(1, q // 2 + 1)}
    im_sum = sum(per_im.values())
    if im_sum != 2 ** (q + 1) - 2:
        raise ResidualError(f"block count tally {im_sum} != {2 ** (q + 1) - 2}")
    return CountReport(
        q=q,
        per_im=per_im,
        per_im_prime=per_im_prime,
        total=im_sum + sum(per_im_prime.values()),
    )
