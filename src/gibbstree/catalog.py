"""Classification and counting of boundary-field solutions.

A solved scalar pair either has equal components, the same float twice (a
translation-invariant field, the same vector on both sublattices), or
distinct ones (a genuinely two-periodic field that alternates between even
and odd generations).  The scalar patterns are anchored to the leading
coordinates; permuting the q-1 free components of the full float vectors
produces the rest of each symmetry orbit, and two images are the same field
exactly when their components compare equal.  Closed-form binomial counts
give the orbit totals without enumerating them.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum

from .errors import ParameterError, ResidualError
from .invariants import InvariantSetId, ReducedScalar
from .model import ModelParams, PeriodTwoField, residual_norm

_CLASSIFY_RESIDUAL_TOL = 1e-9


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

    TI exactly when x == y and z == t: the solvers take each partner from
    the row's own certified root list.  Refuses to classify anything that
    does not satisfy the fixed-point system: a wrong label on a
    non-solution would silently poison counts.
    """
    if not sol.residual_full <= _CLASSIFY_RESIDUAL_TOL:
        raise ResidualError(
            f"solution residual {sol.residual_full!r} exceeds {_CLASSIFY_RESIDUAL_TOL}; "
            "refusing to classify a non-solution"
        )
    if sol.x == sol.y and sol.z == sol.t:
        return Classification.TRANSLATION_INVARIANT
    return Classification.PERIOD_TWO


def orbit_expand(sol: ReducedScalar, params: ModelParams) -> list[MeasureDescriptor]:
    """All distinct fields obtained by permuting the free components.

    Applies each permutation of the q-1 free coordinates to both sublattice
    vectors at once, then drops duplicates (the anchored patterns have many
    stabilizers).  A duplicate is an image whose components all equal an
    earlier image's as floats (0.0 equals -0.0), with no rounding, so even
    a component of 1e-13 keeps its images apart.  The first descriptor is
    the solution itself under the identity permutation, with a copy of its
    field.  Every survivor is residual-checked again after the permutation;
    symmetry of the compatibility map makes this a tautology in exact
    arithmetic, so a failure here means a numerics bug.
    """
    base = sol.full_field
    if base is None:
        raise ParameterError("solution has no embedded field; call embed_full first")
    label = classify(sol, params)
    n = params.q - 1
    seen: set[tuple] = set()
    out: list[MeasureDescriptor] = []
    for perm in itertools.permutations(range(n)):
        key = (tuple(base.even[i] for i in perm), tuple(base.odd[i] for i in perm))
        if key in seen:
            continue
        seen.add(key)
        fld = PeriodTwoField(*key)
        res = residual_norm(fld, params)
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

    The tallies are those of count_im and count_im_prime, walked up m by
    exact integer recurrences, C(q, m) = C(q, m-1)(q-m+1)/m and
    C(q, m)C(q-m, m) = C(q, m-1)C(q-m+1, m-1)(q-2m+2)(q-2m+1)/m^2, where
    each division leaves no remainder.  So each tally costs one product and
    one division by a small integer, not two binomials.
    """
    if not isinstance(q, int) or q < 3:
        raise ParameterError(f"q must be an integer >= 3, got {q!r}")
    per_im, per_im_prime = {}, {}
    block, mirror = 1, 1   # C(q, m) and C(q, m) C(q-m, m) at m = 0
    for m in range(1, q + 1):
        block = block * (q - m + 1) // m
        per_im[m] = 2 * block
    for m in range(1, q // 2 + 1):
        mirror = mirror * (q - 2 * m + 2) * (q - 2 * m + 1) // (m * m)
        per_im_prime[m] = 2 * mirror
    im_sum = sum(per_im.values())
    if im_sum != 2 ** (q + 1) - 2:
        raise ResidualError(f"block count tally {im_sum} != {2 ** (q + 1) - 2}")
    return CountReport(
        q=q,
        per_im=per_im,
        per_im_prime=per_im_prime,
        total=im_sum + sum(per_im_prime.values()),
    )
