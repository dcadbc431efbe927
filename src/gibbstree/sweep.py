"""Temperature sweeps, CSV serialization, and a dependency-free SVG plot.

A sweep solves the selected invariant sets on a grid of theta values and
flattens the results into rows.  Floats are serialized with repr, which
round-trips exactly, so a written file can be read back and compared
field-for-field.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields
from operator import attrgetter

from .catalog import classify
from .errors import ParameterError, SelectorSyntaxError
from .invariants import InvariantSetId, ReducedScalar, SetKind
from .model import ModelParams
from .solver import solve_im, solve_im_prime, solve_im_reciprocal

@dataclass(frozen=True)
class SweepRow:
    """One solution of one invariant set at one theta, and one line of a sweep CSV.

    The fields, in order, are the CSV columns: the header, the written cells
    and the parsed values all come from them.  z and t are None on block rows
    and are written as empty cells.
    """

    theta: float
    set_kind: str
    m: int
    sol_index: int
    x: float
    y: float
    z: float | None
    t: float | None
    classification: str
    residual_full: float


def _optional_float(cell: str) -> float | None:
    return float(cell) if cell else None


# annotation text -> parser of one CSV cell; a field of any other type fails at import
_PARSERS = {"float": float, "int": int, "str": str, "float | None": _optional_float}
_NAMES = [f.name for f in fields(SweepRow)]
_PARSE = [_PARSERS[f.type] for f in fields(SweepRow)]
_cells = attrgetter(*_NAMES)

CSV_HEADER = ",".join(_NAMES)


def solve_set(params: ModelParams, set_id: InvariantSetId) -> list[ReducedScalar]:
    """Solve one invariant set, dropping the mirror roots that solve_im_prime rejects."""
    if set_id.kind is SetKind.IM:
        return solve_im(params, set_id.m)
    solutions, _ = solve_im_prime(params, set_id.m)
    return solutions


def solve_sets(params: ModelParams, set_ids: list[InvariantSetId]) -> list[list[ReducedScalar]]:
    """solve_set of every requested set, in request order, solving each block pair once.

    Block sets m and q-m are reciprocal (see solver.solve_im_reciprocal).
    Where both are requested and m < q-m, im:q-m is derived from the
    solutions of im:m; every other set is solved by solve_set.
    """
    q = params.q
    block = {s.m for s in set_ids if s.kind is SetKind.IM}
    # each derived set im:q-m and the m of its requested partner
    partners = {s: q - s.m for s in set_ids
                if s.kind is SetKind.IM and 0 < q - s.m < s.m and q - s.m in block}
    solved = {}
    for set_id in set_ids:
        if set_id not in solved and set_id not in partners:
            solved[set_id] = solve_set(params, set_id)
    for set_id, m in partners.items():
        solved[set_id] = solve_im_reciprocal(params, m, solved[InvariantSetId(SetKind.IM, m)])
    return [solved[set_id] for set_id in set_ids]


def parse_set_spec(spec: str, q: int) -> list[InvariantSetId]:
    """Expand a set selector: "im:2", "imprime:1", or "all".

    "all" covers every admissible m of both families for the given q.
    """
    if spec == "all":
        out = [InvariantSetId(SetKind.IM, m) for m in range(1, q)]
        out += [InvariantSetId(SetKind.IM_PRIME, m) for m in range(1, (q - 1) // 2 + 1)]
        return out
    try:
        kind_str, m_str = spec.split(":", 1)
        kind = SetKind(kind_str)
        m = int(m_str)
    except ValueError:
        raise SelectorSyntaxError(
            f"set spec must be 'im:<m>', 'imprime:<m>', or 'all', got {spec!r}"
        )
    set_id = InvariantSetId(kind, m)
    set_id.validate_for(q)
    return [set_id]


def rows_for(params: ModelParams, set_ids: list[InvariantSetId]) -> list[SweepRow]:
    """Solve the invariant sets with solve_sets and flatten their solutions into classified rows.

    Rows run set by set in request order, and ascending in x within a set.
    """
    rows = []
    for set_id, solutions in zip(set_ids, solve_sets(params, set_ids)):
        for i, sol in enumerate(solutions):
            rows.append(SweepRow(
                theta=params.theta,
                set_kind=set_id.kind.value,
                m=set_id.m,
                sol_index=i,
                x=sol.x,
                y=sol.y,
                z=sol.z,
                t=sol.t,
                classification=classify(sol, params).value,
                residual_full=sol.residual_full,
            ))
    return rows


def _theta_grid(start: float, stop: float, steps: int) -> list[float]:
    """numpy.linspace(start, stop, steps), bit for bit, as a list of floats.

    Point i is start + i*step with step = (stop-start)/(steps-1), and the
    last point is stop itself.  Where step underflows to zero, point i is
    start + (i/(steps-1))*(stop-start), as numpy computes it.
    """
    if steps == 1:
        return [start]
    div = steps - 1
    delta = stop - start
    step = delta / div
    if step == 0.0:
        return [i / div * delta + start for i in range(div)] + [stop]
    return [i * step + start for i in range(div)] + [stop]


def run_sweep(q: int, k: int, theta_min: float, theta_max: float, steps: int,
              set_ids: list[InvariantSetId]) -> list[SweepRow]:
    """Rows of every requested set at `steps` equally spaced theta values.

    The theta values are those of numpy.linspace(theta_min, theta_max,
    steps).  Rows run theta by theta, set by set within one theta, and
    ascending in x within one set.
    """
    if not isinstance(steps, int) or steps < 1:
        raise ParameterError(f"steps must be a positive integer, got {steps!r}")
    if not 0.0 < theta_min <= theta_max < 1.0:
        raise ParameterError(
            f"need 0 < theta_min <= theta_max < 1, got [{theta_min}, {theta_max}]"
        )
    rows: list[SweepRow] = []
    for theta in _theta_grid(theta_min, theta_max, steps):
        rows.extend(rows_for(ModelParams(q=q, k=k, theta=theta), set_ids))
    return rows


def write_csv(rows: list[SweepRow], path) -> None:
    """Write rows to a file under the fixed header.

    csv.writer writes a float as its repr, which round-trips exactly, and
    None as an empty cell.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_NAMES)
        writer.writerows(map(_cells, rows))


def read_csv(path) -> list[SweepRow]:
    """Read a sweep file back; exact float round-trip of write_csv output.

    A malformed file, or a number that is not finite (nan, inf), raises
    ParameterError naming the offending line.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = []
        try:
            header = next(reader, None)
            if header != _NAMES:
                raise ParameterError(f"unexpected CSV header {header!r}")
            for rec in reader:
                if len(rec) != len(_NAMES):
                    raise ParameterError(f"line {reader.line_num}: expected {len(_NAMES)} "
                                         f"fields, got {len(rec)}")
                values = [parse(cell) for parse, cell in zip(_PARSE, rec)]
                if not all(math.isfinite(v) for v in values if isinstance(v, float)):
                    raise ParameterError(f"line {reader.line_num}: non-finite number")
                rows.append(SweepRow(*values))
        except UnicodeDecodeError as exc:
            raise ParameterError(f"CSV file is not UTF-8 text: {exc.reason}") from None
        except (ValueError, csv.Error) as exc:
            raise ParameterError(f"line {reader.line_num}: {exc}") from None
    return rows


_SVG_COLORS = {"TI": "#1f6fb2", "P2": "#c44e52"}


def write_bifurcation_svg(rows: list[SweepRow], path: str) -> None:
    """Scatter of solution branches against theta as a standalone SVG file.

    Each row contributes its x and y values; translation-invariant points
    draw in blue, period-two points in red.  No plotting library involved:
    the file is assembled as text.
    """
    if not rows:
        raise ParameterError("nothing to plot: empty row list")
    width, height, margin = 900, 600, 60.0
    thetas = [r.theta for r in rows]
    values = [v for r in rows for v in (r.x, r.y)]
    t_lo, t_hi = min(thetas), max(thetas)
    v_lo, v_hi = min(values), max(values)
    t_span = (t_hi - t_lo) or 1.0
    v_span = (v_hi - v_lo) or 1.0

    def sx(t: float) -> float:
        return margin + (t - t_lo) / t_span * (width - 2 * margin)

    def sy(v: float) -> float:
        return height - margin - (v - v_lo) / v_span * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<text x="{width / 2:.1f}" y="{height - 15}" text-anchor="middle" '
        f'font-size="14">theta</text>',
        f'<text x="18" y="{height / 2:.1f}" text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 18 {height / 2:.1f})">branch value</text>',
        f'<text x="{margin}" y="{height - margin + 20}" text-anchor="middle" '
        f'font-size="12">{t_lo:.4g}</text>',
        f'<text x="{width - margin}" y="{height - margin + 20}" text-anchor="middle" '
        f'font-size="12">{t_hi:.4g}</text>',
        f'<text x="{margin - 8}" y="{height - margin + 4}" text-anchor="end" '
        f'font-size="12">{v_lo:.4g}</text>',
        f'<text x="{margin - 8}" y="{margin + 4}" text-anchor="end" '
        f'font-size="12">{v_hi:.4g}</text>',
    ]
    for r in rows:
        color = _SVG_COLORS.get(r.classification, "#777777")
        for v in (r.x, r.y):
            parts.append(
                f'<circle cx="{sx(r.theta):.2f}" cy="{sy(v):.2f}" r="2.2" '
                f'fill="{color}" fill-opacity="0.75"/>'
            )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts))
