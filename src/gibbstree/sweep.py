"""Temperature sweeps, CSV serialization, and a dependency-free SVG plot.

A sweep solves the selected invariant sets on a grid of theta values and
flattens the results into rows.  Floats are serialized with repr, which
round-trips exactly, so a written file can be read back and compared
field-for-field.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .catalog import classify
from .errors import ParameterError, SelectorSyntaxError
from .invariants import InvariantSetId, ReducedScalar, SetKind
from .model import ModelParams
from .solver import solve_im, solve_im_prime

CSV_HEADER = "theta,set_kind,m,sol_index,x,y,z,t,classification,residual_full"


@dataclass(frozen=True)
class SweepRow:
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


def solve_set(params: ModelParams, set_id: InvariantSetId) -> list[ReducedScalar]:
    """Solve one invariant set, dropping mirror roots that fail to lift."""
    if set_id.kind is SetKind.IM:
        return solve_im(params, set_id.m)
    solutions, _ = solve_im_prime(params, set_id.m)
    return solutions


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


def rows_for(params: ModelParams, set_id: InvariantSetId) -> list[SweepRow]:
    """Solve one invariant set and flatten its solutions into classified rows."""
    rows = []
    for i, sol in enumerate(solve_set(params, set_id)):
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


def run_sweep(q: int, k: int, theta_min: float, theta_max: float, steps: int,
              set_ids: list[InvariantSetId]) -> list[SweepRow]:
    """Rows of every requested set at `steps` equally spaced theta values.

    Rows run theta by theta, set by set within one theta, and ascending in
    x within one set.
    """
    if not isinstance(steps, int) or steps < 1:
        raise ParameterError(f"steps must be a positive integer, got {steps!r}")
    if not 0.0 < theta_min <= theta_max < 1.0:
        raise ParameterError(
            f"need 0 < theta_min <= theta_max < 1, got [{theta_min}, {theta_max}]"
        )
    rows: list[SweepRow] = []
    for theta in np.linspace(theta_min, theta_max, steps):
        params = ModelParams(q=q, k=k, theta=float(theta))
        for set_id in set_ids:
            rows.extend(rows_for(params, set_id))
    return rows


def _fmt(value: float | None) -> str:
    return "" if value is None else repr(value)


def write_csv(rows: list[SweepRow], target) -> None:
    """Write rows to a path or text file object under the fixed header."""
    own = isinstance(target, (str, bytes))
    fh = open(target, "w", newline="") if own else target
    try:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER.split(","))
        for r in rows:
            writer.writerow([
                repr(r.theta), r.set_kind, r.m, r.sol_index,
                repr(r.x), repr(r.y), _fmt(r.z), _fmt(r.t),
                r.classification, repr(r.residual_full),
            ])
    finally:
        if own:
            fh.close()


def csv_text(rows: list[SweepRow]) -> str:
    buf = io.StringIO()
    write_csv(rows, buf)
    return buf.getvalue()


def read_csv(path) -> list[SweepRow]:
    """Read a sweep file back; exact float round-trip of write_csv output."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != CSV_HEADER.split(","):
            raise ParameterError(f"unexpected CSV header {header!r}")
        rows = []
        for rec in reader:
            if len(rec) != 10:
                raise ParameterError(f"expected 10 fields per row, got {len(rec)}")
            rows.append(SweepRow(
                theta=float(rec[0]),
                set_kind=rec[1],
                m=int(rec[2]),
                sol_index=int(rec[3]),
                x=float(rec[4]),
                y=float(rec[5]),
                z=float(rec[6]) if rec[6] else None,
                t=float(rec[7]) if rec[7] else None,
                classification=rec[8],
                residual_full=float(rec[9]),
            ))
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
