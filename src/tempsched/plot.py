"""Trajectory artifacts: CSV tables and self-contained SVG panels.

These are the only places the package leaves exact arithmetic: values are
rendered as decimals with 12 significant digits, which is plenty for
plotting and spreadsheet work. Solver output stays rational everywhere
else.
"""

from __future__ import annotations

import csv
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from typing import Union

from .core import Trajectory


def approx(value: Fraction) -> Union[float, Decimal]:
    """`value` as a float, or as a Decimal where it is beyond the float range."""
    try:
        return float(value)
    except OverflowError:
        return Decimal(value.numerator) / value.denominator


def _dec(value: Fraction) -> str:
    """`value` to 12 significant digits, as `format(approx(value), ".12g")`
    gives it. Exact 0 and 1 are written directly; any other value is the
    correctly rounded quotient of its numerator and denominator, or a
    Decimal where that is beyond the float range."""
    num, den = value.numerator, value.denominator
    if den == 1 and 0 <= num <= 1:
        return "1" if num else "0"
    try:
        return format(num / den, ".12g")
    except OverflowError:
        return format(Decimal(num) / den, ".12g")


def emit_csv(trajectory: Trajectory, path: Union[str, Path]) -> None:
    """Write one row per breakpoint: time, then each job's load on the
    segment starting there (0 at the final breakpoint) and its temperature."""
    header = ["time"]
    columns = [[_dec(t) for t in trajectory.breakpoints]]
    last = ["0"] if trajectory.breakpoints else []
    for job_id, loads, temps in zip(trajectory.job_ids, trajectory.loads,
                                    trajectory.temperatures):
        header += [f"{job_id}.load", f"{job_id}.temp"]
        columns.append([_dec(s) for s in loads] + last)
        columns.append([_dec(t) for t in temps])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*columns))


_PANEL_W = 640
_PANEL_H = 110
_MARGIN_L = 60
_MARGIN_R = 20
_MARGIN_T = 24
_GAP = 34


def emit_svg(trajectory: Trajectory, path: Union[str, Path]) -> None:
    """Write one panel per job: gray boxes shade processing (darker means a
    higher fractional load), a red polyline tracks the temperature, and a
    dashed line marks the threshold at 1."""
    jobs = trajectory.job_ids
    njobs = max(len(jobs), 1)
    width = _MARGIN_L + _PANEL_W + _MARGIN_R
    height = _MARGIN_T + njobs * (_PANEL_H + _GAP)
    t_end = trajectory.end
    x_span = t_end if t_end > 0 else Fraction(1)

    # Positions divide in Fractions first, so that no value beyond the float
    # range is converted.
    def x(t: Fraction) -> float:
        return _MARGIN_L + float(t / x_span) * _PANEL_W

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" font-family="sans-serif" font-size="11">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for j, job_id in enumerate(trajectory.job_ids):
        top = _MARGIN_T + j * (_PANEL_H + _GAP)
        temps = trajectory.temperatures[j]
        y_max = max([Fraction(23, 20)] + [t * Fraction(23, 20) for t in temps])

        def y(v: Fraction, top=top, y_max=y_max) -> float:
            return top + _PANEL_H - float(v / y_max) * _PANEL_H

        parts.append('<g stroke="none">')
        nseg = max(len(trajectory.breakpoints) - 1, 0)
        for k in range(nseg):
            load = trajectory.loads[j][k]
            if load > 0:
                x0 = x(trajectory.breakpoints[k])
                x1 = x(trajectory.breakpoints[k + 1])
                opacity = min(0.15 + 0.55 * float(load), 0.75)
                parts.append(
                    f'<rect x="{x0:.2f}" y="{top}" width="{x1 - x0:.2f}" '
                    f'height="{_PANEL_H}" fill="#777" opacity="{opacity:.3f}"/>'
                )
        parts.append("</g>")
        # frame, threshold line, labels
        parts.append(
            f'<rect x="{_MARGIN_L}" y="{top}" width="{_PANEL_W}" height="{_PANEL_H}" '
            f'fill="none" stroke="#333" stroke-width="1"/>'
        )
        y1 = y(Fraction(1))
        parts.append(
            f'<line x1="{_MARGIN_L}" y1="{y1:.2f}" x2="{_MARGIN_L + _PANEL_W}" '
            f'y2="{y1:.2f}" stroke="#999" stroke-dasharray="5,4"/>'
        )
        parts.append(f'<text x="4" y="{y1 + 4:.2f}" fill="#555">T=1</text>')
        parts.append(
            f'<text x="{_MARGIN_L}" y="{top - 6}" fill="#000">job {job_id}</text>'
        )
        if trajectory.breakpoints:
            points = " ".join(
                f"{x(t):.2f},{y(temps[k]):.2f}"
                for k, t in enumerate(trajectory.breakpoints)
            )
            parts.append(
                f'<polyline points="{points}" fill="none" stroke="#c22" '
                f'stroke-width="1.5"/>'
            )
        parts.append(
            f'<text x="{_MARGIN_L}" y="{top + _PANEL_H + 14}" fill="#555">0</text>'
        )
        parts.append(
            f'<text x="{_MARGIN_L + _PANEL_W - 30}" y="{top + _PANEL_H + 14}" '
            f'fill="#555">t={_dec(t_end)}</text>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")
