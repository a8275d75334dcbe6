"""Plain-text rendering of analysis results.

The benchmark harness prints the same rows/series the paper reports; these
helpers keep that output consistent: fixed-width tables, reliability series
in the Figure 6 layout, and an ASCII sparkline for quick shape checks in
terminal logs.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.analysis.comparison import AssemblyComparison
from repro.analysis.sweep import SweepResult

__all__ = ["format_table", "format_sweep", "format_comparison", "sparkline"]

_BLOCKS = "▁▂▃▄▅▆▇█"
_GAP = "·"


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    float_format: str = "{:.6g}",
) -> str:
    """A fixed-width text table."""
    rendered: list[list[str]] = []
    for row in rows:
        rendered.append(
            [
                float_format.format(cell) if isinstance(cell, float) else str(cell)
                for cell in row
            ]
        )
    widths = [
        max(len(str(headers[i])), *(len(r[i]) for r in rendered)) if rendered
        else len(str(headers[i]))
        for i in range(len(headers))
    ]
    def fmt(cells: Sequence[str]) -> str:
        return "  ".join(str(c).rjust(w) for c, w in zip(cells, widths))

    lines = [fmt([str(h) for h in headers]), fmt(["-" * w for w in widths])]
    lines += [fmt(r) for r in rendered]
    return "\n".join(lines)


def sparkline(values: Sequence[float]) -> str:
    """A one-line unicode sparkline of a series (useful in bench logs).

    Non-finite values (e.g. the NaN points of a quarantined sweep unit)
    render as ``·``; the rest scale over the finite range.
    """
    arr = np.asarray(values, dtype=float)
    finite = np.isfinite(arr)
    if not finite.any():
        return _GAP * arr.size
    low, high = float(arr[finite].min()), float(arr[finite].max())
    scale = (len(_BLOCKS) - 1) / (high - low) if high > low else 0.0
    levels = np.rint((np.where(finite, arr, low) - low) * scale).astype(int)
    return "".join(
        _BLOCKS[level] if ok else _GAP for level, ok in zip(levels, finite)
    )


def format_sweep(sweep: SweepResult, max_rows: int = 20) -> str:
    """Render one reliability series with an evenly thinned row sample."""
    rows = sweep.rows()
    if len(rows) > max_rows:
        indexes = np.linspace(0, len(rows) - 1, max_rows).astype(int)
        rows = [rows[i] for i in indexes]
    header = (
        f"{sweep.assembly} / {sweep.service}: reliability vs {sweep.parameter} "
        f"(fixed: {dict(sweep.fixed)})\n"
        f"shape: {sparkline(sweep.reliability)}"
    )
    table = format_table(
        [sweep.parameter, "Pfail", "reliability"],
        [(v, p, r) for v, p, r in rows],
        float_format="{:.6e}",
    )
    return f"{header}\n{table}"


def format_comparison(comparison: AssemblyComparison, max_rows: int = 16) -> str:
    """Render a two-assembly comparison with winners and crossovers."""
    rows = comparison.rows()
    if len(rows) > max_rows:
        indexes = np.linspace(0, len(rows) - 1, max_rows).astype(int)
        rows = [rows[i] for i in indexes]
    name_a = comparison.sweep_a.assembly
    name_b = comparison.sweep_b.assembly
    lines = [
        f"{name_a} (A) vs {name_b} (B) on {comparison.sweep_a.service} "
        f"over {comparison.sweep_a.parameter}",
        format_table(
            [comparison.sweep_a.parameter, f"R({name_a})", f"R({name_b})", "winner"],
            rows,
            float_format="{:.8f}",
        ),
    ]
    if comparison.crossovers:
        points = ", ".join(f"{c.location:.4g}" for c in comparison.crossovers)
        lines.append(f"ranking flips at {comparison.sweep_a.parameter} = {points}")
    else:
        dominant = comparison.dominant()
        lines.append(f"no crossover on the grid; {dominant} dominates" if dominant
                     else "no crossover detected")
    return "\n".join(lines)
