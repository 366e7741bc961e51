"""Plain-text SVG emitters for timelines and matrices.

No raster or plotting dependencies: every figure is a deterministic
string, byte-identical for identical inputs, so plots can be diffed
and golden-tested like any other output file.
"""

from __future__ import annotations

import html
from itertools import chain
from typing import Sequence

from .core import ObservationStream, touching_runs
from .metrics import CountMatrix

__all__ = [
    "gantt_svg",
    "heatmap_svg",
    "transition_heatmap_svg",
]

# Qualitative palette; codes are assigned in sorted order, cycling.
_PALETTE = (
    "#4e79a7",
    "#f28e2b",
    "#e15759",
    "#76b7b2",
    "#59a14f",
    "#edc948",
    "#b07aa1",
    "#ff9da7",
    "#9c755f",
    "#bab0ac",
    "#86bcb6",
    "#d37295",
)

_FONT = 'font-family="sans-serif"'


def _escape(text: str) -> str:
    """Escape &, < and > for SVG text content (quotes need no escape there)."""
    return html.escape(text, quote=False)


def _num(v: float) -> str:
    text = f"{v:.2f}"
    return text.rstrip("0").rstrip(".") if "." in text else text


def _svg(width: int, height: int, title: str, title_y: int, body: list[str]) -> str:
    """An SVG document: a white background, the title (if any) centred at
    ``title_y``, then the elements in ``body``."""
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{width / 2:.1f}" y="{title_y}" text-anchor="middle" {_FONT} '
            f'font-size="14">{_escape(title)}</text>'
        )
    return "\n".join([*parts, *body, "</svg>"]) + "\n"


def gantt_svg(
    rows: Sequence[tuple[str, ObservationStream]],
    width: int = 900,
    title: str = "",
) -> str:
    """Behavior timeline chart, one horizontal lane per stream.

    rows pairs a lane label with a stream. All lanes share one axis in
    the streams' unit, spanning the earliest to the latest interval edge.
    Touching intervals with one code are drawn as one bar.
    """
    lanes = [
        (label, touching_runs(stream.starts, stream.ends, stream.codes)) for label, stream in rows
    ]
    edges = (chain.from_iterable(zip(starts, ends)) for _, (starts, ends, _) in lanes)
    all_edges = list(chain.from_iterable(edges))
    if not all_edges:
        raise ValueError("nothing to plot")
    t0, t1 = min(all_edges), max(all_edges)
    if t1 <= t0:
        t1 = t0 + 1.0
    codes = sorted({code for _, (_, _, lane_codes) in lanes for code in lane_codes})
    color = {code: _PALETTE[i % len(_PALETTE)] for i, code in enumerate(codes)}

    margin_left, margin_top = 120, 40 if title else 16
    row_h, bar_h = 26, 18
    legend_h = 26
    plot_w = width - margin_left - 16
    height = margin_top + row_h * len(lanes) + legend_h + 24

    def sx(t: float) -> float:
        return margin_left + (t - t0) / (t1 - t0) * plot_w

    parts = []
    for i, (label, (starts, ends, lane_codes)) in enumerate(lanes):
        y = margin_top + i * row_h
        parts.append(
            f'<text x="{margin_left - 8}" y="{y + bar_h - 4}" text-anchor="end" {_FONT} '
            f'font-size="12">{_escape(label)}</text>'
        )
        for s, e, code in zip(starts, ends, lane_codes):
            x, x2 = sx(s), sx(e)
            parts.append(
                f'<rect x="{x:.2f}" y="{y}" width="{max(x2 - x, 0.5):.2f}" height="{bar_h}" '
                f'fill="{color[code]}"><title>{_escape(code)}: {_num(s)}-{_num(e)}</title></rect>'
            )
    legend_y = margin_top + row_h * len(lanes) + 16
    x = margin_left
    for code in codes:
        parts.append(f'<rect x="{x}" y="{legend_y}" width="12" height="12" fill="{color[code]}"/>')
        parts.append(
            f'<text x="{x + 16}" y="{legend_y + 10}" {_FONT} font-size="11">{_escape(code)}</text>'
        )
        x += 24 + 8 * len(code)
    return _svg(width, height, title, 20, parts)


def _cell_color(v: float) -> str:
    """White through a dark blue, linear in v clipped to [0, 1]."""
    v = min(max(v, 0.0), 1.0)
    r = round(255 + (26 - 255) * v)
    g = round(255 + (58 - 255) * v)
    b = round(255 + (110 - 255) * v)
    return f"#{r:02x}{g:02x}{b:02x}"


def heatmap_svg(
    row_labels: Sequence[str],
    col_labels: Sequence[str],
    values: Sequence[Sequence[float]],
    title: str = "",
) -> str:
    """Matrix heatmap with per-cell value text; values belong in [0, 1]."""
    n_rows, n_cols = len(row_labels), len(col_labels)
    if len(values) != n_rows or any(len(row) != n_cols for row in values):
        raise ValueError("values shape does not match labels")
    cell = 52
    margin_left, margin_top = 110, 70 if title else 50
    width = margin_left + n_cols * cell + 16
    height = margin_top + n_rows * cell + 16
    parts = []
    for j, label in enumerate(col_labels):
        x = margin_left + j * cell + cell / 2
        parts.append(
            f'<text x="{x:.1f}" y="{margin_top - 8}" text-anchor="middle" {_FONT} '
            f'font-size="12">{_escape(label)}</text>'
        )
    for i, label in enumerate(row_labels):
        y = margin_top + i * cell + cell / 2 + 4
        parts.append(
            f'<text x="{margin_left - 8}" y="{y:.1f}" text-anchor="end" {_FONT} '
            f'font-size="12">{_escape(label)}</text>'
        )
        for j in range(n_cols):
            v = float(values[i][j])
            x = margin_left + j * cell
            yc = margin_top + i * cell
            text_fill = "white" if v > 0.5 else "#333333"
            parts.append(
                f'<rect x="{x}" y="{yc}" width="{cell}" height="{cell}" '
                f'fill="{_cell_color(v)}" stroke="#dddddd"/>'
            )
            parts.append(
                f'<text x="{x + cell / 2:.1f}" y="{yc + cell / 2 + 4:.1f}" text-anchor="middle" '
                f'{_FONT} font-size="11" fill="{text_fill}">{v:.2f}</text>'
            )
    return _svg(width, height, title, 22, parts)


def transition_heatmap_svg(matrix: CountMatrix, title: str = "") -> str:
    return heatmap_svg(matrix.codes, matrix.codes, matrix.probabilities, title)
