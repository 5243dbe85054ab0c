"""Minimal native SVG rendering: bars, scatter, heatmap, force strips.

The CSV files are the authoritative artifacts; these renderers are a
dependency-free convenience and produce byte-deterministic output for
identical inputs.
"""

from __future__ import annotations

from typing import Sequence

MARGIN_LEFT = 150
MARGIN_RIGHT = 30
MARGIN_TOP = 40
MARGIN_BOTTOM = 50

WIDTH = 640          # every figure but the heatmap
HEATMAP_WIDTH = 480
SCATTER_HEIGHT = 420

POS_COLOR = "#d62728"
NEG_COLOR = "#1f77b4"
BAR_COLOR = "#4878a8"


def _svg_open(width: int, height: int, title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.0f}" y="24" text-anchor="middle" font-size="15">{_escape(title)}</text>',
    ]


def _escape(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _axis_label(lines: list[str], width: int, height: int, xlabel: str, ylabel: str) -> None:
    lines.append(
        f'<text x="{(MARGIN_LEFT + width - MARGIN_RIGHT) / 2:.0f}" y="{height - 12}" '
        f'text-anchor="middle" font-size="12">{_escape(xlabel)}</text>'
    )
    lines.append(
        f'<text x="16" y="{(MARGIN_TOP + height - MARGIN_BOTTOM) / 2:.0f}" text-anchor="middle" '
        f'font-size="12" transform="rotate(-90 16 {(MARGIN_TOP + height - MARGIN_BOTTOM) / 2:.0f})">'
        f"{_escape(ylabel)}</text>"
    )


def bar_chart(
    labels: Sequence[str],
    values: Sequence[float],
    title: str,
    xlabel: str = "value",
) -> str:
    """Horizontal bar chart, one bar per label, in the order given."""
    n = len(labels)
    row_h = 28
    height = MARGIN_TOP + n * row_h + MARGIN_BOTTOM
    span = max((abs(v) for v in values), default=0.0) or 1.0
    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    lines = _svg_open(WIDTH, height, title)
    for i, (label, v) in enumerate(zip(labels, values)):
        y = MARGIN_TOP + i * row_h
        w = abs(v) / span * plot_w
        lines.append(
            f'<text x="{MARGIN_LEFT - 8}" y="{y + row_h * 0.65:.1f}" text-anchor="end" '
            f'font-size="12">{_escape(str(label))}</text>'
        )
        lines.append(
            f'<rect x="{MARGIN_LEFT}" y="{y + 4}" width="{w:.2f}" height="{row_h - 10}" '
            f'fill="{BAR_COLOR if v >= 0 else NEG_COLOR}"/>'
        )
        lines.append(
            f'<text x="{MARGIN_LEFT + w + 5:.2f}" y="{y + row_h * 0.65:.1f}" '
            f'font-size="11">{v:.4g}</text>'
        )
    _axis_label(lines, WIDTH, height, xlabel, "")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _scale(vals: Sequence[float], lo_px: float, hi_px: float) -> tuple[float, float]:
    """Affine map data range -> pixel range; returns (offset, gain)."""
    v_min = min(vals)
    v_max = max(vals)
    if v_max == v_min:
        v_min -= 0.5
        v_max += 0.5
    gain = (hi_px - lo_px) / (v_max - v_min)
    return v_min, gain


def scatter(
    xs: Sequence[float],
    ys: Sequence[float],
    title: str,
    xlabel: str,
    ylabel: str,
) -> str:
    """Scatter plot with auto-scaled axes and min/max tick labels."""
    lines = _svg_open(WIDTH, SCATTER_HEIGHT, title)
    x0_px, x1_px = MARGIN_LEFT, WIDTH - MARGIN_RIGHT
    y0_px, y1_px = SCATTER_HEIGHT - MARGIN_BOTTOM, MARGIN_TOP
    lines.append(
        f'<rect x="{x0_px}" y="{y1_px}" width="{x1_px - x0_px}" height="{y0_px - y1_px}" '
        f'fill="none" stroke="#999"/>'
    )
    if xs:
        x_min, x_gain = _scale(xs, x0_px, x1_px)
        y_min, y_gain = _scale(ys, y0_px, y1_px)
        for x, y in zip(xs, ys):
            px = x0_px + (x - x_min) * x_gain
            py = y0_px + (y - y_min) * y_gain
            lines.append(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="3" fill="{BAR_COLOR}" fill-opacity="0.6"/>')
        lines.append(
            f'<text x="{x0_px}" y="{y0_px + 16}" font-size="10" text-anchor="middle">{min(xs):.4g}</text>'
        )
        lines.append(
            f'<text x="{x1_px}" y="{y0_px + 16}" font-size="10" text-anchor="middle">{max(xs):.4g}</text>'
        )
        lines.append(
            f'<text x="{x0_px - 6}" y="{y0_px}" font-size="10" text-anchor="end">{min(ys):.4g}</text>'
        )
        lines.append(
            f'<text x="{x0_px - 6}" y="{y1_px + 10}" font-size="10" text-anchor="end">{max(ys):.4g}</text>'
        )
    _axis_label(lines, WIDTH, SCATTER_HEIGHT, xlabel, ylabel)
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def heatmap(
    matrix: Sequence[Sequence[float]],
    row_labels: Sequence[str],
    col_labels: Sequence[str],
    title: str,
) -> str:
    """Annotated heatmap; darker cells hold larger values."""
    n_rows = len(row_labels)
    n_cols = len(col_labels)
    cell = max(40, (HEATMAP_WIDTH - MARGIN_LEFT - MARGIN_RIGHT) // max(n_cols, 1))
    height = MARGIN_TOP + n_rows * cell + MARGIN_BOTTOM
    peak = max((max(row) for row in matrix), default=0) or 1
    lines = _svg_open(HEATMAP_WIDTH, height, title)
    for j, cl in enumerate(col_labels):
        cx = MARGIN_LEFT + j * cell + cell / 2
        lines.append(
            f'<text x="{cx:.0f}" y="{MARGIN_TOP - 6}" text-anchor="middle" font-size="12">{_escape(str(cl))}</text>'
        )
    for i, rl in enumerate(row_labels):
        cy = MARGIN_TOP + i * cell + cell / 2
        lines.append(
            f'<text x="{MARGIN_LEFT - 8}" y="{cy + 4:.0f}" text-anchor="end" font-size="12">{_escape(str(rl))}</text>'
        )
        for j in range(n_cols):
            v = matrix[i][j]
            shade = 1.0 - 0.82 * (v / peak)
            rgb = f"rgb({int(255 * shade)},{int(255 * min(1.0, shade + 0.08))},255)"
            x = MARGIN_LEFT + j * cell
            y = MARGIN_TOP + i * cell
            lines.append(f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" fill="{rgb}" stroke="#777"/>')
            lines.append(
                f'<text x="{x + cell / 2:.0f}" y="{y + cell / 2 + 4:.0f}" text-anchor="middle" '
                f'font-size="13">{v:.4g}</text>'
            )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def strip_plot(
    groups: Sequence[tuple[str, Sequence[float]]],
    title: str,
    xlabel: str,
) -> str:
    """One jittered horizontal strip of points per group.

    Jitter is a fixed function of the point index, keeping output
    deterministic.
    """
    n = len(groups)
    row_h = 34
    height = MARGIN_TOP + n * row_h + MARGIN_BOTTOM
    all_vals = [v for _, vals in groups for v in vals] or [0.0]
    lines = _svg_open(WIDTH, height, title)
    x0_px, x1_px = MARGIN_LEFT, WIDTH - MARGIN_RIGHT
    v_min, gain = _scale(all_vals, x0_px, x1_px)
    zero_px = x0_px + (0.0 - v_min) * gain
    if x0_px <= zero_px <= x1_px:
        lines.append(
            f'<line x1="{zero_px:.2f}" y1="{MARGIN_TOP}" x2="{zero_px:.2f}" '
            f'y2="{height - MARGIN_BOTTOM}" stroke="#bbb" stroke-dasharray="3,3"/>'
        )
    for i, (label, vals) in enumerate(groups):
        cy = MARGIN_TOP + i * row_h + row_h / 2
        lines.append(
            f'<text x="{MARGIN_LEFT - 8}" y="{cy + 4:.0f}" text-anchor="end" font-size="12">{_escape(str(label))}</text>'
        )
        for idx, v in enumerate(vals):
            px = x0_px + (v - v_min) * gain
            jitter = ((idx * 37) % 21 - 10) / 10.0 * (row_h * 0.32)
            color = POS_COLOR if v > 0 else NEG_COLOR
            lines.append(
                f'<circle cx="{px:.2f}" cy="{cy + jitter:.2f}" r="2.4" fill="{color}" fill-opacity="0.55"/>'
            )
    _axis_label(lines, WIDTH, height, xlabel, "")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def force_chart(
    entries: Sequence[tuple[str, float, float]],
    base_value: float,
    margin: float,
    title: str,
) -> str:
    """Waterfall of (name, raw value, phi) pushes from base to margin."""
    n = len(entries)
    row_h = 30
    height = MARGIN_TOP + (n + 2) * row_h + MARGIN_BOTTOM
    lines = _svg_open(WIDTH, height, title)
    positions = [base_value]
    for _, _, phi in entries:
        positions.append(positions[-1] + phi)
    lo = min(positions)
    hi = max(positions)
    x0_px, x1_px = MARGIN_LEFT, WIDTH - MARGIN_RIGHT
    v_min, gain = _scale([lo, hi], x0_px, x1_px)

    def px(v: float) -> float:
        return x0_px + (v - v_min) * gain

    lines.append(
        f'<text x="{MARGIN_LEFT - 8}" y="{MARGIN_TOP + row_h * 0.65:.0f}" text-anchor="end" '
        f'font-size="12">base {base_value:.4g}</text>'
    )
    lines.append(
        f'<line x1="{px(base_value):.2f}" y1="{MARGIN_TOP}" x2="{px(base_value):.2f}" '
        f'y2="{height - MARGIN_BOTTOM}" stroke="#bbb" stroke-dasharray="3,3"/>'
    )
    running = base_value
    for i, (name, value, phi) in enumerate(entries):
        y = MARGIN_TOP + (i + 1) * row_h
        start, end = px(running), px(running + phi)
        color = POS_COLOR if phi > 0 else NEG_COLOR
        lines.append(
            f'<text x="{MARGIN_LEFT - 8}" y="{y + row_h * 0.65:.0f}" text-anchor="end" '
            f'font-size="12">{_escape(name)}={value:.4g}</text>'
        )
        lines.append(
            f'<rect x="{min(start, end):.2f}" y="{y + 6}" width="{abs(end - start):.2f}" '
            f'height="{row_h - 12}" fill="{color}"/>'
        )
        running += phi
    y = MARGIN_TOP + (n + 1) * row_h
    lines.append(
        f'<text x="{MARGIN_LEFT - 8}" y="{y + row_h * 0.65:.0f}" text-anchor="end" '
        f'font-size="12">margin {margin:.4g}</text>'
    )
    lines.append(
        f'<line x1="{px(margin):.2f}" y1="{MARGIN_TOP}" x2="{px(margin):.2f}" '
        f'y2="{height - MARGIN_BOTTOM}" stroke="#444"/>'
    )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
