"""Static SVG rendering of experiment reports, in the standard library only.

One polyline per (policy, rate, seed) curve of ec_block against frame
index; prediction overlays (`pred_*` policies) draw dashed. This is a
convenience for eyeballing results, not an analysis tool. It reads the
rows of `graphelim.report` and imports no numpy, so `graphelim report`
runs without it.
"""

from __future__ import annotations

from pathlib import Path

from .report import ReportRow

WIDTH, HEIGHT = 880, 520
MARGIN_LEFT, MARGIN_RIGHT = 70, 170
MARGIN_TOP, MARGIN_BOTTOM = 30, 50

_COLORS = {
    "full": "#333333",
    "rand": "#d62728",
    "tgreedy": "#9467bd",
    "kf": "#2ca02c",
    "dec": "#1f77b4",
    "pred_kf": "#2ca02c",
    "pred_dec": "#1f77b4",
}


def _curve_label(policy: str, rate: int, seed: int, multi_seed: bool) -> str:
    label = policy if policy == "full" else f"{policy} r={rate}"
    if multi_seed and policy == "rand":
        label += f" s={seed}"
    return label


def render_report_svg(rows: list[ReportRow]) -> str:
    curves: dict[tuple[str, int, int], list[tuple[int, float]]] = {}
    for r in rows:
        curves.setdefault((r.policy, r.rate, r.seed), []).append(
            (r.frame_idx, r.ec_block)
        )
    if not curves:
        raise ValueError("no rows to plot")
    xs = [x for pts in curves.values() for x, _ in pts]
    ys = [y for pts in curves.values() for _, y in pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = 0.0, max(ys) or 1.0
    span_x = (x_hi - x_lo) or 1
    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def sx(x: float) -> float:
        return MARGIN_LEFT + (x - x_lo) / span_x * plot_w

    def sy(y: float) -> float:
        return MARGIN_TOP + (1.0 - (y - y_lo) / (y_hi - y_lo)) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}"'
        f' viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<line x1="{MARGIN_LEFT}" y1="{sy(y_lo):.1f}" x2="{WIDTH - MARGIN_RIGHT}"'
        f' y2="{sy(y_lo):.1f}" stroke="black"/>',
        f'<line x1="{MARGIN_LEFT}" y1="{MARGIN_TOP}" x2="{MARGIN_LEFT}"'
        f' y2="{sy(y_lo):.1f}" stroke="black"/>',
        f'<text x="{WIDTH // 2}" y="{HEIGHT - 12}" font-size="13"'
        f' text-anchor="middle">frame</text>',
        f'<text x="{MARGIN_LEFT}" y="{MARGIN_TOP - 8}" font-size="13">'
        f"elimination cost (max {y_hi:.3g})</text>",
        f'<text x="{MARGIN_LEFT - 6}" y="{sy(y_lo) + 4:.1f}" font-size="11"'
        f' text-anchor="end">0</text>',
        f'<text x="{sx(x_lo):.1f}" y="{sy(y_lo) + 16:.1f}" font-size="11"'
        f' text-anchor="middle">{x_lo}</text>',
        f'<text x="{sx(x_hi):.1f}" y="{sy(y_lo) + 16:.1f}" font-size="11"'
        f' text-anchor="middle">{x_hi}</text>',
    ]

    multi_seed = len({s for (p, _, s) in curves if p == "rand"}) > 1
    legend_y = MARGIN_TOP + 10
    for (policy, rate, seed), pts in sorted(curves.items()):
        pts.sort()
        coords = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in pts)
        color = _COLORS.get(policy, "#888888")
        dash = ' stroke-dasharray="7 5"' if policy.startswith("pred_") else ""
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.6"{dash}'
            f' points="{coords}"/>'
        )
        lx = WIDTH - MARGIN_RIGHT + 12
        parts.append(
            f'<line x1="{lx}" y1="{legend_y}" x2="{lx + 26}" y2="{legend_y}"'
            f' stroke="{color}" stroke-width="1.6"{dash}/>'
        )
        parts.append(
            f'<text x="{lx + 32}" y="{legend_y + 4}" font-size="12">'
            f"{_curve_label(policy, rate, seed, multi_seed)}</text>"
        )
        legend_y += 18
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_report_svg(rows: list[ReportRow], path: str | Path) -> None:
    Path(path).write_text(render_report_svg(rows), encoding="utf-8", newline="\n")
