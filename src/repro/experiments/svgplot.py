"""Dependency-free SVG line charts for the figure reproductions.

matplotlib is not available offline, but the figures the paper plots are
simple multi-series line charts; this module renders them as standalone
SVG files so the reproduction can produce *actual figures*
(``python -m repro plot fig3`` writes one SVG per figure row per policy).

The renderer is intentionally small: linear axes with tick labels, one
polyline per series, a legend, and a title.  No external dependencies.
"""

from __future__ import annotations

import html

import numpy as np

from repro.sim.tracing import TraceSeries

#: Default series colours (colour-blind-safe categorical palette).
PALETTE = (
    "#0072B2",  # blue
    "#D55E00",  # vermilion
    "#009E73",  # green
    "#CC79A7",  # purple
    "#E69F00",  # orange
    "#56B4E9",  # sky
)
#: Chart size (pixels) and x-axis label: every chart plots a trace over
#: simulated time.
WIDTH = 720
HEIGHT = 320
X_LABEL = "time (s)"
#: Ticks an axis aims for.
N_TICKS = 5


def _ticks(lo: float, hi: float) -> list[float]:
    """Round-ish tick positions covering [lo, hi]."""
    if hi <= lo:
        hi = lo + 1.0
    raw_step = (hi - lo) / (N_TICKS - 1)
    mag = 10.0 ** np.floor(np.log10(raw_step))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * mag
        if step >= raw_step:
            break
    start = np.ceil(lo / step) * step
    out = []
    t = start
    while t <= hi + 1e-9:
        out.append(float(t))
        t += step
    return out or [lo, hi]


def line_chart(
    series: dict[str, TraceSeries],
    title: str,
    path: str,
    y_label: str = "",
    y_scale: float = 1.0,
) -> None:
    """Render the series as a standalone SVG file.

    Parameters
    ----------
    series:
        Legend label -> series; all drawn on shared axes.
    title:
        Chart title.
    path:
        Output file (conventionally ``.svg``).
    y_scale:
        Multiplier applied to every value before plotting (e.g. 1000 to
        plot seconds as milliseconds).
    """
    if not series:
        raise ValueError("no series to plot")
    ml, mr, mt, mb = 70, 160, 40, 50  # margins: left/right/top/bottom
    plot_w = WIDTH - ml - mr
    plot_h = HEIGHT - mt - mb

    xs_all = np.concatenate([s.times for s in series.values()])
    ys_all = np.concatenate([s.values for s in series.values()]) * y_scale
    if xs_all.size == 0:
        raise ValueError("all series are empty")
    x_lo, x_hi = float(xs_all.min()), float(xs_all.max())
    y_lo, y_hi = float(ys_all.min()), float(ys_all.max())
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    pad = 0.05 * (y_hi - y_lo) or 1.0
    y_lo -= pad
    y_hi += pad

    def sx(x: float) -> float:
        return ml + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return mt + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{ml}" y="{mt - 16}" font-family="sans-serif" '
        f'font-size="15" font-weight="bold">{html.escape(title)}</text>',
        # axes
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{mt + plot_h}" '
        'stroke="black"/>',
        f'<line x1="{ml}" y1="{mt + plot_h}" x2="{ml + plot_w}" '
        f'y2="{mt + plot_h}" stroke="black"/>',
    ]
    for tx in _ticks(x_lo, x_hi):
        parts.append(
            f'<line x1="{sx(tx):.1f}" y1="{mt + plot_h}" '
            f'x2="{sx(tx):.1f}" y2="{mt + plot_h + 5}" stroke="black"/>'
            f'<text x="{sx(tx):.1f}" y="{mt + plot_h + 18}" '
            'font-family="sans-serif" font-size="11" '
            f'text-anchor="middle">{tx:g}</text>'
        )
    for ty in _ticks(y_lo, y_hi):
        parts.append(
            f'<line x1="{ml - 5}" y1="{sy(ty):.1f}" x2="{ml}" '
            f'y2="{sy(ty):.1f}" stroke="black"/>'
            f'<text x="{ml - 8}" y="{sy(ty):.1f}" font-family="sans-serif" '
            f'font-size="11" text-anchor="end" '
            f'dominant-baseline="middle">{ty:g}</text>'
            f'<line x1="{ml}" y1="{sy(ty):.1f}" x2="{ml + plot_w}" '
            f'y2="{sy(ty):.1f}" stroke="#dddddd" stroke-width="0.5"/>'
        )
    parts.append(
        f'<text x="{ml + plot_w / 2:.0f}" y="{HEIGHT - 10}" '
        'font-family="sans-serif" font-size="12" '
        f'text-anchor="middle">{html.escape(X_LABEL)}</text>'
    )
    if y_label:
        parts.append(
            f'<text x="16" y="{mt + plot_h / 2:.0f}" '
            'font-family="sans-serif" font-size="12" text-anchor="middle" '
            f'transform="rotate(-90 16 {mt + plot_h / 2:.0f})">'
            f"{html.escape(y_label)}</text>"
        )

    for k, (label, s) in enumerate(sorted(series.items())):
        colour = PALETTE[k % len(PALETTE)]
        pts = " ".join(
            f"{sx(float(t)):.1f},{sy(float(v) * y_scale):.1f}"
            for t, v in zip(s.times, s.values)
        )
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{colour}" '
            'stroke-width="1.5"/>'
        )
        ly = mt + 14 + 18 * k
        parts.append(
            f'<line x1="{ml + plot_w + 10}" y1="{ly}" '
            f'x2="{ml + plot_w + 34}" y2="{ly}" stroke="{colour}" '
            'stroke-width="2"/>'
            f'<text x="{ml + plot_w + 40}" y="{ly + 4}" '
            'font-family="sans-serif" font-size="11">'
            f"{html.escape(label)}</text>"
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts))


def render_figure(
    results: dict,
    figure: str,
    prefix: str,
) -> list[str]:
    """Render a figure runner's results as SVG files (one per row/policy).

    Returns the written paths.
    """
    written = []
    rows = [
        ("rmttf/", "RMTTF (s)", 1.0),
        ("fraction/", "workload fraction f_i", 1.0),
        ("response_time", "response time (ms)", 1000.0),
    ]
    for policy, result in results.items():
        for prefix_key, label, scale in rows:
            series = {
                name.split("/")[-1] if "/" in name else name: s
                for name, s in result.traces.matching(prefix_key).items()
            }
            if not series:
                continue
            path = (
                f"{prefix}_{figure}_{policy}_"
                f"{prefix_key.rstrip('/').replace('/', '-')}.svg"
            )
            line_chart(
                series,
                title=f"{figure} {policy}: {label}",
                path=path,
                y_label=label,
                y_scale=scale,
            )
            written.append(path)
    return written
