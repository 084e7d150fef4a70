"""Minimal deterministic SVG line charts.

Hand-rolled rather than delegated to a plotting library so identical inputs
produce byte-identical files (no timestamps, no generated ids).
"""

import math

__all__ = ["render_line_chart"]

WIDTH = 720
HEIGHT = 480
MARGIN_L = 70
MARGIN_R = 170
MARGIN_T = 30
MARGIN_B = 60

PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd",
           "#8c564b", "#e377c2", "#7f7f7f"]


def _fmt(x):
    return "%.6g" % x


def _ticks(lo, hi, n=6):
    if hi == lo:
        return [lo]
    span = hi - lo
    raw = span / (n - 1)
    mag = 10.0 ** int(("%e" % raw).split("e")[1])
    for mult in (1, 2, 2.5, 5, 10):
        step = mult * mag
        if span / step <= n:
            break
    first = step * round(lo / step)
    ticks = []
    t = first
    while t <= hi + 1e-9 * span:
        if t >= lo - 1e-9 * span:
            ticks.append(t)
        t += step
    return ticks or [lo, hi]


def render_line_chart(series, x_label, y_label, title=""):
    """Render named (xs, ys) series into an SVG document string.

    series: list of (name, xs, ys); a point with a NaN or infinite coordinate
    is left out, and a chart without points (or series) draws its frame,
    labels and legend only. Single points are drawn as markers. Y-range
    covers all series with a 5% margin.
    """
    series = [(name, [(x, y) for x, y in zip(xs, ys)
                      if math.isfinite(x) and math.isfinite(y)])
              for name, xs, ys in series]
    all_x = [x for _, points in series for x, _ in points]
    all_y = [y for _, points in series for _, y in points]
    x_lo, x_hi = (min(all_x), max(all_x)) if all_x else (0.0, 1.0)
    y_lo, y_hi = (min(all_y), max(all_y)) if all_y else (0.0, 1.0)
    y_pad = 0.05 * (y_hi - y_lo) if y_hi > y_lo else max(1.0, abs(y_hi) * 0.05)
    y_lo -= y_pad
    y_hi += y_pad
    if x_hi == x_lo:
        x_lo -= 1.0
        x_hi += 1.0

    pw = WIDTH - MARGIN_L - MARGIN_R
    ph = HEIGHT - MARGIN_T - MARGIN_B

    def sx(x):
        return MARGIN_L + pw * (x - x_lo) / (x_hi - x_lo)

    def sy(y):
        return MARGIN_T + ph * (1.0 - (y - y_lo) / (y_hi - y_lo))

    out = []
    out.append('<?xml version="1.0" encoding="UTF-8"?>')
    out.append('<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
               'viewBox="0 0 %d %d" font-family="sans-serif" font-size="12">'
               % (WIDTH, HEIGHT, WIDTH, HEIGHT))
    out.append('<rect width="%d" height="%d" fill="white"/>' % (WIDTH, HEIGHT))
    out.append('<rect x="%d" y="%d" width="%d" height="%d" fill="none" '
               'stroke="black"/>' % (MARGIN_L, MARGIN_T, pw, ph))

    for t in _ticks(x_lo, x_hi) if all_x else []:
        px = sx(t)
        out.append('<line x1="%s" y1="%d" x2="%s" y2="%d" stroke="black"/>'
                   % (_fmt(px), MARGIN_T + ph, _fmt(px), MARGIN_T + ph + 5))
        out.append('<text x="%s" y="%d" text-anchor="middle">%s</text>'
                   % (_fmt(px), MARGIN_T + ph + 20, _fmt(t)))
    for t in _ticks(y_lo, y_hi) if all_y else []:
        py = sy(t)
        out.append('<line x1="%d" y1="%s" x2="%d" y2="%s" stroke="black"/>'
                   % (MARGIN_L - 5, _fmt(py), MARGIN_L, _fmt(py)))
        out.append('<text x="%d" y="%s" text-anchor="end" dy="4">%s</text>'
                   % (MARGIN_L - 8, _fmt(py), _fmt(t)))

    out.append('<text x="%s" y="%d" text-anchor="middle">%s</text>'
               % (_fmt(MARGIN_L + pw / 2), HEIGHT - 15, x_label))
    out.append('<text x="18" y="%s" text-anchor="middle" '
               'transform="rotate(-90 18 %s)">%s</text>'
               % (_fmt(MARGIN_T + ph / 2), _fmt(MARGIN_T + ph / 2), y_label))
    if title:
        out.append('<text x="%s" y="20" text-anchor="middle" font-size="14">%s'
                   '</text>' % (_fmt(MARGIN_L + pw / 2), title))

    for i, (name, points) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        pts = " ".join("%s,%s" % (_fmt(sx(x)), _fmt(sy(y))) for x, y in points)
        if len(points) > 1:
            out.append('<polyline points="%s" fill="none" stroke="%s" '
                       'stroke-width="1.5"/>' % (pts, color))
        for x, y in points:
            out.append('<circle cx="%s" cy="%s" r="3" fill="%s"/>'
                       % (_fmt(sx(x)), _fmt(sy(y)), color))
        ly = MARGIN_T + 18 + 18 * i
        lx = MARGIN_L + pw + 12
        out.append('<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="%s" '
                   'stroke-width="1.5"/>' % (lx, ly - 4, lx + 22, ly - 4, color))
        out.append('<text x="%d" y="%d">%s</text>' % (lx + 28, ly, name))

    out.append('</svg>')
    return "\n".join(out) + "\n"
