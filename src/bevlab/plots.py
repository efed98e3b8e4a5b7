"""Minimal self-contained SVG plots.

A one-series line plot with axes, ticks, a title and axis labels, written
as plain SVG text. Output is deterministic: same data, byte-identical file.
"""

import math


class PlotError(ValueError):
    pass


COLOR = "#1f6fb2"

WIDTH, HEIGHT = 640, 420
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64, 20, 36, 48


def _nice_ticks(lo, hi, n=5):
    """Round tick positions covering [lo, hi]."""
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    raw = span / max(n - 1, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * mag
        if step >= raw:
            break
    start = math.floor(lo / step) * step
    ticks = []
    t = start
    while t <= hi + 0.5 * step:
        ticks.append(round(t, 10))
        t += step
    return ticks


def _fmt(v):
    if v == int(v) and abs(v) < 1e6:
        return str(int(v))
    return f"{v:.4g}"


def line_plot(path, xs, ys, title, x_label, y_label):
    """Writes the SVG line chart of one series, the points ``xs``, ``ys``.

    Points are drawn as small circles on top of the polyline so a single
    point remains visible.
    """
    xs, ys = [float(x) for x in xs], [float(y) for y in ys]
    if len(xs) != len(ys) or not xs:
        raise PlotError("the series needs equally many xs and ys, at least one")
    xt = _nice_ticks(min(xs), max(xs))
    yt = _nice_ticks(min(ys), max(ys))
    x0, x1 = xt[0], xt[-1]
    y0, y1 = yt[0], yt[-1]
    iw = WIDTH - MARGIN_L - MARGIN_R
    ih = HEIGHT - MARGIN_T - MARGIN_B

    def sx(x):
        return MARGIN_L + (x - x0) / (x1 - x0) * iw

    def sy(y):
        return MARGIN_T + ih - (y - y0) / (y1 - y0) * ih

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
           f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
           f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
           f'<text x="{WIDTH / 2:.1f}" y="20" text-anchor="middle" '
           f'font-family="sans-serif" font-size="14">{title}</text>']
    # frame and ticks
    out.append(f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{iw}" height="{ih}" '
               f'fill="none" stroke="#333" stroke-width="1"/>')
    for t in xt:
        px = sx(t)
        out.append(f'<line x1="{px:.1f}" y1="{MARGIN_T + ih}" x2="{px:.1f}" '
                   f'y2="{MARGIN_T + ih + 4}" stroke="#333"/>')
        out.append(f'<text x="{px:.1f}" y="{MARGIN_T + ih + 18}" '
                   f'text-anchor="middle" font-family="sans-serif" '
                   f'font-size="11">{_fmt(t)}</text>')
    for t in yt:
        py = sy(t)
        out.append(f'<line x1="{MARGIN_L - 4}" y1="{py:.1f}" x2="{MARGIN_L}" '
                   f'y2="{py:.1f}" stroke="#333"/>')
        out.append(f'<text x="{MARGIN_L - 8}" y="{py + 4:.1f}" '
                   f'text-anchor="end" font-family="sans-serif" '
                   f'font-size="11">{_fmt(t)}</text>')
        out.append(f'<line x1="{MARGIN_L}" y1="{py:.1f}" '
                   f'x2="{MARGIN_L + iw}" y2="{py:.1f}" stroke="#ddd" '
                   f'stroke-width="0.5"/>')
    out.append(f'<text x="{MARGIN_L + iw / 2:.1f}" y="{HEIGHT - 10}" '
               f'text-anchor="middle" font-family="sans-serif" '
               f'font-size="12">{x_label}</text>')
    cy = MARGIN_T + ih / 2
    out.append(f'<text x="16" y="{cy:.1f}" text-anchor="middle" '
               f'font-family="sans-serif" font-size="12" '
               f'transform="rotate(-90 16 {cy:.1f})">{y_label}</text>')
    pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
    out.append(f'<polyline points="{pts}" fill="none" stroke="{COLOR}" '
               f'stroke-width="1.5"/>')
    out += [f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="3" fill="{COLOR}"/>'
            for x, y in zip(xs, ys)]
    out.append("</svg>")
    with open(path, "w") as f:
        f.write("\n".join(out) + "\n")
