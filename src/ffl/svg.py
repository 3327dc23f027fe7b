"""Self-contained SVG log-log charts, written directly as text.

Fixed 800x600 viewBox, decade ticks, one polyline per series. Output is a
pure function of the inputs, so plots are byte-identical across runs.
"""

from __future__ import annotations

import math

WIDTH, HEIGHT = 800, 600
MARGIN = 60
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _decades(lo: float, hi: float):
    start = math.floor(math.log10(lo))
    stop = math.ceil(math.log10(hi))
    return [10.0 ** k for k in range(start, stop + 1)]


def log_log_plot(series, title: str = "", x_label: str = "", y_label: str = "",
                 comment: str = "") -> str:
    """Render [(xs, ys, label), ...] on log-log axes; nonpositive values
    are dropped per point, and with none left the axes span [1/2, 2]."""
    pts = []
    for xs, ys, _ in series:
        pts.extend((float(x), float(y)) for x, y in zip(xs, ys)
                   if x > 0 and y > 0)
    pts = pts or [(1.0, 1.0)]
    xlo = min(p[0] for p in pts); xhi = max(p[0] for p in pts)
    ylo = min(p[1] for p in pts); yhi = max(p[1] for p in pts)
    if xlo == xhi:
        xlo, xhi = xlo / 2, xhi * 2
    if ylo == yhi:
        ylo, yhi = ylo / 2, yhi * 2
    lx0, lx1 = math.log10(xlo), math.log10(xhi)
    ly0, ly1 = math.log10(ylo), math.log10(yhi)

    def px(x):
        return MARGIN + (math.log10(x) - lx0) / (lx1 - lx0) * (WIDTH - 2 * MARGIN)

    def py(y):
        return HEIGHT - MARGIN - (math.log10(y) - ly0) / (ly1 - ly0) * (HEIGHT - 2 * MARGIN)

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {WIDTH} {HEIGHT}">']
    if comment:
        out.append(f"<!-- {comment} -->")
    out.append(f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>')
    if title:
        out.append(f'<text x="{WIDTH / 2:.6g}" y="30" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="16">{title}</text>')
    axis = (f'<line x1="{MARGIN}" y1="{HEIGHT - MARGIN}" x2="{WIDTH - MARGIN}" '
            f'y2="{HEIGHT - MARGIN}" stroke="black"/>'
            f'<line x1="{MARGIN}" y1="{MARGIN}" x2="{MARGIN}" '
            f'y2="{HEIGHT - MARGIN}" stroke="black"/>')
    out.append(axis)
    for tick in _decades(xlo, xhi):
        if xlo <= tick <= xhi:
            x = px(tick)
            out.append(f'<line x1="{x:.6g}" y1="{HEIGHT - MARGIN}" x2="{x:.6g}" '
                       f'y2="{HEIGHT - MARGIN + 6}" stroke="black"/>')
            out.append(f'<text x="{x:.6g}" y="{HEIGHT - MARGIN + 22}" text-anchor="middle" '
                       f'font-family="sans-serif" font-size="11">{tick:.6g}</text>')
    for tick in _decades(ylo, yhi):
        if ylo <= tick <= yhi:
            y = py(tick)
            out.append(f'<line x1="{MARGIN - 6}" y1="{y:.6g}" x2="{MARGIN}" '
                       f'y2="{y:.6g}" stroke="black"/>')
            out.append(f'<text x="{MARGIN - 10}" y="{y + 4:.6g}" text-anchor="end" '
                       f'font-family="sans-serif" font-size="11">{tick:.6g}</text>')
    if x_label:
        out.append(f'<text x="{WIDTH / 2:.6g}" y="{HEIGHT - 12}" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="13">{x_label}</text>')
    if y_label:
        out.append(f'<text x="18" y="{HEIGHT / 2:.6g}" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="13" '
                   f'transform="rotate(-90 18 {HEIGHT / 2:.6g})">{y_label}</text>')
    for k, (xs, ys, label) in enumerate(series):
        colour = PALETTE[k % len(PALETTE)]
        coords = " ".join(f"{px(x):.3f},{py(y):.3f}"
                          for x, y in zip(xs, ys) if x > 0 and y > 0)
        if coords:
            out.append(f'<polyline points="{coords}" fill="none" '
                       f'stroke="{colour}" stroke-width="1.5"/>')
        if label:
            out.append(f'<text x="{WIDTH - MARGIN - 4}" y="{MARGIN + 16 + 16 * k}" '
                       f'text-anchor="end" font-family="sans-serif" font-size="12" '
                       f'fill="{colour}">{label}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
