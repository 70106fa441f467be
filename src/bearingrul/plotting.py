"""Small deterministic SVG line charts.

Hand-rolled rather than delegated to a plotting library so that re-running
a command byte-reproduces its artifacts (no embedded timestamps, ids or
font metrics).
"""

WIDTH = 720
HEIGHT = 420
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64, 16, 34, 44

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _span(values):
    """(min, max), a degenerate range widened by 1, or by its magnitude
    where adding 1 is lost to rounding (|v| of 2**53 and more)."""
    lo, hi = min(values), max(values)
    if hi == lo:
        hi = lo + 1.0 if lo + 1.0 != lo else lo + abs(lo)
    return lo, hi


def line_chart_svg(series, title: str = "", xlabel: str = "", ylabel: str = "") -> str:
    """Render [(name, xs, ys), ...] as a standalone SVG string."""
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys]
    x_lo, x_hi = _span(xs_all)
    y_lo, y_hi = _span(ys_all)
    pw = WIDTH - MARGIN_L - MARGIN_R
    ph = HEIGHT - MARGIN_T - MARGIN_B

    def px(x):
        return MARGIN_L + pw * (x - x_lo) / (x_hi - x_lo)

    def py(y):
        return MARGIN_T + ph * (1.0 - (y - y_lo) / (y_hi - y_lo))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{pw}" height="{ph}" '
        'fill="none" stroke="#cccccc"/>',
    ]
    if title:
        parts.append(f'<text x="{WIDTH // 2}" y="20" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="14">{title}</text>')
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        gx = MARGIN_L + pw * frac
        gy = MARGIN_T + ph * (1.0 - frac)
        xv = x_lo + (x_hi - x_lo) * frac
        yv = y_lo + (y_hi - y_lo) * frac
        parts.append(f'<line x1="{_fmt(gx)}" y1="{MARGIN_T}" x2="{_fmt(gx)}" '
                     f'y2="{MARGIN_T + ph}" stroke="#eeeeee"/>')
        parts.append(f'<line x1="{MARGIN_L}" y1="{_fmt(gy)}" x2="{MARGIN_L + pw}" '
                     f'y2="{_fmt(gy)}" stroke="#eeeeee"/>')
        parts.append(f'<text x="{_fmt(gx)}" y="{HEIGHT - 26}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="11">{_fmt(xv)}</text>')
        parts.append(f'<text x="{MARGIN_L - 6}" y="{_fmt(gy + 4)}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="11">{_fmt(yv)}</text>')
    if xlabel:
        parts.append(f'<text x="{MARGIN_L + pw // 2}" y="{HEIGHT - 8}" '
                     f'text-anchor="middle" font-family="sans-serif" '
                     f'font-size="12">{xlabel}</text>')
    if ylabel:
        parts.append(f'<text x="14" y="{MARGIN_T + ph // 2}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="12" '
                     f'transform="rotate(-90 14 {MARGIN_T + ph // 2})">{ylabel}</text>')
    for k, (name, xs, ys) in enumerate(series):
        color = PALETTE[k % len(PALETTE)]
        points = " ".join(f"{_fmt(px(x))},{_fmt(py(y))}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{points}" fill="none" stroke="{color}" '
                     'stroke-width="1.5"/>')
        ly = MARGIN_T + 16 + 16 * k
        parts.append(f'<line x1="{MARGIN_L + pw - 130}" y1="{ly - 4}" '
                     f'x2="{MARGIN_L + pw - 106}" y2="{ly - 4}" stroke="{color}" '
                     'stroke-width="2"/>')
        parts.append(f'<text x="{MARGIN_L + pw - 100}" y="{ly}" '
                     f'font-family="sans-serif" font-size="12">{name}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
