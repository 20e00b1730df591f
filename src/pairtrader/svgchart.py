"""Minimal deterministic SVG line charts.

Data-faithful polylines only; the CSV artifacts stay canonical and these
charts exist for quick eyeballing.  All coordinates are formatted with fixed
precision so identical inputs produce identical bytes.  Title and label text
is XML-escaped, so a ticker such as ``M&M`` keeps the document well-formed.
"""

from __future__ import annotations

from datetime import date

WIDTH = 800
HEIGHT = 300
MARGIN = 45


def _scale(values: list[float], lo: float, hi: float, out_lo: float, out_hi: float) -> list[float]:
    if hi == lo:
        mid = (out_lo + out_hi) / 2.0
        return [mid for _ in values]
    k = (out_hi - out_lo) / (hi - lo)
    return [out_lo + (v - lo) * k for v in values]


def _escape(text: str) -> str:
    """``text`` as XML character data: ``&``, ``<`` and ``>`` become entities."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _polyline(xs: list[float], ys: list[float], color: str, width: str = "1") -> str:
    points = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))
    return (
        f'<polyline fill="none" stroke="{color}" stroke-width="{width}" '
        f'points="{points}"/>'
    )


def line_chart(
    dates: tuple[date, ...],
    series: list[tuple[str, str, list[float]]],
    title: str,
) -> str:
    """Render one or more named series over a shared date axis.

    ``series`` holds (label, css-color, values) triples of equal length.
    """
    all_values = [v for _, _, values in series for v in values]
    lo, hi = min(all_values), max(all_values)
    if lo == hi:
        lo, hi = lo - 1.0, hi + 1.0

    xs = _scale(list(range(len(dates))), 0, max(len(dates) - 1, 1), MARGIN, WIDTH - 10)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH // 2}" y="16" text-anchor="middle" font-size="13" '
        f'font-family="sans-serif">{_escape(title)}</text>',
        f'<line x1="{MARGIN}" y1="{HEIGHT - MARGIN}" x2="{WIDTH - 10}" '
        f'y2="{HEIGHT - MARGIN}" stroke="black"/>',
        f'<line x1="{MARGIN}" y1="25" x2="{MARGIN}" y2="{HEIGHT - MARGIN}" stroke="black"/>',
        f'<text x="{MARGIN - 4}" y="{HEIGHT - MARGIN}" text-anchor="end" font-size="10" '
        f'font-family="sans-serif">{lo:.4g}</text>',
        f'<text x="{MARGIN - 4}" y="30" text-anchor="end" font-size="10" '
        f'font-family="sans-serif">{hi:.4g}</text>',
        f'<text x="{MARGIN}" y="{HEIGHT - MARGIN + 14}" font-size="10" '
        f'font-family="sans-serif">{dates[0].isoformat()}</text>',
        f'<text x="{WIDTH - 10}" y="{HEIGHT - MARGIN + 14}" text-anchor="end" font-size="10" '
        f'font-family="sans-serif">{dates[-1].isoformat()}</text>',
    ]
    for i, (label, color, values) in enumerate(series):
        ys = _scale(values, lo, hi, HEIGHT - MARGIN, 25.0)
        parts.append(_polyline(xs, ys, color))
        parts.append(
            f'<text x="{WIDTH - 12}" y="{40 + 14 * i}" text-anchor="end" font-size="10" '
            f'font-family="sans-serif" fill="{color}">{_escape(label)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
