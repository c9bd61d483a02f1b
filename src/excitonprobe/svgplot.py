"""Minimal static SVG rendering of transmission spectra.

No plotting dependency: the chart is assembled from polylines and text
elements. Baseline curves draw solid, defect curves dashed. Output contains
no timestamps, so identical inputs give byte-identical files.
"""

from __future__ import annotations

import math

import numpy as np

from .csvio import _open_text, _row_blocks, format_rows

WIDTH = 1024
HEIGHT = 640
MARGIN_LEFT = 80
MARGIN_RIGHT = 30
MARGIN_TOP = 50
MARGIN_BOTTOM = 60

# Stroke attributes of the baseline (solid) and defect (dashed) curves,
# shared by each curve's polyline and its legend line.
BASE_STROKE = 'stroke="#000000" stroke-width="1.6"'
DEFECT_STROKE = 'stroke="#cc2222" stroke-width="1.6" stroke-dasharray="8 5"'
# Stroke of the axes box and the tick marks.
_AXIS_STROKE = 'stroke="#333333" stroke-width="1"'


def _nice_ticks(lo: float, hi: float, target: int = 6):
    """(position, label) of round ticks covering [lo, hi], at most ~target of them.

    A label has as many decimals as the step (1, 2 or 5 x 10^k) needs, less
    trailing zeros: 1.995 at step 0.005, 200 at step 100.
    """
    span = hi - lo
    raw = span / max(target - 1, 1)
    mag = 10.0 ** np.floor(np.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        step = mult * mag
        if span / step <= target - 1 + 1e-9:
            break
    first = np.ceil(lo / step) * step
    # tick k sits at first + k * step: a running sum of steps stops moving
    # where step is below the float spacing of the values
    count = int((hi + 1e-9 * span - first) // step) + 1
    decimals = max(0, -math.floor(math.log10(step) + 1e-9))
    values = [0.0 if abs(value) < 1e-12 * span else float(value)
              for value in first + step * np.arange(count)]
    # below the float spacing several ticks round to one position; the first stays
    values = list(dict.fromkeys(values))
    return [(value, _fmt(value, decimals)) for value in values]


def _fmt(value: float, decimals: int) -> str:
    text = f"{value:.{decimals}f}"
    # only zeros after a decimal point go: 200 stays 200
    return text.rstrip("0").rstrip(".") if "." in text else text


def _escape(text: str) -> str:
    """text with &, < and > as XML entities; & goes first, so no entity is escaped twice."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _coord(value) -> str:
    """An SVG coordinate: a float to two decimals, an int as it is."""
    return f"{value:.2f}" if isinstance(value, float) else str(value)


def _line(x1, y1, x2, y2, stroke=_AXIS_STROKE) -> str:
    return (f'<line x1="{_coord(x1)}" y1="{_coord(y1)}" x2="{_coord(x2)}" '
            f'y2="{_coord(y2)}" {stroke}/>')


def _text(x, y, size, body, anchor=None, rotate=False) -> str:
    """Sans-serif text at (x, y); rotate turns it a quarter turn left about (x, y)."""
    x, y = _coord(x), _coord(y)
    attrs = f'x="{x}" y="{y}" font-family="sans-serif" font-size="{size}"'
    attrs += f' text-anchor="{anchor}"' if anchor else ""
    attrs += f' transform="rotate(-90 {x} {y})"' if rotate else ""
    return f"<text {attrs}>{body}</text>"


def _document(base_spec, defect_spec, defect_label, title):
    """Yield the SVG document's text: baseline T(E) solid, optional defect dashed.

    Each curve's points go out one block of rows at a time, so a long
    spectrum never has all its point text in memory at once.
    """
    curves = [("baseline", base_spec, BASE_STROKE)]
    if defect_spec is not None:
        curves.append((defect_label, defect_spec, DEFECT_STROKE))
    e_lo, e_hi = base_spec.grid.e_min, base_spec.grid.e_max
    t_hi = max(1.0, *(float(np.max(spec.T)) for _, spec, _ in curves)) * 1.02
    t_lo = 0.0

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def sx(e):
        return MARGIN_LEFT + (e - e_lo) / (e_hi - e_lo) * plot_w

    def sy(t):
        return MARGIN_TOP + (t_hi - t) / (t_hi - t_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
    ]
    if title:
        parts.append(_text(WIDTH / 2, 28, 18, _escape(title), anchor="middle"))

    # axes box
    parts.append(
        f'<rect x="{MARGIN_LEFT}" y="{MARGIN_TOP}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" {_AXIS_STROKE}/>'
    )
    for e, label in _nice_ticks(e_lo, e_hi):
        x, y = sx(e), sy(t_lo)
        parts += [_line(x, y, x, y + 6), _text(x, y + 22, 13, label, anchor="middle")]
    for t, label in _nice_ticks(t_lo, t_hi, target=5):
        y = sy(t)
        parts += [_line(MARGIN_LEFT - 6, y, MARGIN_LEFT, y),
                  _text(MARGIN_LEFT - 10, y + 4, 13, label, anchor="end")]

    parts += [_text(MARGIN_LEFT + plot_w / 2, HEIGHT - 14, 15, "probe energy (cm^-1)",
                    anchor="middle"),
              _text(22, MARGIN_TOP + plot_h / 2, 15, "transmission", anchor="middle",
                    rotate=True)]
    yield "\n".join(parts) + "\n"

    # Each curve's polyline, then its legend entry top-right inside the plot box.
    lx = MARGIN_LEFT + plot_w - 250
    legend = []
    for i, (label, spec, stroke) in enumerate(curves):
        yield f'<polyline fill="none" {stroke} points="'
        energies = spec.energies
        for rows in _row_blocks(len(energies)):
            # " x,y" per point; the first block drops its leading space
            text = format_rows(" %.2f,%.2f", (sx(energies[rows]), sy(spec.T[rows])))
            yield text[1:] if rows.start == 0 else text
        yield '"/>\n'
        ly = MARGIN_TOP + 16 + 20 * i
        legend += [_line(lx, ly, lx + 40, ly, stroke),
                   _text(lx + 48, ly + 4, 13, _escape(label))]

    yield "\n".join(legend + ["</svg>"]) + "\n"


def render_overlay(base_spec, defect_spec=None, defect_label: str = "defect",
                   title: str = "") -> str:
    """SVG document string: baseline T(E) solid, optional defect dashed."""
    return "".join(_document(base_spec, defect_spec, defect_label, title))


def write_overlay(path, base_spec, defect_spec=None, defect_label="defect", title=""):
    with _open_text(path) as fh:
        fh.writelines(_document(base_spec, defect_spec, defect_label, title))
