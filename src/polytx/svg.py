"""Static SVG pictures of polygons, transmitters, and visibility shading."""

from __future__ import annotations

from typing import Iterable

from .candidates import Transmitter, VERTICAL
from .geometry import CellGrid, OrthoPolygon

# Pixels per input unit; enough that 3px strokes read as segments, not blobs.
_UNIT = 40
_PAD = 20

_POLY_FILL = "#f7f5ef"
_POLY_STROKE = "#1a1a1a"
_V_COLOR = "#2266aa"
_H_COLOR = "#c03030"
_SHADE = "#7fb2d9"


def render_svg(
    polygon: OrthoPolygon,
    transmitters: Iterable[Transmitter] = (),
    shaded: tuple[CellGrid, int] | None = None,
) -> str:
    """Standalone SVG document, y-axis flipped to screen convention.

    ``shaded`` is a ``(grid, bits)`` pair, as a grid and vis_region's bitset
    on it; its cells are drawn under the transmitters."""
    prof = polygon.profile
    x0, x1 = prof.x_min, prof.x_max
    y0, y1 = prof.y_min, prof.y_max

    # Floats, so every coordinate prints with its ".0".
    def sx(x: int) -> float:
        return float(_PAD + (x - x0) * _UNIT)

    def sy(y: int) -> float:
        return float(_PAD + (y1 - y) * _UNIT)

    width = 2 * _PAD + (x1 - x0) * _UNIT
    height = 2 * _PAD + (y1 - y0) * _UNIT

    ring = polygon.vertices
    parts = [f"M {sx(ring[0][0])} {sy(ring[0][1])}"]
    for i in range(1, len(ring)):
        px, py = ring[i - 1]
        x, y = ring[i]
        parts.append(f"H {sx(x)}" if py == y else f"V {sy(y)}")
    parts.append("Z")
    path = " ".join(parts)

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'  <path d="{path}" fill="{_POLY_FILL}" stroke="{_POLY_STROKE}" stroke-width="1.5"/>',
    ]
    if shaded is not None:
        grid, bits = shaded
        for ix, iy in grid.iter_cells(bits):
            cx0, cy0, cx1, cy1 = grid.cell_bounds(ix, iy)
            lines.append(
                f'  <rect x="{sx(cx0)}" y="{sy(cy1)}" width="{sx(cx1) - sx(cx0)}" '
                f'height="{sy(cy0) - sy(cy1)}" fill="{_SHADE}" fill-opacity="0.4"/>'
            )
    for t in transmitters:
        if t.orientation == VERTICAL:
            x = sx(t.anchor)
            coords = f'x1="{x}" y1="{sy(t.span[0])}" x2="{x}" y2="{sy(t.span[1])}"'
            color = _V_COLOR
        else:
            y = sy(t.anchor)
            coords = f'x1="{sx(t.span[0])}" y1="{y}" x2="{sx(t.span[1])}" y2="{y}"'
            color = _H_COLOR
        lines.append(
            f'  <line {coords} stroke="{color}" stroke-width="3" stroke-linecap="round"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
