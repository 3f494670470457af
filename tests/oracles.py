"""Reference implementations used to cross-check the library.

Almost everything here works on the raw vertex ring with generic
segment arithmetic.  The point is to avoid the slab shortcuts the
package uses internally, so agreement is meaningful.  The exceptions,
percell_region_bits and percolumn_inside_between, are the grid code's
plain cell-by-cell form, the reference at sizes brute force cannot reach.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterable, Iterator, Sequence

from polytx import OrthoPolygon, Transmitter, validate

Point = tuple[int, int]


def shoelace2(ring: Sequence[Point]) -> int:
    """Twice the signed area of a closed ring (positive when CCW)."""
    total = 0
    n = len(ring)
    for i in range(n):
        x1, y1 = ring[i]
        x2, y2 = ring[(i + 1) % n]
        total += x1 * y2 - x2 * y1
    return total


def ring_edges(ring: Sequence[Point]) -> Iterator[tuple[Point, Point]]:
    n = len(ring)
    for i in range(n):
        yield ring[i], ring[(i + 1) % n]


def point_inside(ring: Sequence[Point], px: int, py: int) -> bool:
    """Ray-casting parity test.

    Only valid for points that are not on any edge line of the ring;
    cell representatives always satisfy that.
    """
    crossings = 0
    for (x1, y1), (x2, y2) in ring_edges(ring):
        if x1 == x2 and x1 > px:
            lo, hi = (y1, y2) if y1 < y2 else (y2, y1)
            if lo < py < hi:
                crossings += 1
    return crossings % 2 == 1


def reflex_count(ring: Sequence[Point]) -> int:
    """Number of 270-degree interior angles on a CCW ring."""
    n = len(ring)
    count = 0
    for i in range(n):
        ax, ay = ring[i - 1]
        bx, by = ring[i]
        cx, cy = ring[(i + 1) % n]
        cross = (bx - ax) * (cy - by) - (by - ay) * (cx - bx)
        if cross < 0:
            count += 1
    return count


def _orient(a: Point, b: Point, c: Point) -> int:
    v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (v > 0) - (v < 0)


def properly_cross(a: Point, b: Point, c: Point, d: Point) -> bool:
    """True when open segments ab and cd cross at a single interior point."""
    return (
        _orient(a, b, c) * _orient(a, b, d) < 0
        and _orient(c, d, a) * _orient(c, d, b) < 0
    )


def oracle_sees(p: OrthoPolygon, s: Transmitter, k: int, rep: Point) -> bool:
    """Brute-force visibility: perpendicular foot on the closed span, then
    count proper crossings of the sight segment against every boundary edge."""
    px, py = rep
    lo, hi = s.span
    if s.orientation == "v":
        if not lo <= py <= hi:
            return False
        foot = (s.anchor, py)
    else:
        if not lo <= px <= hi:
            return False
        foot = (px, s.anchor)
    if foot == rep:
        return True
    crossings = sum(
        1 for a, b in ring_edges(p.vertices) if properly_cross(rep, foot, a, b)
    )
    return crossings <= k


def oracle_region_bits(p: OrthoPolygon, s: Transmitter, k: int, grid) -> int:
    bits = 0
    for ix, iy in grid.iter_cells(grid.inside_mask):
        if oracle_sees(p, s, k, grid.rep(ix, iy)):
            bits |= 1 << grid.cell_index(ix, iy)
    return bits


def percell_region_bits(s: Transmitter, k: int, grid) -> int:
    """vis_region decided one inside cell at a time, as the library once did.

    A horizontal segment sees the cells whose representative lies strictly
    over its span.  A vertical one sees a cell of a row strictly inside its
    span when at most k of that row's walls lie strictly between the cell's
    representative and the anchor, counted with two binary searches.  It
    works on the slab profile, not the ring, so unlike oracle_region_bits
    it stays fast on grids of thousands of cells.
    """
    lo, hi = s.span
    row_walls = [
        sorted(x for x, ylo, yhi in grid.profile.vertical_edges if ylo < ry < yhi)
        for ry in grid.rep_ys
    ]
    bits = 0
    for ix, iy in grid.iter_cells(grid.inside_mask):
        px, py = grid.rep(ix, iy)
        if s.orientation == "h":
            seen = lo < px < hi
        elif lo < py < hi:
            x1, x2 = sorted((px, s.anchor))
            walls = row_walls[iy]
            seen = bisect_left(walls, x2) - bisect_right(walls, x1) <= k
        else:
            seen = False
        if seen:
            bits |= 1 << grid.cell_index(ix, iy)
    return bits


def percolumn_inside_between(grid, x_lo, x_hi) -> int:
    """CellGrid.inside_mask_between, one column and one cell at a time."""
    bits = 0
    for ix in range(grid.nx):
        if x_lo is not None and grid.x_cuts[ix] < x_lo:
            continue
        if x_hi is not None and grid.x_cuts[ix + 1] > x_hi:
            continue
        for iy in range(grid.ny):
            if grid.is_inside(ix, iy):
                bits |= 1 << grid.cell_index(ix, iy)
    return bits


def mirrored(p: OrthoPolygon) -> OrthoPolygon:
    """The polygon reflected through x = 0 (still CCW after reversal)."""
    ring = [(-x, y) for x, y in reversed(p.input_vertices)]
    return validate(ring)


def mirror_transmitter(s: Transmitter) -> Transmitter:
    if s.orientation == "v":
        return Transmitter("v", -s.anchor, s.span)
    return Transmitter("h", s.anchor, (-s.span[1], -s.span[0]))


def cell_rects(region, grid=None) -> set[tuple[int, int, int, int]]:
    """Covered cells as coordinate rectangles, for comparisons across grids."""
    g = grid if grid is not None else region.grid
    return {g.cell_bounds(ix, iy) for ix, iy in region.cells()}


def covered_area(p: OrthoPolygon, segs: Iterable[Transmitter], k: int) -> bool:
    """Independent full-coverage check on a fresh grid refined by segs."""
    from polytx import build_grid

    extra_x: list[int] = []
    extra_y: list[int] = []
    for s in segs:
        if s.orientation == "v":
            extra_x.append(s.anchor)
            extra_y.extend(s.span)
        else:
            extra_y.append(s.anchor)
            extra_x.extend(s.span)
    bb = p.profile
    extra_x = [x for x in extra_x if bb.x_min <= x <= bb.x_max]
    extra_y = [y for y in extra_y if bb.y_min <= y <= bb.y_max]
    grid = build_grid(p.profile, extra_x, extra_y)
    for ix, iy in grid.iter_cells(grid.inside_mask):
        rep = grid.rep(ix, iy)
        if not any(oracle_sees(p, s, k, rep) for s in segs):
            return False
    return True
