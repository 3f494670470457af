"""Visibility with up to k wall crossings, evaluated on a cell grid.

Sight lines are axis-parallel: a segment sees a point iff the perpendicular
from the point lands on the closed segment and crosses at most k boundary
edges on the way.  All predicates are exact integer arithmetic.  Regions are
bitsets over a CellGrid; a region computed on a grid refined with the
segment's own coordinates is uniform across each cell, so the cell
representative decides the whole cell.  :func:`segments_cover` decides
whether a set of regions covers the polygon from the same rules as
x-intervals per row band, with no grid.  Both read one wall table, the
profile's ``row_walls``: in each row, a vertical sees up to the (k+1)-th
wall on each side of its line.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterable, Sequence

from .candidates import HORIZONTAL, VERTICAL, Transmitter
from .geometry import CellGrid, SlabProfile, checked_cuts


@dataclass(frozen=True)
class RectUnion:
    """Set of grid cells, stored as one bit per cell (column-major)."""

    grid: CellGrid
    bits: int

    def cells(self) -> Iterable[tuple[int, int]]:
        """(ix, iy) pairs of member cells, column-major order."""
        return self.grid.iter_cells(self.bits)


def _require_cut(ok: bool, what: str) -> None:
    if not ok:
        raise ValueError(f"transmitter {what} is not on a grid cut; refine the grid first")


def vis_region(s: Transmitter, k: int, grid: CellGrid) -> RectUnion:
    """Cells whose representative the segment sees with at most k crossings.

    The polygon is the grid's own profile.  The segment must be
    grid-aligned (anchor and span endpoints on cuts); then no cell straddles
    any of its lines and the region is exact, not just a sample.
    """
    if type(k) is not int or k not in (0, 1, 2):
        raise ValueError("k must be 0, 1 or 2")
    lo, hi = s.span
    if s.orientation == HORIZONTAL:
        _require_cut(grid.has_y_cut(s.anchor), "anchor")
        _require_cut(grid.has_x_cut(lo) and grid.has_x_cut(hi), "span endpoint")
        # Full-column property: the vertical sight line from the segment to
        # any cell of a spanned column stays inside one slab cross-section,
        # so it never crosses a wall and k does not matter.
        return RectUnion(grid, grid.inside_mask_between(lo, hi))
    _require_cut(grid.has_x_cut(s.anchor), "anchor")
    _require_cut(grid.has_y_cut(lo) and grid.has_y_cut(hi), "span endpoint")
    # In one row the crossing count only grows with distance from the anchor,
    # so the row's visible cells are one run of columns, bounded by the
    # (k+1)-th wall on each side.  Walls on the anchor line are not crossed.
    # Every wall is an x-cut, so each bound is a column boundary.
    prof = grid.profile
    xs, ords, rows = prof.xs, prof.edge_ordinates, prof.row_walls
    x_cuts, y_cuts = grid.x_cuts, grid.y_cuts
    # breakpoints left of the line, and up to the line
    before, upto = bisect_left(xs, s.anchor), bisect_right(xs, s.anchor)
    r = bisect_right(ords, lo) - 1  # the band holding the current row
    bits = 0
    for iy in range(bisect_left(y_cuts, lo), bisect_left(y_cuts, hi)):
        if y_cuts[iy] == ords[r + 1]:
            r += 1
        walls = rows[r]
        left = bisect_left(walls, before) - k - 1
        right = bisect_left(walls, upto) + k
        ix_lo = bisect_left(x_cuts, xs[walls[left]]) if left >= 0 else 0
        ix_hi = bisect_left(x_cuts, xs[walls[right]]) if right < len(walls) else grid.nx
        bits |= (grid.row_ones << iy) & grid.columns(ix_lo, ix_hi)
    return RectUnion(grid, bits & grid.inside_mask)


def segments_cover(prof: SlabProfile, segments: Sequence[Transmitter], k: int) -> bool:
    """Whether the segments' k-visibility regions together cover the polygon.

    The regions are vis_region's, kept as closed x-intervals per row band
    instead of bits per cell: a horizontal sees its whole span in every
    band (full-column property), and a vertical sees, in each band it
    spans, the interval between the (k+1)-th walls on each side of its line.
    The bands are the polygon's rows cut at the verticals' span ends, so a
    vertical spans each band whole or not at all.  The polygon is covered
    when, in every band, each inside interval lies in the union.  Raises
    ValueError, as the refined grid of :func:`~polytx.geometry.build_grid`
    does, for a coordinate that is odd or outside the bounding box.
    """
    extra_x: list[int] = []
    extra_y: list[int] = []
    for t in segments:
        if t.orientation == VERTICAL:
            extra_x.append(t.anchor)
            extra_y.extend(t.span)
        else:
            extra_y.append(t.anchor)
            extra_x.extend(t.span)
    checked_cuts(prof, extra_x, extra_y)
    if segments and (type(k) is not int or k not in (0, 1, 2)):
        raise ValueError("k must be 0, 1 or 2")
    xs, ys, rows = prof.xs, prof.edge_ordinates, prof.row_walls
    everywhere = sorted(t.span for t in segments if t.orientation == HORIZONTAL)
    # (span, breakpoints left of the line, breakpoints up to the line): a
    # wall on the line is not crossed.
    verticals = [
        (*t.span, bisect_left(xs, t.anchor), bisect_right(xs, t.anchor))
        for t in segments
        if t.orientation == VERTICAL
    ]
    cuts = sorted(set(ys).union(*(v[:2] for v in verticals)))
    for y0, y1 in zip(cuts, cuts[1:]):
        walls = rows[bisect_right(ys, y0) - 1]
        seen = list(everywhere)
        for lo, hi, before, upto in verticals:
            if lo <= y0 and y1 <= hi:
                left = bisect_left(walls, before) - k - 1
                right = bisect_left(walls, upto) + k
                seen.append((
                    xs[walls[left]] if left >= 0 else xs[0],
                    xs[walls[right]] if right < len(walls) else xs[-1],
                ))
        seen.sort()
        # merge into disjoint blocks; touching intervals share no gap cell
        starts: list[int] = []
        ends: list[int] = []
        for a, b in seen:
            if ends and a <= ends[-1]:
                if b > ends[-1]:
                    ends[-1] = b
            else:
                starts.append(a)
                ends.append(b)
        for w in range(0, len(walls), 2):
            u, v = xs[walls[w]], xs[walls[w + 1]]
            i = bisect_right(starts, u) - 1
            if i < 0 or ends[i] < v:
                return False
    return True
