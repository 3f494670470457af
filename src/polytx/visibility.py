"""Visibility with up to k wall crossings, as bitsets and as intervals.

Sight lines are axis-parallel: a segment sees a point iff the perpendicular
from the point lands on the closed segment and crosses at most k boundary
edges on the way.  All predicates are exact integer arithmetic.  Everything
here reads one wall table, the profile's ``row_walls``: in each row band, a
vertical sees up to the (k+1)-th wall on each side of its line
(:func:`reach`).  :func:`member_bits` builds the bitsets of the exact
solver and of ``prune_dominated(p, k)`` straight from that table for
index-form family members, one bit per (slab, band) cell in column-major
order, with no grid.  :func:`vis_region` gives one region as a bitset over
a CellGrid, for ``render --vis`` and the test oracles; the grid may be
refined with the segment's own coordinates, and each cell is then seen
whole or not at all.
:func:`segments_cover` decides whether a set of regions covers the polygon
from the same rules as x-intervals per row band, with no grid.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterable, Sequence

from .candidates import HORIZONTAL, VERTICAL, Member, Transmitter
from .geometry import CellGrid, SlabProfile, checked_cuts


@dataclass(frozen=True)
class RectUnion:
    """Set of grid cells, stored as one bit per cell (column-major)."""

    grid: CellGrid
    bits: int

    def cells(self) -> Iterable[tuple[int, int]]:
        """(ix, iy) pairs of member cells, column-major order."""
        return self.grid.iter_cells(self.bits)


def _cut(cuts: Sequence[int], v: int, what: str) -> int:
    """The index of v in the sorted cuts, or ValueError naming ``what``."""
    i = bisect_left(cuts, v)
    if i == len(cuts) or cuts[i] != v:
        raise ValueError(f"transmitter {what} is not on a grid cut; refine the grid first")
    return i


def check_k(k: int) -> None:
    """ValueError unless k is the int 0, 1 or 2 (not a bool or a float)."""
    if type(k) is not int or k not in (0, 1, 2):
        raise ValueError("k must be 0, 1 or 2")


def vis_region(s: Transmitter, k: int, grid: CellGrid) -> RectUnion:
    """Cells the segment sees with at most k crossings.

    The polygon is the grid's own profile.  The segment must be
    grid-aligned (anchor, then span ends, on cuts); then no cell straddles
    any of its lines and the region is exact, not just a sample.  A
    vertical sees, row by row, the slabs :func:`reach` gives.
    """
    check_k(k)
    lo, hi = s.span
    x_cuts, y_cuts = grid.x_cuts, grid.y_cuts
    if s.orientation == HORIZONTAL:
        _cut(y_cuts, s.anchor, "anchor")
        _cut(x_cuts, lo, "span endpoint")
        _cut(x_cuts, hi, "span endpoint")
        # Full-column property: the vertical sight line from the segment to
        # any cell of a spanned column stays inside one slab cross-section,
        # so it never crosses a wall and k does not matter.
        return RectUnion(grid, grid.inside_mask_between(lo, hi))
    _cut(x_cuts, s.anchor, "anchor")
    iy_lo = _cut(y_cuts, lo, "span endpoint")
    iy_hi = _cut(y_cuts, hi, "span endpoint")
    # Every wall is an x-cut, so each bound of reach is a column boundary.
    prof = grid.profile
    xs, ords, rows = prof.xs, prof.edge_ordinates, prof.row_walls
    before, upto = bisect_left(xs, s.anchor), bisect_right(xs, s.anchor)
    r = bisect_right(ords, lo) - 1  # the band holding the current row
    bits = 0
    for iy in range(iy_lo, iy_hi):
        if y_cuts[iy] == ords[r + 1]:
            r += 1
        a, b = reach(rows[r], before, upto, k, len(prof.spans))
        ix_lo, ix_hi = bisect_left(x_cuts, xs[a]), bisect_left(x_cuts, xs[b])
        bits |= (grid.row_ones << iy) & grid.columns(ix_lo, ix_hi)
    return RectUnion(grid, bits & grid.inside_mask)


def reach(walls: Sequence[int], before: int, upto: int, k: int, end: int) -> tuple[int, int]:
    """The slabs a vertical sees in one row band, as a range a .. b - 1.

    walls is the band's ``row_walls`` entry; the vertical's line has
    ``before`` breakpoints left of it and ``upto`` at or left of it.  In one
    band the crossing count only grows with distance from the line, so the
    vertical sees up to the (k+1)-th wall on each side; walls on the line
    are not crossed.  With fewer walls on a side the range runs to slab 0 or
    to end, the slab count.
    """
    left = bisect_left(walls, before) - k - 1
    right = bisect_left(walls, upto) + k
    return (walls[left] if left >= 0 else 0, walls[right] if right < len(walls) else end)


def member_bits(
    prof: SlabProfile, family: Sequence[Member], k: int
) -> tuple[list[int], int]:
    """Each index-form member's k-visibility region as a bitset, and the
    inside mask.

    Members are :func:`~polytx.candidates.edge_aligned_family`'s: a
    vertical is its breakpoint and band range, a horizontal its ordinate
    index and breakpoint range.  Bit ``slab * bands + band`` is the cell of
    that slab and row band (the band between consecutive
    ``edge_ordinates``), so the cells are vis_region's on
    ``build_grid(prof)`` with the same numbering, and no grid is built.  A
    horizontal sees the inside cells of its spanned slabs (full-column
    property).  A vertical sees, in each band of its section, the slabs
    :func:`reach` gives; consecutive bands with the same slabs are one
    block.  k must be 0, 1 or 2.
    """
    rows, spans = prof.row_walls, prof.span_bands
    slabs, bands = len(spans), len(rows)
    # Geometric series: the bit of band 0 in every slab.
    row_ones = ((1 << slabs * bands) - 1) // ((1 << bands) - 1)
    inside = 0
    for i, (lo, hi) in enumerate(spans):
        inside |= (1 << i * bands + hi) - (1 << i * bands + lo)
    bits: list[int] = []
    for orientation, j, r, stop in family:
        if orientation == HORIZONTAL:
            # r .. stop are the spanned slabs (j, the ordinate, is not read)
            bits.append(inside & (1 << stop * bands) - (1 << r * bands))
            continue
        # j is the breakpoint, and r .. stop the bands of its section
        seen, ab = 0, reach(rows[r], j, j + 1, k, slabs)
        while r < stop:
            start, (a, b) = r, ab
            r += 1
            while r < stop and (ab := reach(rows[r], j, j + 1, k, slabs)) == (a, b):
                r += 1
            seen |= ((1 << r) - (1 << start)) * row_ones & (1 << b * bands) - (1 << a * bands)
        bits.append(seen & inside)
    return bits, inside


def segments_cover(prof: SlabProfile, segments: Sequence[Transmitter], k: int) -> bool:
    """Whether the segments' k-visibility regions together cover the polygon.

    The regions are vis_region's, kept as closed x-intervals per row band
    instead of bits per cell: a horizontal sees its whole span in every
    band (full-column property), and a vertical sees, in each band it
    spans, the slabs :func:`reach` gives, as in vis_region and member_bits.
    The bands are the polygon's rows cut at the verticals' span ends, so a
    vertical spans each band whole or not at all.  The polygon is covered
    when, in every band, each inside interval lies in the union.  Raises
    ValueError, as the refined grid of :func:`~polytx.geometry.build_grid`
    does, for a coordinate outside the bounding box.
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
    if segments:
        check_k(k)
    xs, ys, rows = prof.xs, prof.edge_ordinates, prof.row_walls
    end = len(prof.spans)
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
                a, b = reach(walls, before, upto, k, end)
                seen.append((xs[a], xs[b]))
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
