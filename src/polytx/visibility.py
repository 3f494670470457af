"""Visibility with up to k wall crossings, and every decision read from it.

Sight lines are axis-parallel: a segment sees a point iff the perpendicular
from the point lands on the closed segment and crosses at most k boundary
edges on the way.  All predicates are exact integer arithmetic.  Everything
here reads one wall table, the profile's ``row_walls``: in each row band, a
vertical sees up to the (k+1)-th wall on each side of its line.  That
rule is :func:`reach_at`'s, on the counts of the band's walls left of the
line; :func:`reach` finds them by bisection, and the hot callers pass the
counts they already hold or find them with one bisection.
:func:`member_bits` builds the bitsets of the exact solver and of
:func:`prune_dominated` straight from that table for index-form family
members, one bit per (slab, band) cell in column-major order, with no
grid.  :func:`vis_region` gives one region as a bitset over
a CellGrid's cells, for ``render --vis`` and the test oracles; the grid may
be refined with the segment's own coordinates, and each cell is then seen
whole or not at all.
:func:`segments_cover` decides whether a set of regions covers the polygon
from the same rules, as slab ranges per row band tested only in their gaps;
a set with a segment outside the polygon does not cover it.  It is the
check behind :class:`Solution`, the verified answer both solvers return,
and behind :func:`canonicalize_solution`.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate
from operator import or_
from typing import Iterable, Sequence

from .candidates import HORIZONTAL, VERTICAL, Member, SegmentSet, Transmitter, canonical
from .candidates import edge_aligned_family, member_transmitter, segment_inside
from .geometry import CellGrid, OrthoPolygon, SlabProfile


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


def vis_region(s: Transmitter, k: int, grid: CellGrid) -> int:
    """Cells the segment sees with at most k crossings, as a bitset over
    the grid's cells in column-major order (``grid.iter_cells`` lists them).

    The polygon is the grid's own profile.  The segment must be
    grid-aligned (anchor, then span ends, on cuts); then no cell straddles
    any of its lines and the region is exact, not just a sample.  A
    vertical sees, row by row, the inside slabs of :func:`reach`'s range.
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
        return grid.inside_mask_between(lo, hi)
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
    return bits & grid.inside_mask


def reach(walls: Sequence[int], before: int, upto: int, k: int, end: int) -> tuple[int, int]:
    """The slabs a vertical sees in one row band and the outside slabs
    next to them, as a range a .. b - 1.

    walls is the band's ``row_walls`` entry (walls at even positions enter,
    at odd ones leave); the vertical's line has ``before`` breakpoints left
    of it and ``upto`` at or left of it.  In one band the crossing count
    only grows with distance from the line, so the vertical sees up to the
    (k+1)-th wall on each side; walls on the line are not crossed.  Slabs
    a - 1 and b are the nearest inside slabs it misses, or a is 0 and b is
    end, the slab count.  The range's inside slabs are the seen ones, so a
    caller that keeps only inside slabs can ignore the rest.  Each bound
    reads one side only, a before and b upto, and both only grow as the
    line moves right; so the before of one line and the upto of a line at
    or right of it give the range that every line between them sees
    together.  The rule itself is :func:`reach_at`'s, on the wall counts
    left of ``before`` and of ``upto``.
    """
    return reach_at(walls, bisect_left(walls, before), bisect_left(walls, upto), k, end)


def reach_at(walls: Sequence[int], i: int, j: int, k: int, end: int) -> tuple[int, int]:
    """:func:`reach` with its bisections done: i walls lie left of
    ``before`` and j left of ``upto``.  Callers that already hold those
    counts pass them here, the one copy of the rule."""
    left = i - k - 2 | 1
    right = j + k + 1 & ~1
    return (walls[left] if left > 0 else 0, walls[right] if right < len(walls) else end)


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
    property).  A vertical sees, in each band of its section, the inside
    slabs of :func:`reach`'s range.  Its section is the whole cross-section
    at its breakpoint, so it holds exactly the bands where that breakpoint
    lies in a closed inside run ``walls[2i] .. walls[2i + 1]``, and only
    the breakpoint is read.  In one band, reach gives every breakpoint of a
    run the same range at even k; at odd k the run's two ends each see one
    wall farther out than the lines between them.  So the bands are walked
    once, with one reach per run for the range its breakpoints see together
    (and one more at odd k, for the lines between its ends), and each run's
    cells are ORed into the regions of its breakpoints.  A run's wall
    positions are the wall counts :func:`reach_at` takes, so no wall is
    searched.  k must be 0, 1 or 2.
    """
    check_k(k)
    rows, spans = prof.row_walls, prof.span_bands
    slabs, bands = len(spans), len(rows)
    # Geometric series: the bit of band 0 in every slab.
    row_ones = ((1 << slabs * bands) - 1) // ((1 << bands) - 1)
    inside = 0
    for i, (lo, hi) in enumerate(spans):
        inside |= (1 << i * bands + hi) - (1 << i * bands + lo)
    # region[j]: the cells a vertical on breakpoint j sees, outside slabs
    # of reach's ranges included
    region = [0] * (slabs + 1)
    for r, walls in enumerate(rows):
        band = row_ones << r
        for w in range(0, len(walls), 2):
            lo, hi = walls[w], walls[w + 1]
            # what the run's breakpoints see together: its ends' outer
            # bounds.  Walls increase strictly, so w walls lie left of lo
            # and w + 2 left of hi + 1.
            a, b = reach_at(walls, w, w + 2, k, slabs)
            if k & 1:
                # each end sees one wall farther out than the lines between,
                # which have w + 1 walls on their left
                c, d = reach_at(walls, w + 1, w + 1, k, slabs)
                region[lo] |= band & (1 << d * bands) - (1 << a * bands)
                region[hi] |= band & (1 << b * bands) - (1 << c * bands)
                a, b, lo, hi = c, d, lo + 1, hi - 1
                if lo > hi:
                    continue
            seen = band & (1 << b * bands) - (1 << a * bands)
            for j in range(lo, hi + 1):
                region[j] |= seen
    bits: list[int] = []
    for orientation, j, lo, hi in family:
        if orientation == HORIZONTAL:
            # lo .. hi are the spanned slabs (j, the ordinate, is not read)
            bits.append(inside & (1 << hi * bands) - (1 << lo * bands))
        else:
            bits.append(region[j] & inside)
    return bits, inside


def segments_cover(prof: SlabProfile, segments: Sequence[Transmitter], k: int) -> bool:
    """Whether the segments' k-visibility regions together cover the polygon.

    The regions are vis_region's, kept as slab ranges per row band instead
    of bits per cell.  The bands are the polygon's rows cut at the
    verticals' span ends, so a vertical spans each band whole or not at
    all; in each band it spans it sees :func:`reach`'s range, found by
    one bisection (the walls left of its line) and :func:`reach_at`.  A
    horizontal sees its span in every band (full-column property).  The
    horizontals' spans are merged first, as two may share a slab that
    neither holds alone, and each block sees the slabs it holds whole; a
    range meets any other slab at most at an end.  The polygon is covered
    when no segment leaves it (:func:`~polytx.candidates.segment_inside`,
    inside the bounding box or not) and no gap between a band's ranges
    holds an inside slab.  k must be 0, 1 or 2 when there are segments.
    """
    if segments:
        check_k(k)
    if not all(segment_inside(prof, t) for t in segments):
        return False
    xs, ys, rows = prof.xs, prof.edge_ordinates, prof.row_walls
    end = len(prof.spans)
    merged: list[list[int]] = []
    for lo, hi in sorted(t.span for t in segments if t.orientation == HORIZONTAL):
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    # (first, last + 1) of the slabs each block holds whole
    whole = [(bisect_left(xs, lo), bisect_right(xs, hi) - 1) for lo, hi in merged]
    whole.append((end, end))  # closes the last gap
    verticals = [t for t in segments if t.orientation == VERTICAL]
    cuts = sorted(set(ys).union(*(t.span for t in verticals)))
    walls_of = [rows[bisect_right(ys, y) - 1] for y in cuts[:-1]]
    seen = [whole[:] for _ in walls_of]
    for t in verticals:
        before, upto = bisect_left(xs, t.anchor), bisect_right(xs, t.anchor)
        for c in range(bisect_left(cuts, t.span[0]), bisect_left(cuts, t.span[1])):
            walls = walls_of[c]
            # i walls lie left of the line; a wall on it (only where the
            # line is breakpoint ``before``) is not crossed
            i = bisect_left(walls, before)
            j = i + 1 if upto > before and i < len(walls) and walls[i] == before else i
            seen[c].append(reach_at(walls, i, j, k, end))
    for walls, ranges in zip(walls_of, seen):
        ranges.sort()
        g = 0  # the slabs before g are seen
        for a, b in ranges:
            if a > g:  # slabs g .. a - 1 are unseen: none may be inside
                # slab g is inside iff an odd number of walls is at or
                # left of it; else walls[i] is the next inside slab
                i = bisect_right(walls, g)
                if i & 1 or i < len(walls) and walls[i] < a:
                    return False
            if b > g:
                g = b
    return True


@dataclass(frozen=True)
class Solution:
    """A verified cover attempt, ready for serialization."""

    transmitters: SegmentSet
    k: int
    solver: str
    iterations: int
    coverage_complete: bool

    @property
    def count(self) -> int:
        return len(self.transmitters)

    @staticmethod
    def build(
        polygon: OrthoPolygon,
        transmitters: Iterable[Transmitter],
        k: int,
        solver: str,
        iterations: int,
    ) -> "Solution":
        """Re-verify coverage on the polygon before packaging.

        Coverage is never trusted from the solver that produced the set: the
        union of the transmitters' k-visibility regions is compared against
        the whole polygon, band by band (:func:`segments_cover`), from the
        polygon and the transmitters alone.  Every transmitter must also lie
        in the closed polygon; one that leaves it makes
        ``coverage_complete`` False.  The transmitters are read once into
        the tuple the Solution keeps, so any iterable gives the same answer.
        """
        transmitters = tuple(transmitters)
        covered = segments_cover(polygon.profile, transmitters, k)
        return Solution(transmitters, k, solver, iterations, covered)

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "solver": self.solver,
            "count": self.count,
            "transmitters": [t.as_input() for t in self.transmitters],
            "coverage": "complete" if self.coverage_complete else "incomplete",
            "iterations": self.iterations,
        }


def prune_dominated(p: OrthoPolygon, k: int = 2) -> SegmentSet:
    """The polygon's edge-aligned family after a single elimination pass in
    canonical order.

    A candidate is removed when its k-visibility region is contained in the
    union over the *currently remaining* other candidates, so the union of
    regions over the result equals the union over the whole family exactly.
    Those others are the candidates kept so far and all later ones, so a
    running union and precomputed suffix unions decide each candidate with
    one OR.  The regions are :func:`member_bits`' (slab, band) bitsets of
    the index-form family, and only the kept members become Transmitters.
    k must be 0, 1 or 2.
    """
    check_k(k)
    prof = p.profile
    family = edge_aligned_family(prof)
    regions, _ = member_bits(prof, family, k)
    # after[i] is the union of regions[i + 1:].
    after = list(accumulate(reversed(regions), or_, initial=0))[-2::-1]
    kept, before = [], 0
    for m, region, rest in zip(family, regions, after):
        if region & ~(before | rest):
            kept.append(member_transmitter(prof, m))
            before |= region
    return tuple(kept)


def _nearest(lines: Sequence[int], v: int) -> int:
    """Closest value in the sorted lines; ties resolve to the smaller (left/down)."""
    i = bisect_left(lines, v)
    if i == len(lines) or i > 0 and v - lines[i - 1] <= lines[i] - v:
        return lines[i - 1]
    return lines[i]


def canonicalize_solution(
    sol: Iterable[Transmitter], p: OrthoPolygon
) -> tuple[SegmentSet, bool]:
    """Slide each segment onto the nearer edge-aligned line and maximalize.

    Returns the deduplicated result plus a feasibility flag: whether the
    canonicalized set still covers the polygon with k = 2 (re-verified by
    :func:`segments_cover`, not assumed).  Raises ValueError when an input
    segment leaves the closed polygon.
    """
    prof = p.profile
    out: list[Transmitter] = []
    for s in sol:
        if not segment_inside(prof, s):
            raise ValueError(f"segment {s} is not inside the closed polygon")
        if s.orientation == VERTICAL:
            x = _nearest(prof.xs, s.anchor)  # a breakpoint, so the section exists
            out.append(Transmitter(VERTICAL, x, prof.cross_section(x)))
        else:
            y = _nearest(prof.edge_ordinates, s.anchor)
            run = prof.run_covering(y, *s.span)
            if run is None:
                raise ValueError(f"segment {s} leaves the polygon when slid to y={y}")
            out.append(Transmitter(HORIZONTAL, y, run))
    result = canonical(out)
    return result, segments_cover(prof, result, 2)
