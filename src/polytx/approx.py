"""Two-transmitter cover by repeated left-to-right finder steps.

Each iteration runs two greedy finders on the remaining (right) part of the
polygon.  Both return at most two segments that cover everything up to some
cut line; the better step (further cut, then fewer segments) is kept and the
covered prefix is discarded.  At most two segments per iteration against at
least one in any optimal cover gives the factor-2 guarantee.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

from .candidates import HORIZONTAL, SegmentSet, Transmitter, VERTICAL, canonical
from .geometry import OrthoPolygon, SlabProfile
from .visibility import segments_cover

# Not called here: bench/spans.py traces these names in this module's namespace.
from .candidates import edge_aligned_candidates  # noqa: F401
from .geometry import build_grid, cut_right  # noqa: F401
from .visibility import vis_region  # noqa: F401


@dataclass(frozen=True)
class FinderResult:
    """One finder step: one or two segments, rightmost covered line, completion.

    cut_x is a breakpoint of the profile the finder ran on (internal units,
    like every other coordinate in the library); when done it is the
    rightmost breakpoint.
    """

    first: Transmitter
    second: Transmitter | None
    cut_x: int
    done: bool

    @property
    def transmitters(self) -> SegmentSet:
        if self.second is None:
            return (self.first,)
        return (self.first, self.second)

    @property
    def count(self) -> int:
        return 1 if self.second is None else 2


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
        transmitters: SegmentSet,
        k: int,
        solver: str,
        iterations: int,
    ) -> "Solution":
        """Re-verify coverage on the polygon before packaging.

        Coverage is never trusted from the solver that produced the set: the
        union of the transmitters' k-visibility regions is compared against
        the whole polygon, band by band (:func:`~polytx.visibility.segments_cover`),
        from the polygon and the transmitters alone.
        """
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


class SweepTables:
    """What the greedy finders read of a polygon, built once per solve.

    Every entry is a slab index: column c is slab c, between ``prof.xs[c]``
    and ``prof.xs[c + 1]``.  Of the edge-aligned family it keeps:

    - the vertical at ``prof.xs[j]`` (``verticals[j]``) and, for j >= 1,
      three columns holding inside cells its k=2 region misses: ``reach[j]``
      is one past the rightmost such column left of j, or 0, so the
      vertical sees every inside cell of columns col .. j-1 exactly when
      ``reach[j] <= col``; ``miss_lo[j]`` and ``miss_hi[j]`` are the first
      and last such column >= j, or None.  The left edge's entries are never
      read (the vertical at ``xs[1]`` always beats it).
    - per edge ordinate y: the last slab whose span ends on y, and the
      maximal runs at y as sorted ``lo`` and ``hi`` column lists.  A run's
      region is the inside cells of the columns it spans (full-column
      property, see :mod:`polytx.visibility`).

    Everything comes from the profile's spans and per-row walls
    (``prof.row_walls``) in small integers.  A vertical misses every inside
    cell of a row outside its cross-section, which the nearest slabs whose
    span leaves the section give; in a row inside it, the vertical sees
    the columns between its third wall on each side.

    A region on the whole polygon agrees with the region on any
    ``cut_right`` remainder on the columns right of the cut: walls left of
    the cut are never reached and walls on it are not crossed.
    """

    def __init__(self, prof: SlabProfile):
        self.prof = prof
        xs, spans, rows = prof.xs, prof.spans, prof.row_walls
        n, cols = len(xs), len(spans)  # column cols stands for "none"
        row = {y: r for r, y in enumerate(prof.edge_ordinates)}
        self.verticals = tuple(Transmitter(VERTICAL, x, prof.cross_section(x)) for x in xs)

        tops = [hi for _, hi in spans]
        downs = [-lo for lo, _ in spans]
        up_before, up_after = _nearest_greater(tops)
        down_before, down_after = _nearest_greater(downs)
        # end_below[r] / end_above[r]: the last inside column of rows < r / >= r
        ends = [walls[-1] - 1 for walls in rows]
        end_below = [-1, *accumulate(ends, max)]
        end_above = [*accumulate(reversed(ends), max)][::-1] + [-1]

        self.reach, self.miss_lo, self.miss_hi = [0], [None], [None]
        for j in range(1, n):
            lo_y, hi_y = self.verticals[j].span
            r_lo, r_hi = row[lo_y], row[hi_y]
            # Rows outside the section: the nearest slabs whose span leaves
            # it, seen from the slab that holds the section's top (bottom)
            # of the two the section joins (a = b at the right edge).
            a, b = j - 1, min(j, cols - 1)
            t = a if tops[a] >= tops[b] else b
            d = a if downs[a] >= downs[b] else b
            reach = max(up_before[t], down_before[d]) + 1
            first = min(up_after[t], down_after[d])
            last = max(end_below[r_lo], end_above[r_hi])
            # Rows inside it: left of the third wall left of j, and from the
            # third wall right of j on.  Walls at even positions enter.
            for walls in rows[r_lo:r_hi]:
                i = bisect_left(walls, j)
                if i >= 4 and walls[i - 4 | 1] > reach:
                    reach = walls[i - 4 | 1]
                i = bisect_right(walls, j) + 3 & ~1
                if i < len(walls):
                    if walls[i] < first:
                        first = walls[i]
                    if walls[-1] - 1 > last:
                        last = walls[-1] - 1
            self.reach.append(reach)
            self.miss_lo.append(first if first < cols else None)
            self.miss_hi.append(last if first < cols else None)

        last_slab = {}
        for i, span in enumerate(spans):
            for y in span:
                last_slab[y] = i
        ordinates = []
        for r, y in enumerate(prof.edge_ordinates):
            # a slab's span holds y exactly when the slab is inside the row
            # below y or the row above it
            runs = []
            for walls in rows[max(r - 1, 0) : r + 1]:
                runs += zip(walls[::2], walls[1::2])
            runs.sort()
            los, his = [], []
            for lo, hi in runs:
                if his and lo <= his[-1]:
                    if hi > his[-1]:
                        his[-1] = hi
                else:
                    los.append(lo)
                    his.append(hi)
            ordinates.append((last_slab[y], y, los, his))
        # (last slab, y, los, his), latest first: the ordinates of the
        # remainder at column c are a prefix, those with last >= c.
        self.ordinates = sorted(ordinates, reverse=True)

    def column(self, cut: int) -> int:
        """The slab index of breakpoint ``cut``."""
        xs = self.prof.xs
        c = bisect_left(xs, cut)
        if c == len(xs) or xs[c] != cut:
            raise ValueError(f"x={cut} is not a breakpoint of the profile")
        return c

    def rightmost_vertical(self, c: int, col: int) -> int:
        """The largest j > c whose vertical sees every inside cell of
        columns col .. j-1."""
        reach = self.reach
        for j in range(len(reach) - 1, c, -1):
            if reach[j] <= col:
                return j
        raise ValueError(f"no usable vertical right of x={self.prof.xs[c]}")

    def furthest_run(self, c: int, ix: int) -> tuple[Transmitter, int] | None:
        """Among the runs of the remainder at column c over column ix, the
        one reaching furthest right (ties: lowest line), clipped to the cut,
        and its end column."""
        best = None
        for last, y, los, his in self.ordinates:
            if last < c:
                break
            i = bisect_right(his, ix)
            if i < len(his) and los[i] <= ix and (best is None or (his[i], -y) > (best[2], -best[0])):
                best = (y, los[i], his[i])
        if best is None:
            return None
        y, lo, hi = best
        xs = self.prof.xs
        return Transmitter(HORIZONTAL, y, (xs[max(lo, c)], xs[hi])), hi


def _nearest_greater(values: Sequence[int]) -> tuple[list[int], list[int]]:
    """Per index i, the nearest index before i and the nearest after i whose
    value is strictly greater than values[i]; -1 and len(values) if none."""
    n = len(values)
    before, after = [-1] * n, [n] * n
    for order, out in ((range(n), before), (range(n - 1, -1, -1), after)):
        stack: list[int] = []
        for i in order:
            while stack and values[stack[-1]] <= values[i]:
                stack.pop()
            if stack:
                out[i] = stack[-1]
            stack.append(i)
    return before, after


def vh_finder(sweep: SweepTables, cut: int) -> FinderResult:
    """Vertical-first step on the remainder right of breakpoint ``cut``.

    Takes the rightmost vertical that still sees every cell of the
    remainder weakly left of its own line.  If something is left over, the
    first uncovered cell is patched with the horizontal over it that reaches
    furthest right (ties: lowest line); the cut is that segment's right end.
    """
    c = sweep.column(cut)
    j = sweep.rightmost_vertical(c, c)
    s_v = sweep.verticals[j]
    first = sweep.miss_lo[j]
    if first is None:
        return FinderResult(s_v, None, sweep.prof.x_max, True)
    run = sweep.furthest_run(c, first)
    if run is None:
        raise ValueError("no horizontal candidate over the first uncovered cell")
    s_h, end = run
    # the vertical's misses lie in columns miss_lo .. miss_hi; a run covers whole columns
    if sweep.miss_hi[j] < end:
        return FinderResult(s_v, s_h, sweep.prof.x_max, True)
    return FinderResult(s_v, s_h, s_h.span[1], False)


def hv_finder(sweep: SweepTables, cut: int) -> FinderResult:
    """Horizontal-first step on the remainder right of breakpoint ``cut``.

    Takes the horizontal starting on the cut that reaches furthest right
    (ties: lowest line), then the rightmost vertical that sees everything
    between that segment's right end and its own line.  The cut is the last
    breakpoint with nothing uncovered left of it.
    """
    c = sweep.column(cut)
    run = sweep.furthest_run(c, c)
    if run is None:
        raise ValueError("no left-anchored horizontal candidate")
    s_h, end = run
    # every column holds an inside cell: the run covers the rest iff it
    # ends on the last breakpoint
    if s_h.span[1] == sweep.prof.x_max:
        return FinderResult(s_h, None, sweep.prof.x_max, True)
    j = sweep.rightmost_vertical(c, end)
    first = sweep.miss_lo[j]
    if first is None:
        return FinderResult(s_h, sweep.verticals[j], sweep.prof.x_max, True)
    return FinderResult(s_h, sweep.verticals[j], sweep.prof.xs[first], False)


def _better(a: FinderResult, b: FinderResult) -> FinderResult:
    """a (vertical-first) vs b (horizontal-first): further cut wins, then
    fewer transmitters; the full tie goes to the horizontal-first step."""
    if a.cut_x != b.cut_x:
        return a if a.cut_x > b.cut_x else b
    if a.count != b.count:
        return a if a.count < b.count else b
    return b


def approximate_2transmitters(p: OrthoPolygon) -> Solution:
    """Factor-2 approximation of the minimum 2-transmitter cover.

    A slab-indexed table of the edge-aligned verticals' k=2 misses and of
    the horizontal runs is built once, on the whole polygon, from its walls
    (:class:`SweepTables`).  Each round runs both finders on the remainder
    right of the cut column, so every chosen segment is maximal on the
    remainder; a round costs one integer test per vertical it passes and
    one bisection per live ordinate.  No cell grid, bitset or remainder
    profile is built.  Coverage of the original polygon is re-verified at
    the end rather than inferred from the loop.  Raises RuntimeError when a
    round fails to advance the cut or the round and size bounds behind the
    factor-2 guarantee are broken.
    """
    prof = p.profile
    sweep = SweepTables(prof)
    xs = prof.xs
    chosen: list[Transmitter] = []
    c = iterations = 0
    while c < len(xs) - 1:
        step = _better(vh_finder(sweep, xs[c]), hv_finder(sweep, xs[c]))
        chosen.extend(step.transmitters)
        iterations += 1
        if step.done:
            break
        # Not an assert: python -O strips those, and a stalled cut loops forever.
        if step.cut_x <= xs[c]:
            raise RuntimeError(f"cut at x={step.cut_x} does not advance past x={xs[c]}")
        c = sweep.column(step.cut_x)
    transmitters = canonical(chosen)
    if len(transmitters) > 2 * iterations:
        raise RuntimeError(f"{len(transmitters)} transmitters from {iterations} rounds")
    if iterations > p.m:
        raise RuntimeError(f"{iterations} rounds exceed m = {p.m} vertical edges")
    return Solution.build(p, transmitters, 2, "approx", iterations)
