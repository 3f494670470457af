"""Two-transmitter cover by repeated left-to-right finder steps.

Each iteration runs two greedy finders on the remaining (right) part of the
polygon.  Both return at most two segments that cover everything up to some
cut line; the better step (further cut, then fewer segments) is kept and the
covered prefix is discarded.  At most two segments per iteration against at
least one in any optimal cover gives the factor-2 guarantee.  Cuts are
breakpoint indices: cut c is the line ``prof.xs[c]``, and the finders'
segments are members in ``candidates.edge_aligned_family``'s index form;
only the answer's members become Transmitters.  The answer is a
``visibility.Solution``, the verified cover the exact solver returns too;
this module and :mod:`polytx.exact` do not import each other.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

from .candidates import HORIZONTAL, VERTICAL, Member, member_transmitter
from .geometry import OrthoPolygon, SlabProfile
from .visibility import Solution, reach_at

# Not called here: bench/spans.py traces these names in this module's namespace.
from .candidates import canonical, edge_aligned_candidates  # noqa: F401
from .geometry import build_grid, cut_right  # noqa: F401
from .visibility import vis_region  # noqa: F401


@dataclass(frozen=True)
class FinderResult:
    """One finder step: one or two segments and the cut, the index of the
    rightmost breakpoint with nothing uncovered left of it; the sweep is
    done when the cut is the last breakpoint, ``len(prof.spans)``.

    The segments are index-form members, as ``edge_aligned_family`` gives
    them: a vertical is ``(VERTICAL, j, band_lo, band_hi)``, the whole
    cross-section at breakpoint j; a horizontal is ``(HORIZONTAL, r,
    start, end)``, a run on ordinate ``edge_ordinates[r]`` between
    breakpoints start and end.  ``candidates.member_transmitter`` turns
    one into its Transmitter."""

    first: Member
    second: Member | None
    cut: int

    @property
    def transmitters(self) -> tuple[Member, ...]:
        """The step's one or two segments, first first."""
        if self.second is None:
            return (self.first,)
        return (self.first, self.second)

    @property
    def count(self) -> int:
        return 1 if self.second is None else 2


class SweepTables:
    """What the greedy finders read of a polygon, built once per solve.

    Every entry and cut is a slab index: column c is slab c, between
    ``prof.xs[c]`` and ``prof.xs[c + 1]``, and cut c is the line at
    ``prof.xs[c]``; every segment it gives is a member in
    ``edge_aligned_family``'s index form, never a Transmitter.  Of the
    edge-aligned family it answers for:

    - the vertical at ``prof.xs[j]`` (its member, :meth:`vertical`) and,
      for j >= 1, three columns holding inside cells its k=2 region misses
      (:meth:`misses`): ``left`` is one past the rightmost such column
      left of j, or 0, so the vertical sees every inside cell of columns
      col .. j-1 exactly when ``left <= col``; ``miss_lo`` and ``miss_hi``
      are the first and last such column >= j, or None.  They are never
      asked for at j = 0 (the vertical at ``xs[1]`` always beats it).
    - the maximal horizontal runs, found by walking the slabs' spans in
      band indices (:meth:`furthest_run`).  A run's region is the inside
      cells of the columns it spans (full-column property, see
      :mod:`polytx.visibility`).

    A vertical misses every inside cell of a row outside its cross-section,
    which the nearest slabs whose span leaves the section give.  Those
    tables, linear in slabs and rows, are built up front, and with them
    ``bound[j]``, ``left`` over those rows alone, so ``bound[j] <= left``.
    In a row inside the section (its bands are read off
    ``prof.span_bands``) the nearest columns the vertical misses are the
    ends of :func:`~polytx.visibility.reach` at k=2, from one bisection
    per row and :func:`~polytx.visibility.reach_at`; that scan runs only
    for a vertical whose bound lets a finder pick it, once per vertical.

    A region on the whole polygon agrees with the region on any
    ``cut_right`` remainder on the columns right of the cut: walls left of
    the cut are never reached and walls on it are not crossed.
    """

    def __init__(self, prof: SlabProfile):
        self.prof = prof
        spans, rows = prof.span_bands, prof.row_walls
        tops = [hi for _, hi in spans]
        downs = [-lo for lo, _ in spans]
        up_before, self._up_after = _nearest_greater(tops)
        down_before, self._down_after = _nearest_greater(downs)
        # end_below[r] / end_above[r]: the last inside column of rows < r / >= r
        ends = [walls[-1] - 1 for walls in rows]
        self._end_below = [-1, *accumulate(ends, max)]
        self._end_above = [*accumulate(reversed(ends), max)][::-1] + [-1]
        # Per vertical j >= 1, of the two slabs its section joins (a = b at
        # the right edge), the one holding the section's top (bottom).  Band
        # indices order like the ordinates, so the comparisons are the same.
        self._top, self._bottom, self.bound = [0], [0], [0]
        for a in range(len(spans)):
            b = a + 1 if a + 1 < len(spans) else a
            t = a if tops[a] >= tops[b] else b
            d = a if downs[a] >= downs[b] else b
            self._top.append(t)
            self._bottom.append(d)
            # Rows outside the section: the nearest slabs whose span leaves it.
            self.bound.append(max(up_before[t], down_before[d]) + 1)
        self._misses: list[tuple[int, int | None, int | None] | None] = [None] * len(prof.xs)

    def misses(self, j: int) -> tuple[int, int | None, int | None]:
        """``(left, miss_lo, miss_hi)`` of the vertical at breakpoint
        j >= 1, scanned on first use."""
        known = self._misses[j]
        if known is None:
            known = self._misses[j] = self._scan(j)
        return known

    def _scan(self, j: int) -> tuple[int, int | None, int | None]:
        prof = self.prof
        cols, bands = len(prof.spans), prof.span_bands
        t, d = self._top[j], self._bottom[j]
        r_lo, r_hi = bands[d][0], bands[t][1]
        left = self.bound[j]
        first = min(self._up_after[t], self._down_after[d])
        last = max(self._end_below[r_lo], self._end_above[r_hi])
        # Rows inside the section: reach's ends are the nearest missed columns.
        # Each such row holds j in a closed run, so a wall sits at or right
        # of the line (i < len(walls)); a wall on it is not crossed.
        for walls in prof.row_walls[r_lo:r_hi]:
            i = bisect_left(walls, j)
            a, b = reach_at(walls, i, i + 1 if walls[i] == j else i, 2, cols)
            if a > left:
                left = a
            if b < cols:
                if b < first:
                    first = b
                if walls[-1] - 1 > last:
                    last = walls[-1] - 1
        if first < cols:
            return left, first, last
        return left, None, None

    def vertical(self, j: int) -> Member:
        """The member of the vertical at breakpoint j >= 1: the whole
        cross-section, from its bottom slab's lowest band to its top
        slab's highest."""
        bands = self.prof.span_bands
        return (VERTICAL, j, bands[self._bottom[j]][0], bands[self._top[j]][1])

    def rightmost_vertical(self, c: int, col: int) -> int:
        """The largest j > c whose vertical sees every inside cell of
        columns col .. j-1.  A vertical whose bound rules it out is not
        scanned."""
        bound = self.bound
        for j in range(len(bound) - 1, c, -1):
            if bound[j] <= col and self.misses(j)[0] <= col:
                return j
        raise ValueError(f"no usable vertical right of x={self.prof.xs[c]}")

    def furthest_run(self, c: int, ix: int) -> Member:
        """Among the runs of the remainder at column c <= ix over column
        ix < len(prof.spans), the one reaching furthest right (ties: lowest
        line), clipped to the cut: ``(HORIZONTAL, r, start, end)``.

        Walking right from ix, the lines whose run still goes on are the
        intersection of the spans passed, in band indices; the run ends at
        the first slab that empties it, and its line is the intersection's
        bottom, the lowest edge ordinate left.  Walking back left to c
        finds its start.
        """
        spans = self.prof.span_bands
        y, top = spans[ix]
        end = ix + 1
        while end < len(spans):
            lo, hi = spans[end]
            if lo > top or hi < y:
                break
            if lo > y:
                y = lo
            if hi < top:
                top = hi
            end += 1
        start = ix
        while start > c and spans[start - 1][0] <= y <= spans[start - 1][1]:
            start -= 1
        return (HORIZONTAL, y, start, end)


def _nearest_greater(values: Sequence[int]) -> tuple[list[int], list[int]]:
    """Per index i, the nearest index before i and the nearest after i whose
    value is strictly greater than values[i]; -1 and len(values) if none.

    One pass with a stack of non-increasing values: i pops the smaller ones,
    which is where their nearest greater after lies.  Everything between
    the new top and i is smaller than values[i], so the top is i's nearest
    greater before, unless it ties, when the top's own answer is i's.
    """
    n = len(values)
    before, after = [-1] * n, [n] * n
    stack: list[int] = []
    for i, v in enumerate(values):
        while stack and values[stack[-1]] < v:
            after[stack.pop()] = i
        if stack:
            top = stack[-1]
            before[i] = before[top] if values[top] == v else top
        stack.append(i)
    return before, after


def vh_finder(sweep: SweepTables, c: int) -> FinderResult:
    """Vertical-first step on the remainder right of breakpoint ``prof.xs[c]``.

    Takes the rightmost vertical that still sees every cell of the
    remainder weakly left of its own line.  If something is left over, the
    first uncovered cell is patched with the horizontal over it that reaches
    furthest right (ties: lowest line); the cut is that segment's right end.
    """
    n = len(sweep.prof.spans)
    if not 0 <= c <= n:
        raise ValueError(f"cut column {c} is outside 0 .. {n}")
    j = sweep.rightmost_vertical(c, c)
    s_v = sweep.vertical(j)
    _, first, last = sweep.misses(j)
    if first is None:
        return FinderResult(s_v, None, n)
    # c <= first < len(prof.spans), so there is always a run over it
    s_h = sweep.furthest_run(c, first)
    end = s_h[3]
    # the vertical's misses lie in columns miss_lo .. miss_hi; a run covers whole columns
    return FinderResult(s_v, s_h, n if last < end else end)


def hv_finder(sweep: SweepTables, c: int) -> FinderResult:
    """Horizontal-first step on the remainder right of breakpoint ``prof.xs[c]``.

    Takes the horizontal starting on the cut that reaches furthest right
    (ties: lowest line), then the rightmost vertical that sees everything
    between that segment's right end and its own line.  The cut is the last
    breakpoint with nothing uncovered left of it.
    """
    n = len(sweep.prof.spans)
    if not 0 <= c <= n:
        raise ValueError(f"cut column {c} is outside 0 .. {n}")
    if c == n:
        raise ValueError("no left-anchored horizontal candidate")
    s_h = sweep.furthest_run(c, c)
    end = s_h[3]
    # every column holds an inside cell: the run covers the rest iff it
    # ends on the last breakpoint
    if end == n:
        return FinderResult(s_h, None, n)
    j = sweep.rightmost_vertical(c, end)
    _, first, _ = sweep.misses(j)
    return FinderResult(s_h, sweep.vertical(j), n if first is None else first)


def _better(a: FinderResult, b: FinderResult) -> FinderResult:
    """a (vertical-first) vs b (horizontal-first): further cut wins, then
    fewer transmitters; the full tie goes to the horizontal-first step."""
    if a.cut != b.cut:
        return a if a.cut > b.cut else b
    if a.count != b.count:
        return a if a.count < b.count else b
    return b


def approximate_2transmitters(p: OrthoPolygon) -> Solution:
    """Factor-2 approximation of the minimum 2-transmitter cover.

    Slab-indexed tables of the polygon's spans and walls are built once, on
    the whole polygon (:class:`SweepTables`).  Each round runs both finders
    on the remainder right of the cut column, so every chosen segment is
    maximal on the remainder; a round costs one integer test per vertical
    it passes, a row scan for each vertical whose bound lets it through
    (once per solve), and a walk over the slabs of the runs it reads.  No
    cell grid, bitset or remainder profile is built.  The finders return
    index-form members; the chosen ones are deduplicated and sorted in
    canonical order (indices order like coordinates), and only those
    become Transmitters (``member_transmitter``).  Coverage of the
    original polygon is re-verified at the end rather than inferred from
    the loop.  Raises RuntimeError when a round fails to advance the cut or
    the round and size bounds behind the factor-2 guarantee are broken.
    """
    prof = p.profile
    sweep = SweepTables(prof)
    chosen: set[Member] = set()
    c = iterations = 0
    while c < len(prof.spans):
        step = _better(vh_finder(sweep, c), hv_finder(sweep, c))
        chosen.update(step.transmitters)
        iterations += 1
        # Not an assert: python -O strips those, and a stalled cut loops forever.
        if step.cut <= c:
            raise RuntimeError(f"cut at x={prof.xs[step.cut]} does not advance past x={prof.xs[c]}")
        c = step.cut
    # Canonical order: verticals first, then line and ends.
    members = sorted(chosen, key=lambda m: (m[0] == HORIZONTAL, m[1:]))
    transmitters = tuple(member_transmitter(prof, m) for m in members)
    if len(transmitters) > 2 * iterations:
        raise RuntimeError(f"{len(transmitters)} transmitters from {iterations} rounds")
    if iterations > p.m:
        raise RuntimeError(f"{iterations} rounds exceed m = {p.m} vertical edges")
    return Solution.build(p, transmitters, 2, "approx", iterations)
