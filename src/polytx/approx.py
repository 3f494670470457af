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

from .candidates import (
    HORIZONTAL,
    SegmentSet,
    Transmitter,
    VERTICAL,
    canonical,
    edge_aligned_candidates,
)
from .geometry import OrthoPolygon, SlabProfile, build_grid, cut_right
from .visibility import covers_polygon, union_regions, vis_region


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
        grid is refined with every transmitter coordinate and the union of
        the k-visibility regions is compared against the whole polygon.
        """
        extra_x: list[int] = []
        extra_y: list[int] = []
        for t in transmitters:
            if t.orientation == VERTICAL:
                extra_x.append(t.anchor)
                extra_y.extend(t.span)
            else:
                extra_y.append(t.anchor)
                extra_x.extend(t.span)
        grid = build_grid(polygon.profile, extra_x, extra_y)
        regions = [vis_region(t, k, grid) for t in transmitters]
        covered = covers_polygon(union_regions(regions, grid=grid))
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
    and ``prof.xs[c + 1]``, and column c of ``build_grid(prof)``, the grid
    the table is computed on.  Of the edge-aligned family it keeps:

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

    A region on the whole polygon agrees with the region on any
    ``cut_right`` remainder on the columns right of the cut: walls left of
    the cut are never reached and walls on it are not crossed.
    """

    def __init__(self, prof: SlabProfile):
        self.prof = prof
        grid = build_grid(prof)
        family = edge_aligned_candidates(prof)
        n, ny = len(prof.xs), grid.ny
        self.verticals = family[:n]
        self.reach, self.miss_lo, self.miss_hi = [0], [None], [None]
        for j in range(1, n):
            # one XOR: vis_region already masks its bits with inside_mask
            missed = grid.inside_mask ^ vis_region(family[j], 2, grid).bits
            left, right = missed & grid.columns(0, j), missed >> j * ny
            # bit b is a cell of column b // ny
            self.reach.append((left.bit_length() + ny - 1) // ny)
            self.miss_lo.append(j + ((right & -right).bit_length() - 1) // ny if right else None)
            self.miss_hi.append((missed.bit_length() - 1) // ny if right else None)
        last = {}
        for i, span in enumerate(prof.spans):
            for y in span:
                last[y] = i
        col = {x: i for i, x in enumerate(prof.xs)}
        runs: dict[int, tuple[list[int], list[int]]] = {}
        for s in family[n:]:
            los, his = runs.setdefault(s.anchor, ([], []))
            los.append(col[s.span[0]])
            his.append(col[s.span[1]])
        # (last slab, y, los, his), latest first: the ordinates of the
        # remainder at column c are a prefix, those with last >= c.
        self.ordinates = sorted(((last[y], y, *lh) for y, lh in runs.items()), reverse=True)

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

    The candidate family and a slab-indexed table of the verticals' k=2
    regions are built once, on the whole polygon (:class:`SweepTables`).
    Each round runs both finders on the remainder right of the cut, so
    every chosen segment is maximal on the remainder; a round costs one
    integer test per vertical it passes and one bisection per live
    ordinate, with no bitset work.  Coverage of the original polygon is
    re-verified at the end rather than inferred from the loop.  Raises
    RuntimeError when a round fails to advance the cut or the round and
    size bounds behind the factor-2 guarantee are broken.
    """
    prof = p.profile
    sweep = SweepTables(prof)
    chosen: list[Transmitter] = []
    current: SlabProfile | None = prof
    iterations = 0
    while current is not None:
        step = _better(vh_finder(sweep, current.x_min), hv_finder(sweep, current.x_min))
        chosen.extend(step.transmitters)
        iterations += 1
        if step.done:
            break
        # Not an assert: python -O strips those, and a stalled cut loops forever.
        if step.cut_x <= current.x_min:
            raise RuntimeError(f"cut at x={step.cut_x} does not advance past x={current.x_min}")
        current = cut_right(current, step.cut_x)
    transmitters = canonical(chosen)
    if len(transmitters) > 2 * iterations:
        raise RuntimeError(f"{len(transmitters)} transmitters from {iterations} rounds")
    if iterations > p.m:
        raise RuntimeError(f"{iterations} rounds exceed m = {p.m} vertical edges")
    return Solution.build(p, transmitters, 2, "approx", iterations)
