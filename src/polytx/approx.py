"""Two-transmitter cover by repeated left-to-right finder steps.

Each iteration runs two greedy finders on the remaining (right) part of the
polygon.  Both return at most two segments that cover everything up to some
cut line; the better step (further cut, then fewer segments) is kept and the
covered prefix is discarded.  At most two segments per iteration against at
least one in any optimal cover gives the factor-2 guarantee.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

from .candidates import (
    HORIZONTAL,
    SegmentSet,
    Transmitter,
    VERTICAL,
    canonical,
    edge_aligned_candidates,
)
from .geometry import CellGrid, OrthoPolygon, SlabProfile, build_grid, cut_right
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


def _check_inputs(cands: Sequence[Transmitter], regions: Sequence[int]) -> None:
    if not cands:
        raise ValueError("finder needs a nonempty candidate set")
    if len(regions) != len(cands):
        raise ValueError(f"{len(regions)} regions for {len(cands)} candidates")


def vh_finder(
    prof: SlabProfile,
    cands: Sequence[Transmitter],
    *,
    grid: CellGrid,
    regions: Sequence[int],
) -> FinderResult:
    """Vertical-first step.

    Takes the rightmost vertical candidate that still sees every cell weakly
    left of its own line (the left edge qualifies vacuously).  If something
    is left over, the first uncovered cell is patched with the horizontal
    candidate over it that reaches furthest right (ties: lowest line); the
    cut is that segment's right end.

    ``regions`` holds the k=2 region bits of each candidate, parallel to
    ``cands``, on ``grid``; whatever lies outside ``grid.inside_mask`` is
    ignored.
    """
    _check_inputs(cands, regions)
    inside = grid.inside_mask
    s_v = v_bits = None
    for s, bits in zip(cands, regions):
        if s.orientation != VERTICAL:
            continue
        if s_v is not None and s.anchor <= s_v.anchor:
            continue
        left = grid.inside_mask_between(None, s.anchor)
        if left & bits == left:  # cheaper than left & ~bits == 0 on wide grids
            s_v, v_bits = s, bits
    if s_v is None:
        raise ValueError("no usable vertical candidate (family must span the left edge)")
    uncovered = inside & ~v_bits
    if uncovered == 0:
        return FinderResult(s_v, None, prof.x_max, True)
    ix, _ = grid.first_cell(uncovered)
    px = grid.rep_xs[ix]
    s_h = h_bits = None
    for s, bits in zip(cands, regions):
        if s.orientation != HORIZONTAL or not s.span[0] < px < s.span[1]:
            continue
        if s_h is None or (s.span[1], -s.anchor) > (s_h.span[1], -s_h.anchor):
            s_h, h_bits = s, bits
    if s_h is None:
        raise ValueError("no horizontal candidate over the first uncovered cell")
    if uncovered & ~h_bits == 0:
        return FinderResult(s_v, s_h, prof.x_max, True)
    return FinderResult(s_v, s_h, s_h.span[1], False)


def hv_finder(
    prof: SlabProfile,
    cands: Sequence[Transmitter],
    *,
    grid: CellGrid,
    regions: Sequence[int],
) -> FinderResult:
    """Horizontal-first step.

    Takes the left-anchored horizontal candidate reaching furthest right
    (ties: lowest line), then the rightmost vertical candidate that sees
    everything between that segment's right end and its own line.  The cut
    is the last breakpoint with nothing uncovered left of it.

    ``grid`` and ``regions`` are as for :func:`vh_finder`.
    """
    _check_inputs(cands, regions)
    inside = grid.inside_mask
    x_min = prof.x_min
    s_h = h_bits = None
    for s, bits in zip(cands, regions):
        if s.orientation != HORIZONTAL or s.span[0] != x_min:
            continue
        if s_h is None or (s.span[1], -s.anchor) > (s_h.span[1], -s_h.anchor):
            s_h, h_bits = s, bits
    if s_h is None:
        raise ValueError("no left-anchored horizontal candidate")
    ell = s_h.span[1]
    if inside & ~h_bits == 0:
        return FinderResult(s_h, None, prof.x_max, True)
    s_v = v_bits = None
    for s, bits in zip(cands, regions):
        if s.orientation != VERTICAL:
            continue
        if s_v is not None and s.anchor <= s_v.anchor:
            continue
        between = grid.inside_mask_between(ell, s.anchor)
        if between & bits == between:
            s_v, v_bits = s, bits
    if s_v is None:
        raise ValueError("no usable vertical candidate (family needs one left of the cut)")
    uncovered = inside & ~(h_bits | v_bits)
    if uncovered == 0:
        return FinderResult(s_h, s_v, prof.x_max, True)
    ix, _ = grid.first_cell(uncovered)
    cut = prof.xs[bisect_right(prof.xs, grid.x_cuts[ix]) - 1]
    return FinderResult(s_h, s_v, cut, False)


def _better(a: FinderResult, b: FinderResult) -> FinderResult:
    """a (vertical-first) vs b (horizontal-first): further cut wins, then
    fewer transmitters; the full tie goes to the horizontal-first step."""
    if a.cut_x != b.cut_x:
        return a if a.cut_x > b.cut_x else b
    if a.count != b.count:
        return a if a.count < b.count else b
    return b


class _SweepFamily:
    """The polygon's edge-aligned family and k=2 regions, built once per solve.

    Each round's remainder family is derived from these tables: only the
    vertical on the cut is new, because that line is shorter on the
    remainder.  Every other region is the whole polygon's, which agrees with
    the remainder's on the columns right of the cut (walls left of the cut
    are never reached, walls on it are not crossed).
    """

    def __init__(self, prof: SlabProfile, grid: CellGrid):
        family = edge_aligned_candidates(prof)
        bits = [vis_region(s, 2, grid).bits for s in family[1:]]
        nv = len(prof.xs)
        # Verticals right of the left edge, by anchor.
        self.verticals = family[1:nv]
        self.vertical_bits = bits[: nv - 1]
        # Ordinate -> (right ends, runs, region bits), the runs sorted by lo.
        self.runs: dict[int, tuple[list[int], list[Transmitter], list[int]]] = {}
        for s, b in zip(family[nv:], bits[nv - 1 :]):
            his, segs, regs = self.runs.setdefault(s.anchor, ([], [], []))
            his.append(s.span[1])
            segs.append(s)
            regs.append(b)

    def at(self, current: SlabProfile, grid: CellGrid) -> tuple[list[Transmitter], list[int]]:
        """The canonical family of `current`, a cut_right remainder of the
        whole profile, and its regions on `grid` (a view at the cut)."""
        cut = current.x_min
        edge = Transmitter(VERTICAL, cut, current.spans[0])
        right = 1 - len(current.xs)  # the verticals strictly right of the cut
        cands = [edge, *self.verticals[right:]]
        regions = [vis_region(edge, 2, grid).bits, *self.vertical_bits[right:]]
        # Runs at one ordinate are disjoint, so clipping the first one that
        # reaches past the cut keeps them in canonical order.
        for y in current.edge_ordinates:
            his, segs, regs = self.runs[y]
            j = bisect_right(his, cut)
            if j < len(segs) and segs[j].span[0] < cut:
                cands.append(Transmitter(HORIZONTAL, y, (cut, his[j])))
                regions.append(regs[j])
                j += 1
            cands += segs[j:]
            regions += regs[j:]
        return cands, regions


def approximate_2transmitters(p: OrthoPolygon) -> Solution:
    """Factor-2 approximation of the minimum 2-transmitter cover.

    The candidate family, the cell grid and the k=2 regions are built once,
    on the whole polygon.  Each round sees the remainder right of the cut
    through a view of that grid and a family clipped at the cut, so every
    chosen segment is maximal on the remainder; only the vertical on the cut
    gets a new region.  Coverage of the original polygon is re-verified at
    the end rather than inferred from the loop.  Raises RuntimeError when a
    round fails to advance the cut or the round and size bounds behind the
    factor-2 guarantee are broken.
    """
    prof = p.profile
    grid = build_grid(prof)
    family = _SweepFamily(prof, grid)
    chosen: list[Transmitter] = []
    current: SlabProfile | None = prof
    iterations = 0
    while current is not None:
        view = grid.right_of(current.x_min)
        cands, regions = family.at(current, view)
        step = _better(
            vh_finder(current, cands, grid=view, regions=regions),
            hv_finder(current, cands, grid=view, regions=regions),
        )
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
