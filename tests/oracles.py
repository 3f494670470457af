"""Reference implementations used to cross-check the library.

Almost everything here works on the raw vertex ring with generic
segment arithmetic.  The point is to avoid the slab shortcuts the
package uses internally, so agreement is meaningful.  The exceptions:

- percell_region_bits and percolumn_inside_between are the grid code's
  plain cell-by-cell form, the reference at sizes brute force cannot reach.
- reference_validate is the validator's earlier all-pairs form, with its
  per-vertex loops and collinear merge, the reference for the single slab
  scan and the whole-ring checks; its reference_check_simple, which tries
  every pair of edges, is the reference for the contact sweep and the pair
  it names.  reference_slab_scan is the edge-count scan with its accepting
  half (spans, a SlabProfile, the rebuild-and-compare), the reference the
  chain walk must decide every ring like; the library keeps only its
  fault-naming count.
- reference_approximate is the greedy sweep's earlier per-remainder loop,
  the reference for the one-grid sweep; reference_vh_finder and
  reference_hv_finder are the finders' earlier candidate-list scans, the
  reference for the per-vertical reach tables.  All three work on the
  cut_right remainder, so their cuts are x-coordinates, not indices.
- reference_exact is the exact solver's earlier subset enumeration, the
  reference for the depth-first search and its closed-form iteration count;
  reference_dfs is that search before its failure memo, with the witness
  rebuilt by a fresh search at every position, the reference at sizes the
  enumerator cannot reach; dense_exact is the exact search over every
  unit-lattice line, the reference for the edge-aligned family.
- reference_row_walls is SlabProfile.row_walls, the one wall table that
  vis_region, the sweep and segments_cover read, as a scan of every edge
  per ordinate; reference_vertical_edges lists those edges from the spans,
  and its length is the independent count for OrthoPolygon.m.
- reference_prune_dominated is prune_dominated's earlier loop, which ORs
  every other remaining region for each candidate, the reference for the
  one pass over suffix unions; its regions come from vis_region on the
  plain grid, not from the bitset kernel the library prunes with.
- reference_covers is Solution.build's coverage check as it was before the
  band check: a refined grid and the OR of the regions' bitsets.

The small grid and profile helpers (row_reps, cell_rep, cell_index,
is_inside, first_cell, cell_area, profile_area, contains_point) are what
the checks need of a CellGrid or SlabProfile beyond what the solvers use.

Brute force samples each grid cell at its midpoint, which need not be an
integer.  So a sample point is given at twice its coordinates (row_reps,
cell_rep), and every predicate that takes one (point_inside, oracle_sees,
percell_region_bits, reference_row_walls) doubles the ring, segment or
edges it compares with: exact integer arithmetic, strictly inside each cell.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import combinations
from typing import Iterable, Iterator, Sequence

from polytx import (
    InvalidPolygonError,
    NoSolutionWithinBudget,
    OrthoPolygon,
    Solution,
    Transmitter,
    build_grid,
    validate,
    vis_region,
)
from polytx.approx import FinderResult, _better
from polytx.candidates import (
    HORIZONTAL,
    VERTICAL,
    SegmentSet,
    canonical,
    edge_aligned_candidates,
)
from polytx.exact import enumeration_count
from polytx.geometry import (
    COORD_LIMIT,
    CellGrid,
    Edge,
    SlabProfile,
    Span,
    cut_right,
    profile_to_ring,
)

Point = tuple[int, int]


def row_reps(grid: CellGrid) -> tuple[int, ...]:
    """Each grid row's mid-height, doubled."""
    return tuple(a + b for a, b in zip(grid.y_cuts, grid.y_cuts[1:]))


def cell_rep(grid: CellGrid, ix: int, iy: int) -> Point:
    """The cell's midpoint, doubled, where every predicate is evaluated."""
    return (grid.x_cuts[ix] + grid.x_cuts[ix + 1], grid.y_cuts[iy] + grid.y_cuts[iy + 1])


def cell_index(grid: CellGrid, ix: int, iy: int) -> int:
    """The cell's bit in a region mask (column-major)."""
    return ix * grid.ny + iy


def is_inside(grid: CellGrid, ix: int, iy: int) -> bool:
    return bool(grid.inside_mask >> cell_index(grid, ix, iy) & 1)


def first_cell(grid: CellGrid, mask: int) -> tuple[int, int] | None:
    """Minimum-x (ties: lowest y) cell of mask, or None when empty."""
    if mask == 0:
        return None
    idx = (mask & -mask).bit_length() - 1
    return divmod(idx, grid.ny)


def cell_area(grid: CellGrid, mask: int) -> int:
    """Total area of the cells in mask."""
    total = 0
    for ix, iy in grid.iter_cells(mask):
        x1, y1, x2, y2 = grid.cell_bounds(ix, iy)
        total += (x2 - x1) * (y2 - y1)
    return total


def profile_area(prof: SlabProfile) -> int:
    return sum(
        (x2 - x1) * (hi - lo) for x1, x2, (lo, hi) in zip(prof.xs, prof.xs[1:], prof.spans)
    )


def contains_point(prof: SlabProfile, x: int, y: int) -> bool:
    """Whether (x, y) lies in the closed polygon."""
    section = prof.cross_section(x)
    return section is not None and section[0] <= y <= section[1]


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
    """Ray-casting parity test for the point given doubled, (px / 2, py / 2).

    Only valid for points that are not on any edge line of the ring;
    cell representatives always satisfy that.
    """
    crossings = 0
    for (x1, y1), (x2, y2) in ring_edges(ring):
        if x1 == x2 and 2 * x1 > px:
            lo, hi = (y1, y2) if y1 < y2 else (y2, y1)
            if 2 * lo < py < 2 * hi:
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


def doubled_edges(p: OrthoPolygon) -> list[tuple[Point, Point]]:
    """The boundary edges of p scaled by 2, to test against doubled points."""
    return list(ring_edges([(2 * x, 2 * y) for x, y in p.vertices]))


def oracle_sees(
    edges: Sequence[tuple[Point, Point]], s: Transmitter, k: int, rep: Point
) -> bool:
    """Brute-force visibility of the point given doubled, as cell_rep gives
    it, against the polygon's doubled_edges: perpendicular foot on the
    closed span, then count proper crossings of the sight segment against
    every boundary edge."""
    px, py = rep
    lo, hi = s.span
    if s.orientation == "v":
        if not 2 * lo <= py <= 2 * hi:
            return False
        foot = (2 * s.anchor, py)
    else:
        if not 2 * lo <= px <= 2 * hi:
            return False
        foot = (px, 2 * s.anchor)
    if foot == rep:
        return True
    crossings = sum(1 for a, b in edges if properly_cross(rep, foot, a, b))
    return crossings <= k


def oracle_region_bits(p: OrthoPolygon, s: Transmitter, k: int, grid) -> int:
    edges = doubled_edges(p)
    bits = 0
    for ix, iy in grid.iter_cells(grid.inside_mask):
        if oracle_sees(edges, s, k, cell_rep(grid, ix, iy)):
            bits |= 1 << cell_index(grid, ix, iy)
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
    lo, hi = 2 * s.span[0], 2 * s.span[1]
    edges = reference_vertical_edges(grid.profile)
    row_walls = [
        sorted(2 * x for x, ylo, yhi in edges if 2 * ylo < ry < 2 * yhi) for ry in row_reps(grid)
    ]
    bits = 0
    for ix, iy in grid.iter_cells(grid.inside_mask):
        px, py = cell_rep(grid, ix, iy)
        if s.orientation == "h":
            seen = lo < px < hi
        elif lo < py < hi:
            x1, x2 = sorted((px, 2 * s.anchor))
            walls = row_walls[iy]
            seen = bisect_left(walls, x2) - bisect_right(walls, x1) <= k
        else:
            seen = False
        if seen:
            bits |= 1 << cell_index(grid, ix, iy)
    return bits


def percolumn_inside_between(grid, x_lo, x_hi) -> int:
    """CellGrid.inside_mask_between, one column and one cell at a time."""
    bits = 0
    for ix in range(grid.nx):
        if grid.x_cuts[ix] < x_lo or grid.x_cuts[ix + 1] > x_hi:
            continue
        for iy in range(grid.ny):
            if is_inside(grid, ix, iy):
                bits |= 1 << cell_index(grid, ix, iy)
    return bits


def reference_row_walls(prof: SlabProfile, ys: Iterable[int]) -> tuple[tuple[int, ...], ...]:
    """Per ordinate y, given doubled as row_reps gives it, the breakpoint
    indices of the vertical edges with ylo < y / 2 < yhi, as a scan of every
    edge; at the band midpoints this is SlabProfile.row_walls."""
    col = {x: i for i, x in enumerate(prof.xs)}
    edges = reference_vertical_edges(prof)
    return tuple(tuple(col[x] for (x, ylo, yhi) in edges if 2 * ylo < y < 2 * yhi) for y in ys)


def reference_vertical_edges(prof: SlabProfile) -> tuple[tuple[int, int, int], ...]:
    """All vertical boundary edges as (x, y_lo, y_hi), by x then lower y:
    the removed SlabProfile.vertical_edges, as the edge-by-edge reference
    for OrthoPolygon.m and the wall tables."""
    edges = [(prof.xs[0], *prof.spans[0])]
    for i in range(1, len(prof.spans)):
        (pb, pt), (cb, ct) = prof.spans[i - 1], prof.spans[i]
        x = prof.xs[i]
        if pb != cb:
            edges.append((x, min(pb, cb), max(pb, cb)))
        if pt != ct:
            edges.append((x, min(pt, ct), max(pt, ct)))
    edges.append((prof.xs[-1], *prof.spans[-1]))
    return tuple(sorted(edges))


def reference_covers(p: OrthoPolygon, transmitters: Sequence[Transmitter], k: int) -> bool:
    """Solution.build's coverage flag from bitsets: the grid refined with
    every transmitter coordinate, and the union of the transmitters'
    vis_region bits compared with the inside cells.  Raises the ValueError
    build_grid raises for an out-of-box coordinate."""
    extra_x: list[int] = []
    extra_y: list[int] = []
    for t in transmitters:
        if t.orientation == VERTICAL:
            extra_x.append(t.anchor)
            extra_y.extend(t.span)
        else:
            extra_y.append(t.anchor)
            extra_x.extend(t.span)
    grid = build_grid(p.profile, extra_x, extra_y)
    bits = 0
    for t in transmitters:
        bits |= vis_region(t, k, grid).bits
    return bits & grid.inside_mask == grid.inside_mask


def mirrored(p: OrthoPolygon) -> OrthoPolygon:
    """The polygon reflected through x = 0 (still CCW after reversal)."""
    ring = [(-x, y) for x, y in reversed(p.vertices)]
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
    edges = doubled_edges(p)
    for ix, iy in grid.iter_cells(grid.inside_mask):
        rep = cell_rep(grid, ix, iy)
        if not any(oracle_sees(edges, s, k, rep) for s in segs):
            return False
    return True


def notched(ring: Sequence[Point], depth: int = 1) -> list[Point]:
    """The ring scaled by 3, with a notch cut into its first right-boundary edge.

    The notch is one unit in from both ends of that edge and `depth` units
    deep.  At depth 1 it stays inside the last slab, so the polygon is simple
    but not x-monotone; deeper notches may run into other edges.
    """
    pts = [(3 * x, 3 * y) for x, y in ring]
    x_max = max(x for x, _ in pts)
    n = len(pts)
    for i in range(n):
        (x1, y1), (x2, y2) = pts[i], pts[(i + 1) % n]
        if x1 == x2 == x_max:
            step = 1 if y2 > y1 else -1
            a, b, x = y1 + step, y2 - step, x_max - depth
            return pts[: i + 1] + [(x_max, a), (x, a), (x, b), (x_max, b)] + pts[i + 1 :]
    raise ValueError("ring has no vertical edge on its right boundary")


def reference_merge_collinear(ring: list[Point]) -> list[Point]:
    """Drop vertices interior to straight runs; reject boundary spikes."""
    n = len(ring)
    axes = []
    for i in range(n):
        (x1, y1), (x2, y2) = ring[i], ring[(i + 1) % n]
        axes.append("h" if y1 == y2 else "v")
    merged: list[Point] = []
    for i in range(n):
        prev_axis, next_axis = axes[i - 1], axes[i]
        if prev_axis != next_axis:
            merged.append(ring[i])
            continue
        # Same axis on both sides: straight run or spike.
        a, v, b = ring[i - 1], ring[i], ring[(i + 1) % n]
        d1 = (v[0] - a[0], v[1] - a[1])
        d2 = (b[0] - v[0], b[1] - v[1])
        if d1[0] * d2[0] + d1[1] * d2[1] < 0:
            raise InvalidPolygonError(
                "self-intersecting", f"boundary reverses onto itself at vertex {i}", i
            )
        # forward continuation: drop the middle vertex
    return merged


def reference_check_simple(ring: list[Point]) -> None:
    """Reject any contact between non-adjacent edges (closed-segment overlap)."""
    n = len(ring)
    edges = [(ring[i], ring[(i + 1) % n], i) for i in range(n)]

    def _interval(a: int, b: int) -> Span:
        return (a, b) if a <= b else (b, a)

    for i in range(n):
        (p1, q1, _) = edges[i]
        for j in range(i + 1, n):
            if j == i + 1 or (i == 0 and j == n - 1):
                continue  # adjacent edges share exactly their common vertex
            (p2, q2, _) = edges[j]
            h1, h2 = p1[1] == q1[1], p2[1] == q2[1]
            if h1 and h2:
                if p1[1] == p2[1]:
                    a1, b1 = _interval(p1[0], q1[0])
                    a2, b2 = _interval(p2[0], q2[0])
                    if max(a1, a2) <= min(b1, b2):
                        raise InvalidPolygonError(
                            "self-intersecting",
                            f"horizontal edges {i} and {j} overlap",
                            i,
                        )
            elif not h1 and not h2:
                if p1[0] == p2[0]:
                    a1, b1 = _interval(p1[1], q1[1])
                    a2, b2 = _interval(p2[1], q2[1])
                    if max(a1, a2) <= min(b1, b2):
                        raise InvalidPolygonError(
                            "self-intersecting",
                            f"vertical edges {i} and {j} overlap",
                            i,
                        )
            else:
                if h1:
                    hy, (hx1, hx2) = p1[1], _interval(p1[0], q1[0])
                    vx, (vy1, vy2) = p2[0], _interval(p2[1], q2[1])
                else:
                    hy, (hx1, hx2) = p2[1], _interval(p2[0], q2[0])
                    vx, (vy1, vy2) = p1[0], _interval(p1[1], q1[1])
                if hx1 <= vx <= hx2 and vy1 <= hy <= vy2:
                    raise InvalidPolygonError(
                        "self-intersecting", f"edges {i} and {j} cross or touch", i
                    )


def reference_validate(vertices: Iterable[Point]) -> OrthoPolygon:
    """polytx.validate as it was before the single slab scan.

    It checks every pair of edges for contact on every input, then scans
    all horizontal edges once per slab.  Both steps are O(n^2).

    Accepts either orientation (clockwise input is reversed), merges collinear
    vertices, and tolerates an explicitly repeated closing vertex.  Raises
    :class:`InvalidPolygonError` naming the violated property and an offending
    vertex index otherwise.
    """
    pts = [tuple(v) for v in vertices]
    for i, pt in enumerate(pts):
        if len(pt) != 2 or not all(isinstance(c, int) and not isinstance(c, bool) for c in pt):
            raise InvalidPolygonError("non-integer", f"vertex {i} is not an integer pair", i)
        if any(abs(c) > COORD_LIMIT for c in pt):
            raise InvalidPolygonError("out-of-range", f"vertex {i} exceeds |c| <= {COORD_LIMIT}", i)
    if len(pts) > 1 and pts[0] == pts[-1]:
        pts.pop()

    ring = pts
    n = len(ring)
    for i in range(n):
        if ring[i] == ring[(i + 1) % n]:
            raise InvalidPolygonError("degenerate-edge", f"zero-length edge at vertex {i}", i)
    for i in range(n):
        (x1, y1), (x2, y2) = ring[i], ring[(i + 1) % n]
        if x1 != x2 and y1 != y2:
            raise InvalidPolygonError(
                "non-orthogonal", f"edge from vertex {i} is not axis-parallel", i
            )
    if n < 4:
        raise InvalidPolygonError("too-few-vertices", f"need at least 4 vertices, got {n}")

    ring = reference_merge_collinear(ring)
    if len(ring) < 4:
        raise InvalidPolygonError("degenerate-edge", "polygon collapses after merging collinear runs")

    seen: dict[Point, int] = {}
    for i, pt in enumerate(ring):
        if pt in seen:
            raise InvalidPolygonError(
                "duplicate-vertex", f"vertex {i} repeats vertex {seen[pt]}", i
            )
        seen[pt] = i

    area2 = shoelace2(ring)
    if area2 == 0:
        raise InvalidPolygonError("self-intersecting", "ring encloses zero area")
    if area2 < 0:
        ring.reverse()

    reference_check_simple(ring)

    # Monotonicity and slab extraction: every vertical line interior to a slab
    # must be spanned by exactly one bottom and one top horizontal edge.
    xs = sorted({x for x, _ in ring})
    hedges = []
    nr = len(ring)
    for i in range(nr):
        (x1, y1), (x2, y2) = ring[i], ring[(i + 1) % nr]
        if y1 == y2:
            hedges.append((min(x1, x2), max(x1, x2), y1, i))
    spans: list[Span] = []
    for x1, x2 in zip(xs, xs[1:]):
        spanning = sorted(
            (y, idx) for (ex1, ex2, y, idx) in hedges if ex1 <= x1 and x2 <= ex2
        )
        if len(spanning) != 2:
            offender = spanning[2][1] if len(spanning) > 2 else (spanning[0][1] if spanning else 0)
            raise InvalidPolygonError(
                "not-monotone",
                f"a vertical line over [{x1},{x2}] meets "
                f"{len(spanning)} horizontal edges (want 2)",
                offender,
            )
        spans.append((spanning[0][0], spanning[1][0]))
    for (a, b), (c, d) in zip(spans, spans[1:]):
        if max(a, c) > min(b, d):
            raise InvalidPolygonError("not-monotone", "interior disconnects between slabs")

    profile = SlabProfile(tuple(xs), tuple(spans))

    # The slab union must be exactly the input region; compare canonical rings
    # up to rotation.  Any discrepancy means the ring is not a monotone stack.
    rebuilt = profile_to_ring(profile.xs, profile.spans)
    if len(rebuilt) != len(ring) or set(rebuilt) != set(ring):
        raise InvalidPolygonError("not-monotone", "region is not a left-to-right slab stack")
    start = ring.index(rebuilt[0])
    if ring[start:] + ring[:start] != rebuilt:
        raise InvalidPolygonError("not-monotone", "region is not a left-to-right slab stack")

    return OrthoPolygon(tuple(ring), profile)


def reference_slab_scan(ring: list[Point], hs: list[Edge]) -> SlabProfile:
    """The edge-count scan: slab decomposition of a counter-clockwise ring
    with horizontal edges hs, or a ValueError that names why it is not one.

    Every vertical line interior to a slab must be spanned by exactly one
    bottom and one top horizontal edge, and the slab union rebuilt from those
    spans must be the input ring.  This is geometry._slab_scan before the
    chain walk became the only acceptor; it accepts the same rings as the
    walk in geometry._slab_stack.
    """
    xs = sorted({x for x, _ in ring})
    slab_of = {x: s for s, x in enumerate(xs)}
    # Horizontal edges as (first slab, end slab, y, index): slabs first..end-1.
    hedges = [(slab_of[lo], slab_of[hi], y, i) for y, lo, hi, i in hs]
    # Edges over each slab, counted with a difference array.
    delta = [0] * len(xs)
    for a, b, _, _ in hedges:
        delta[a] += 1
        delta[b] -= 1
    over = 0
    for s in range(len(xs) - 1):
        over += delta[s]
        if over != 2:
            spanning = sorted((y, i) for a, b, y, i in hedges if a <= s < b)
            offender = spanning[2][1] if len(spanning) > 2 else (spanning[0][1] if spanning else 0)
            raise InvalidPolygonError(
                "not-monotone",
                f"a vertical line over [{xs[s]},{xs[s + 1]}] meets "
                f"{len(spanning)} horizontal edges (want 2)",
                offender,
            )
    ys: list[list[int]] = [[] for _ in xs[1:]]
    for a, b, y, _ in hedges:
        for s in range(a, b):
            ys[s].append(y)
    spans = [(min(pair), max(pair)) for pair in ys]
    profile = SlabProfile(tuple(xs), tuple(spans))

    # The slab union must be exactly the input region; compare canonical rings
    # up to rotation.  Any discrepancy means the ring is not a monotone stack.
    rebuilt = profile_to_ring(profile.xs, profile.spans)
    if len(rebuilt) != len(ring) or set(rebuilt) != set(ring):
        raise InvalidPolygonError("not-monotone", "region is not a left-to-right slab stack")
    start = ring.index(rebuilt[0])
    if ring[start:] + ring[:start] != rebuilt:
        raise InvalidPolygonError("not-monotone", "region is not a left-to-right slab stack")
    return profile


def reference_prune_dominated(p: OrthoPolygon, k: int = 2) -> SegmentSet:
    """prune_dominated as a loop that, for each candidate of the polygon's
    edge-aligned family in canonical order, ORs the region of every other
    remaining one.  The regions are vis_region's on the plain grid."""
    cands = edge_aligned_candidates(p.profile)
    grid = build_grid(p.profile)
    bits = {s: vis_region(s, k, grid).bits for s in cands}
    kept = list(cands)
    for s in cands:
        others = 0
        for t in kept:
            if t is not s:
                others |= bits[t]
        if bits[s] & ~others == 0:
            kept.remove(s)
    return tuple(kept)


def finder_tables(prof: SlabProfile, cands: Sequence[Transmitter]) -> dict:
    """A fresh grid on prof and the k=2 regions of cands on it, as the
    reference finders' ``grid`` and ``regions`` keywords."""
    grid = build_grid(prof)
    return {"grid": grid, "regions": [vis_region(s, 2, grid).bits for s in cands]}


def _check_finder_inputs(cands: Sequence[Transmitter], regions: Sequence[int]) -> None:
    if not cands:
        raise ValueError("finder needs a nonempty candidate set")
    if len(regions) != len(cands):
        raise ValueError(f"{len(regions)} regions for {len(cands)} candidates")


def reference_vh_finder(
    prof: SlabProfile,
    cands: Sequence[Transmitter],
    *,
    grid: CellGrid,
    regions: Sequence[int],
) -> FinderResult:
    """vh_finder as it was before the per-vertical reach tables: a scan of
    the candidate list, one region test per vertical.

    ``regions`` holds the k=2 region bits of each candidate, parallel to
    ``cands``, on ``grid`` (see :func:`finder_tables`).  It runs on the
    ``cut_right`` remainder ``prof``, so the result's ``cut`` is an
    x-coordinate, the line ``xs[cut]`` where vh_finder reports the index.
    """
    _check_finder_inputs(cands, regions)
    inside = grid.inside_mask
    s_v = v_bits = None
    for s, bits in zip(cands, regions):
        if s.orientation != VERTICAL:
            continue
        if s_v is not None and s.anchor <= s_v.anchor:
            continue
        left = grid.inside_mask_between(grid.x_cuts[0], s.anchor)
        if left & bits == left:
            s_v, v_bits = s, bits
    if s_v is None:
        raise ValueError("no usable vertical candidate (family must span the left edge)")
    uncovered = inside & ~v_bits
    if uncovered == 0:
        return FinderResult(s_v, None, prof.x_max)
    ix, _ = first_cell(grid, uncovered)
    px, _ = cell_rep(grid, ix, 0)
    s_h = h_bits = None
    for s, bits in zip(cands, regions):
        if s.orientation != HORIZONTAL or not 2 * s.span[0] < px < 2 * s.span[1]:
            continue
        if s_h is None or (s.span[1], -s.anchor) > (s_h.span[1], -s_h.anchor):
            s_h, h_bits = s, bits
    if s_h is None:
        raise ValueError("no horizontal candidate over the first uncovered cell")
    if uncovered & ~h_bits == 0:
        return FinderResult(s_v, s_h, prof.x_max)
    return FinderResult(s_v, s_h, s_h.span[1])


def reference_hv_finder(
    prof: SlabProfile,
    cands: Sequence[Transmitter],
    *,
    grid: CellGrid,
    regions: Sequence[int],
) -> FinderResult:
    """hv_finder as it was before the per-vertical reach tables; arguments,
    and the ``cut`` given as an x-coordinate, as for
    :func:`reference_vh_finder`."""
    _check_finder_inputs(cands, regions)
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
        return FinderResult(s_h, None, prof.x_max)
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
        return FinderResult(s_h, s_v, prof.x_max)
    ix, _ = first_cell(grid, uncovered)
    cut = prof.xs[bisect_right(prof.xs, grid.x_cuts[ix]) - 1]
    return FinderResult(s_h, s_v, cut)


def reference_approximate(p: OrthoPolygon) -> Solution:
    """approximate_2transmitters as it was before the one-grid sweep.

    Every round rebuilds the edge-aligned family on the cut_right remainder,
    and a grid and regions of its own for the reference finders.
    """
    chosen: list[Transmitter] = []
    current: SlabProfile | None = p.profile
    iterations = 0
    while current is not None:
        cands = edge_aligned_candidates(current)
        tables = finder_tables(current, cands)
        step = _better(
            reference_vh_finder(current, cands, **tables),
            reference_hv_finder(current, cands, **tables),
        )
        chosen.extend(step.transmitters)
        iterations += 1
        if step.cut == current.x_max:
            break
        if step.cut <= current.x_min:
            raise RuntimeError(f"cut at x={step.cut} does not advance past x={current.x_min}")
        current = cut_right(current, step.cut)
    transmitters = canonical(chosen)
    if len(transmitters) > 2 * iterations:
        raise RuntimeError(f"{len(transmitters)} transmitters from {iterations} rounds")
    if iterations > p.m:
        raise RuntimeError(f"{iterations} rounds exceed m = {p.m} vertical edges")
    return Solution.build(p, transmitters, 2, "approx", iterations)


def dense_exact(p: OrthoPolygon, k: int, budget: int = 8) -> Solution:
    """exact_min_transmitters over every input-unit lattice line.

    The family is the maximal segment on each lattice line meeting the
    polygon, and the grid is refined with all those lines; the search is the
    same cardinality-first enumeration in canonical order.  A smaller
    optimum here than on the edge-aligned family would disprove the claim
    that searching the edge-aligned family is lossless.
    """
    prof = p.profile
    segs = []
    for x in range(prof.x_min, prof.x_max + 1):
        section = prof.cross_section(x)
        if section is not None:
            segs.append(Transmitter("v", x, section))
    for y in range(prof.y_min, prof.y_max + 1):
        for run in prof.runs_at(y):
            segs.append(Transmitter("h", y, run))
    cands = canonical(segs)
    grid = build_grid(prof, range(prof.x_min, prof.x_max + 1), range(prof.y_min, prof.y_max + 1))
    bits = [vis_region(s, k, grid).bits for s in cands]
    target = grid.inside_mask
    iterations = 0
    for size in range(1, budget + 1):
        for combo in combinations(range(len(cands)), size):
            iterations += 1
            acc = 0
            for i in combo:
                acc |= bits[i]
            if acc & target == target:
                chosen = tuple(cands[i] for i in combo)
                return Solution.build(p, chosen, k, "exact-dense", iterations)
    raise NoSolutionWithinBudget(budget)


def reference_exact(p: OrthoPolygon, k: int, budget: int = 8) -> Solution:
    """exact_min_transmitters as it was before the depth-first search.

    Subsets of the edge-aligned family are tried in increasing size and,
    within a size, in the family's canonical order; `iterations` counts the
    subsets evaluated, which the library reports in closed form.
    """
    if k not in (0, 1, 2):
        raise ValueError("k must be 0, 1 or 2")
    if budget < 1:
        raise ValueError("budget must be at least 1")
    cands = edge_aligned_candidates(p.profile)
    grid = build_grid(p.profile)
    bits = [vis_region(s, k, grid).bits for s in cands]
    target = grid.inside_mask
    every = 0
    for b in bits:
        every |= b
    if every & target != target:
        raise NoSolutionWithinBudget(budget)
    order = range(len(cands))
    iterations = 0
    for size in range(1, budget + 1):
        for combo in combinations(order, size):
            iterations += 1
            acc = 0
            for i in combo:
                acc |= bits[i]
            if acc & target == target:
                chosen = tuple(cands[i] for i in combo)
                return Solution.build(p, chosen, k, "exact", iterations)
    raise NoSolutionWithinBudget(budget)


def _dfs_covers(bits: Sequence[int], uncovered: int, r: int, lo: int) -> bool:
    """Whether at most r of bits[lo:] together cover the nonzero mask uncovered."""
    low = uncovered & -uncovered
    for i in range(lo, len(bits)):
        b = bits[i]
        if b & low:
            rest = uncovered & ~b
            if not rest or (r > 1 and _dfs_covers(bits, rest, r - 1, lo)):
                return True
    return False


def reference_dfs(p: OrthoPolygon, k: int, budget: int = 8) -> Solution:
    """exact_min_transmitters as it was before the failure memo.

    Iterative deepening finds the optimum with no memory between levels,
    and the lexicographically least witness is built one position at a time
    by a fresh search for each index tried.
    """
    cands = edge_aligned_candidates(p.profile)
    grid = build_grid(p.profile)
    bits = [vis_region(s, k, grid).bits for s in cands]
    target = grid.inside_mask
    n = len(bits)
    every = 0
    for b in bits:
        every |= b
    if every & target != target:
        raise NoSolutionWithinBudget(budget)
    for opt in range(1, min(budget, n) + 1):
        if _dfs_covers(bits, target, opt, 0):
            break
    else:
        raise NoSolutionWithinBudget(budget)
    witness: list[int] = []
    uncovered, lo = target, 0
    for left in range(opt - 1, -1, -1):
        for i in range(lo, n):
            rest = uncovered & ~bits[i]
            if not rest or (left and _dfs_covers(bits, rest, left, i + 1)):
                break
        witness.append(i)
        uncovered, lo = rest, i + 1
    chosen = tuple(cands[i] for i in witness)
    return Solution.build(p, chosen, k, "exact", enumeration_count(witness, n))
