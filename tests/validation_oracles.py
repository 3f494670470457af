"""The validator's earlier forms, the references for validate.

- reference_validate is the validator's earlier all-pairs form, with its
  per-vertex loops and collinear merge, the reference for the chain walk
  and the whole-ring checks; its reference_check_simple, which tries every
  pair of edges, is the reference for the contact sweep and the pair it
  names, and reference_merge_collinear for the collinear merge.
  pruned_check_simple gives reference_check_simple's verdict by trying
  only the pairs whose x-ranges overlap, for rings of 10^4 edges.
- reference_slab_scan is the edge-count scan with its accepting half
  (spans, a SlabProfile, the rebuild-and-compare), the reference the chain
  walk must decide every ring like and the not-monotone naming the contact
  sweep's x-pass must match.

reference_axis_edges lists a ring's edges from its zipped vertices, the
reference for geometry._axis_edges and the edges reference_slab_scan reads.
reference_crowded is the contact sweep as it was when it read those edge
lists, the reference for geometry._crowded, which builds its events from
slices of the coordinate lists.

reference_parse_polygon and reference_validate_vertices are parse_polygon
and validate as they were before the two shared one coordinate reader:
verbatim, each judges the vertices in separate passes (types, lengths, the
flattened coordinates, their range) and hands the flat coordinate list to
reference_validate_coords, which slices it into the coordinate lists and
zips the ring.  They are the reference for geometry._read_coords and for
every reason, index and message the two entry points give.

They live here, not in ``oracles.py``, which the bench imports.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right, insort
from itertools import chain, compress
from operator import and_, eq, itemgetter, or_
from typing import Iterable

from polytx import InvalidPolygonError, OrthoPolygon
from polytx.geometry import (
    COORD_LIMIT,
    Edge,
    SlabProfile,
    Span,
    _alternates,
    _area,
    _merge_collinear,
    _slab_stack,
    input_int,
    profile_to_ring,
)

from oracles import shoelace2

Point = tuple[int, int]


def reference_axis_edges(ring: list[Point]) -> tuple[list[Edge], list[Edge]]:
    """The ring's edges, zipped from its vertices: horizontals as (y, x_lo,
    x_hi, index) and verticals as (x, y_lo, y_hi, index), each list by index."""
    hs, vs = [], []
    for i, ((x1, y1), (x2, y2)) in enumerate(zip(ring, ring[1:] + ring[:1])):
        if y1 == y2:
            hs.append((y1, min(x1, x2), max(x1, x2), i))
        else:
            vs.append((x1, min(y1, y2), max(y1, y2), i))
    return hs, vs


def reference_crowded(lines: list[Edge], queries: list[Edge]) -> tuple[list[int], Span | None]:
    """geometry._crowded when it read edge lists: the indices of the queries,
    edges (line, lo, hi, index) on the other axis from the lines, that meet
    more than two lines, and the first gap between consecutive positions
    over which other than two lines are active (None if there is none)."""
    events = sorted(
        [(lo, 0, line, line, i) for line, lo, _, i in lines]
        + [(line, 1, lo, hi, i) for line, lo, hi, i in queries]
        + [(hi, 2, line, line, i) for line, _, hi, i in lines],
        key=itemgetter(0),
    )
    active: list[int] = []
    hit = []
    gap = None
    at = events[0][0] if events else None
    for pos, kind, lo, hi, i in events:
        if pos != at and gap is None:
            gap = None if len(active) == 2 else (at, pos)
            at = pos
        if kind == 0:
            insort(active, lo)
        elif kind == 1:
            if bisect_right(active, hi) - bisect_left(active, lo) > 2:
                hit.append(i)
        else:
            del active[bisect_left(active, lo)]
    return hit, gap


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


def pruned_check_simple(ring: list[Point]) -> None:
    """reference_check_simple's verdict at sizes its n^2 pairs cannot reach.

    Two axis-parallel closed segments touch iff their bounding boxes meet,
    so every touching pair is found among the pairs whose x-ranges overlap:
    the edges sorted by left end, each tried against those that start no
    later than it ends.  The least non-adjacent pair (i, j) is the one the
    all-pairs loop meets first, and it is named as that loop names it.
    """
    n = len(ring)
    boxes = []
    for i in range(n):
        (x1, y1), (x2, y2) = ring[i], ring[(i + 1) % n]
        boxes.append((min(x1, x2), max(x1, x2), min(y1, y2), max(y1, y2), i))
    boxes.sort()
    pairs = []
    for p, (_, ax2, ay1, ay2, i) in enumerate(boxes):
        q = p + 1
        while q < n and boxes[q][0] <= ax2:
            _, _, by1, by2, j = boxes[q]
            a, b = min(i, j), max(i, j)
            if b - a > 1 and (a, b) != (0, n - 1) and ay1 <= by2 and by1 <= ay2:
                pairs.append((a, b))
            q += 1
    if not pairs:
        return
    i, j = min(pairs)
    (p1, q1), (p2, q2) = (ring[i], ring[(i + 1) % n]), (ring[j], ring[(j + 1) % n])
    h1, h2 = p1[1] == q1[1], p2[1] == q2[1]
    if h1 != h2:
        message = f"edges {i} and {j} cross or touch"
    else:
        message = f"{'horizontal' if h1 else 'vertical'} edges {i} and {j} overlap"
    raise InvalidPolygonError("self-intersecting", message, i)


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
    spans must be the input ring.  This is the library's edge-count scan
    from before the chain walk became the only acceptor; it accepts the same
    rings as the walk in geometry._slab_stack, and its fault is the one the
    contact sweep's first slab over other than two edges must name.
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


def reference_validate_vertices(vertices: Iterable[Point]) -> OrthoPolygon:
    """geometry.validate before the shared reader, with its per-vertex fast
    check: whole-ring passes over the vertex tuples and their flattened
    coordinates, and the naming loop when one fails."""
    ring = iter(vertices)  # a ring that is not iterable stays a TypeError
    pts: list[tuple] = []
    try:
        pts += map(tuple, ring)
    except TypeError:
        # A vertex that is not iterable: pts holds the ones before it, and an
        # empty stand-in for it makes the loop below name the first offender.
        pts.append(())
    flat = list(chain.from_iterable(pts))
    # type() is exact: bools and int subclasses take the loop, which judges
    # them one by one.
    if not (
        set(map(len, pts)) <= {2}
        and set(map(type, flat)) <= {int}
        and (not flat or -COORD_LIMIT <= min(flat) and max(flat) <= COORD_LIMIT)
    ):
        for i, pt in enumerate(pts):
            if len(pt) != 2 or not all(isinstance(c, int) and not isinstance(c, bool) for c in pt):
                raise InvalidPolygonError("non-integer", f"vertex {i} is not an integer pair", i)
            if any(abs(c) > COORD_LIMIT for c in pt):
                raise InvalidPolygonError("out-of-range", f"vertex {i} exceeds |c| <= {COORD_LIMIT}", i)
    return reference_validate_coords(flat)


def reference_validate_coords(flat: list[int]) -> OrthoPolygon:
    """geometry._validate_coords when it read the flat coordinate list
    x0, y0, x1, y1, ... and zipped the ring from its slices."""
    if len(flat) > 2 and flat[:2] == flat[-2:]:
        del flat[-2:]
    xs, ys = flat[::2], flat[1::2]
    if not _alternates(xs, ys):
        vertical = list(map(eq, xs, xs[1:] + xs[:1]))  # edge i leaves vertex i
        horizontal = list(map(eq, ys, ys[1:] + ys[:1]))
        if any(map(and_, vertical, horizontal)):
            i = list(map(and_, vertical, horizontal)).index(True)
            raise InvalidPolygonError("degenerate-edge", f"zero-length edge at vertex {i}", i)
        if not all(map(or_, vertical, horizontal)):
            i = list(map(or_, vertical, horizontal)).index(False)
            raise InvalidPolygonError("non-orthogonal", f"edge from vertex {i} is not axis-parallel", i)
        if len(xs) < 4:
            raise InvalidPolygonError("too-few-vertices", f"need at least 4 vertices, got {len(xs)}")
        turns = _merge_collinear(xs, ys, horizontal)
        xs, ys = list(compress(xs, turns)), list(compress(ys, turns))
        if len(xs) < 4:
            raise InvalidPolygonError("degenerate-edge", "polygon collapses after merging collinear runs")
    ring: list[Point] = list(zip(xs, ys))

    if len(set(ring)) < len(ring):
        seen: dict[Point, int] = {}
        for i, pt in enumerate(ring):
            if pt in seen:
                raise InvalidPolygonError(
                    "duplicate-vertex", f"vertex {i} repeats vertex {seen[pt]}", i
                )
            seen[pt] = i

    area = _area(xs, ys)
    if area == 0:
        raise InvalidPolygonError("self-intersecting", "ring encloses zero area")
    if area < 0:
        ring.reverse()
        xs.reverse()
        ys.reverse()

    try:
        profile = _slab_stack(xs, ys)
    except InvalidPolygonError:
        raise
    except ValueError as exc:
        raise InvalidPolygonError(
            "not-monotone", "region is not a left-to-right slab stack"
        ) from exc
    return OrthoPolygon(tuple(ring), profile)


def reference_parse_polygon(text: str) -> OrthoPolygon:
    """geometry.parse_polygon before the shared reader: six passes over the
    vertices (types, lengths, the flatten, the coordinates' types, min and
    max) before the flat list goes to reference_validate_coords."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise InvalidPolygonError("malformed-json", f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "vertices" not in doc:
        raise InvalidPolygonError("malformed-json", 'document must be {"vertices": [[x, y], ...]}')
    verts = doc["vertices"]
    if not isinstance(verts, list) or not (
        set(map(type, verts)) <= {list} and set(map(len, verts)) <= {2}
    ):
        raise InvalidPolygonError("malformed-json", "vertices must be a list of [x, y] pairs")
    flat = list(chain.from_iterable(verts))
    # The pairs are checked; an all-int ring within range skips validate's
    # per-vertex checks, and any other is converted and judged by them.
    if set(map(type, flat)) <= {int} and (
        not flat or -COORD_LIMIT <= min(flat) and max(flat) <= COORD_LIMIT
    ):
        return reference_validate_coords(flat)
    ring: list[Point] = []
    try:
        ring += ((input_int(x), input_int(y)) for x, y in verts)
    except ValueError as exc:
        # ring holds the vertices before the first that is not an integer pair.
        raise InvalidPolygonError("non-integer", f"coordinate {exc}", len(ring)) from exc
    return reference_validate_vertices(ring)
