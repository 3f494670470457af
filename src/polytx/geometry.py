"""Polygon ingestion, validation, slab decomposition and the exact cell grid.

Every coordinate in this package is an integer in the input's own units, from
the parsed ring through the solvers to the serialized answer.  All visibility
predicates are exact integer arithmetic on slab and band indices; no floating
point enters the kernel.

The region model is a slab decomposition: an x-monotone orthogonal polygon is
a left-to-right sequence of axis-aligned rectangles ("slabs"), one per run
between consecutive vertical-edge abscissae, each carrying a single vertical
cross-section interval.  ``CellGrid`` refines the slabs with any extra exact
cut lines a caller needs and classifies every cell as entirely inside or
entirely outside the closed polygon.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, compress, count, repeat
from operator import and_, eq, ge, itemgetter, le, lt, mul, ne, not_, or_, sub
from typing import Iterable, Sequence

from .errors import InvalidPolygonError

COORD_LIMIT = 10**6

Point = tuple[int, int]
Span = tuple[int, int]
Edge = tuple[int, int, int, int]  # (line, lo, hi, index), see _axis_edges


def _shoelace2(xs: list[int], ys: list[int]) -> int:
    """Twice the signed area of the ring with these vertex coordinates
    (positive for counter-clockwise)."""
    return sum(map(mul, xs, ys[1:] + ys[:1])) - sum(map(mul, xs[1:] + xs[:1], ys))


@dataclass(frozen=True)
class SlabProfile:
    """Step-function form of an x-monotone orthogonal polygon.

    ``xs`` are the strictly increasing breakpoints (all vertical-edge
    abscissae, including the left and right boundary edges); slab ``i``
    occupies ``[xs[i], xs[i+1]]`` horizontally and ``spans[i]`` vertically.
    Adjacent spans overlap as closed intervals (the region is connected) and
    differ (slabs are maximal).
    """

    xs: tuple[int, ...]
    spans: tuple[Span, ...]

    def __post_init__(self) -> None:
        xs, spans = self.xs, self.spans
        if len(xs) != len(spans) + 1 or not spans:
            raise ValueError("profile needs n+1 breakpoints for n >= 1 slabs")
        los, his = [lo for lo, _ in spans], [hi for _, hi in spans]
        # The whole profile at once; the loops below only name the fault.
        # With positive heights, two spans meet iff each starts below the
        # other's end.
        if (
            all(map(lt, xs, xs[1:]))
            and all(map(lt, los, his))
            and all(map(le, los[1:], his))
            and all(map(le, los, his[1:]))
            and all(map(ne, spans, spans[1:]))
        ):
            return
        if any(a >= b for a, b in zip(self.xs, self.xs[1:])):
            raise ValueError("breakpoints must increase strictly")
        for lo, hi in self.spans:
            if lo >= hi:
                raise ValueError("slab span must have positive height")
        for (a, b), (c, d) in zip(self.spans, self.spans[1:]):
            if max(a, c) > min(b, d):
                raise ValueError("adjacent slab spans must intersect")
            if (a, b) == (c, d):
                raise ValueError("adjacent slab spans must differ")

    @property
    def x_min(self) -> int:
        return self.xs[0]

    @property
    def x_max(self) -> int:
        return self.xs[-1]

    @cached_property
    def y_min(self) -> int:
        return min(lo for lo, _ in self.spans)

    @cached_property
    def y_max(self) -> int:
        return max(hi for _, hi in self.spans)

    @cached_property
    def edge_ordinates(self) -> tuple[int, ...]:
        """Sorted distinct y-coordinates of horizontal boundary edges."""
        return tuple(sorted({v for span in self.spans for v in span}))

    @cached_property
    def span_bands(self) -> tuple[Span, ...]:
        """Each slab's span as indices into ``edge_ordinates``: band r is
        the row between ``edge_ordinates[r]`` and ``edge_ordinates[r + 1]``,
        so slab i holds bands ``span_bands[i][0] .. span_bands[i][1] - 1``."""
        band = {y: r for r, y in enumerate(self.edge_ordinates)}
        return tuple((band[lo], band[hi]) for lo, hi in self.spans)

    @cached_property
    def row_walls(self) -> tuple[tuple[int, ...], ...]:
        """Per row, the breakpoint indices of its walls, increasing.

        Row r is the band between ``edge_ordinates[r]`` and
        ``edge_ordinates[r + 1]``; its walls are the vertical edges across
        the whole band.  Walls alternate entering and leaving the polygon,
        so the row's inside slabs are ``w0 .. w1 - 1``, ``w2 .. w3 - 1``,
        and so on.
        """
        rows: list[list[int]] = [[] for _ in self.edge_ordinates[1:]]
        spans = self.span_bands
        # Walk the breakpoints left to right, so every row's list is sorted.
        # At an inner breakpoint the bottom and the top chain may each step;
        # the step runs between the two spans' ends on that side.
        walls = [(0, *spans[0])]
        for i, (pb, pt), (cb, ct) in zip(count(1), spans, spans[1:]):
            if pb != cb:
                walls.append((i, pb, cb) if pb < cb else (i, cb, pb))
            if pt != ct:
                walls.append((i, pt, ct) if pt < ct else (i, ct, pt))
        walls.append((len(spans), *spans[-1]))
        for i, lo, hi in walls:
            for r in range(lo, hi):
                rows[r].append(i)
        return tuple(map(tuple, rows))

    def cross_section(self, x: int) -> Span | None:
        """Closed vertical cross-section at x, or None left/right of the polygon.

        At a breakpoint the section is the union of the two adjacent slab
        spans (one closed interval, since adjacent spans overlap).
        """
        if x < self.xs[0] or x > self.xs[-1]:
            return None
        i = bisect_left(self.xs, x)
        if i < len(self.xs) and self.xs[i] == x:
            if i == 0:
                return self.spans[0]
            if i == len(self.spans):
                return self.spans[-1]
            (a, b), (c, d) = self.spans[i - 1], self.spans[i]
            return (min(a, c), max(b, d))
        return self.spans[i - 1]

    def runs_at(self, y: int) -> tuple[Span, ...]:
        """Maximal x-intervals the horizontal line at y crosses inside the polygon."""
        runs: list[Span] = []
        start = None
        for i, (lo, hi) in enumerate(self.spans):
            if lo <= y <= hi:
                if start is None:
                    start = self.xs[i]
            elif start is not None:
                runs.append((start, self.xs[i]))
                start = None
        if start is not None:
            runs.append((start, self.xs[-1]))
        return tuple(runs)

    def run_covering(self, y: int, x_lo: int, x_hi: int) -> Span | None:
        """The maximal run at ordinate y containing the whole interval [x_lo, x_hi]."""
        for lo, hi in self.runs_at(y):
            if lo <= x_lo and x_hi <= hi:
                return (lo, hi)
        return None


def profile_to_ring(xs: Sequence[int], spans: Sequence[Span]) -> list[Point]:
    """Counter-clockwise ring of the slab union, in the same units as xs/spans."""
    bottom: list[Point] = [(xs[0], spans[0][0])]
    for i in range(1, len(spans)):
        if spans[i][0] != spans[i - 1][0]:
            bottom.append((xs[i], spans[i - 1][0]))
            bottom.append((xs[i], spans[i][0]))
    bottom.append((xs[-1], spans[-1][0]))
    top: list[Point] = [(xs[-1], spans[-1][1])]
    for i in range(len(spans) - 1, 0, -1):
        if spans[i][1] != spans[i - 1][1]:
            top.append((xs[i], spans[i][1]))
            top.append((xs[i], spans[i - 1][1]))
    top.append((xs[0], spans[0][1]))
    return bottom + top


class OrthoPolygon:
    """A validated simple x-monotone orthogonal polygon.

    ``vertices`` is the collinear-merged counter-clockwise ring; ``profile``
    is its slab decomposition.  Construct via :func:`validate` or
    :func:`parse_polygon`, never directly.
    """

    __slots__ = ("vertices", "profile")

    def __init__(self, vertices: tuple[Point, ...], profile: SlabProfile):
        self.vertices = vertices
        self.profile = profile

    @property
    def m(self) -> int:
        """Number of vertical boundary edges: every other edge of the merged ring."""
        return len(self.vertices) // 2

    @property
    def input_vertices(self) -> tuple[Point, ...]:
        """The same ring as ``vertices``.  Its only reader is
        ``bench/workloads.py``; everything else reads ``vertices``."""
        return self.vertices

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        xs, spans = list(self.profile.xs), list(self.profile.spans)
        return f"OrthoPolygon({len(self.vertices)} vertices, xs={xs}, spans={spans})"


def _merge_collinear(xs: list[int], ys: list[int], horizontal: list[bool]) -> list[bool]:
    """Which vertices turn: the others are interior to straight runs and are
    dropped.  ``horizontal[i]`` tells whether edge i, leaving vertex i, is
    horizontal.  A boundary spike is rejected."""
    n = len(xs)
    turns = list(map(ne, horizontal[-1:] + horizontal[:-1], horizontal))
    # Same axis on both sides of a vertex: straight run (dropped) or spike.
    for i in compress(range(n), map(not_, turns)):
        j = (i + 1) % n
        if (xs[i] - xs[i - 1]) * (xs[j] - xs[i]) + (ys[i] - ys[i - 1]) * (ys[j] - ys[i]) < 0:
            raise InvalidPolygonError(
                "self-intersecting", f"boundary reverses onto itself at vertex {i}", i
            )
    return turns


def _axis_edges(ring: list[Point]) -> tuple[list[Edge], list[Edge]]:
    """The ring's edges in one pass: horizontals as (y, x_lo, x_hi, index)
    and verticals as (x, y_lo, y_hi, index), each list by index."""
    hs, vs = [], []
    for i, ((x1, y1), (x2, y2)) in enumerate(zip(ring, ring[1:] + ring[:1])):
        if y1 == y2:
            hs.append((y1, x1, x2, i) if x1 < x2 else (y1, x2, x1, i))
        else:
            vs.append((x1, y1, y2, i) if y1 < y2 else (x1, y2, y1, i))
    return hs, vs


def _crowded(lines: list[Edge], queries: list[Edge]) -> list[int]:
    """Indices of the queries, edges (line, lo, hi, index) on the other axis
    from the lines, that meet more than two lines.  At each position the
    sweep adds the lines starting there, counts the active ones in each
    query's closed range, then drops the lines ending there."""
    # Adds, queries and drops go in in that order, and a stable sort on the
    # position alone keeps it at each position.
    events = sorted(
        [(lo, 0, line, line, i) for line, lo, _, i in lines]
        + [(line, 1, lo, hi, i) for line, lo, hi, i in queries]
        + [(hi, 2, line, line, i) for line, _, hi, i in lines],
        key=itemgetter(0),
    )
    active: list[int] = []
    hit = []
    for _, kind, lo, hi, i in events:
        if kind == 0:
            insort(active, lo)
        elif kind == 1:
            if bisect_right(active, hi) - bisect_left(active, lo) > 2:
                hit.append(i)
        else:
            del active[bisect_left(active, lo)]
    return hit


def _check_simple(hs: list[Edge], vs: list[Edge]) -> None:
    """Reject any contact between non-adjacent edges of a merged ring, given
    its edges as :func:`_axis_edges` lists them.

    Edges alternate between the axes and each meets its two neighbours, so
    a third edge of the other axis that meets it touches it.  Every contact
    gives some vertical a third horizontal, at a crossing or at one end of a
    collinear overlap, so one x-sweep decides whether any exists.  Only then
    is every touching edge flagged, by the swapped sweep and by a running
    maximum along each line.  The least flagged edge i touches no earlier
    one, and a scan of the later edges finds its first partner j.
    """
    flagged = _crowded(hs, vs)
    if not flagged:
        return
    flagged += _crowded(vs, hs)
    for edges in (hs, vs):
        far = (None, 0, 0)  # (line, hi, index) of the farthest-reaching edge so far
        for line, lo, hi, i in sorted(edges):
            if line == far[0] and lo <= far[1]:
                flagged += (i, far[2])
            if line != far[0] or hi > far[1]:
                far = (line, hi, i)
    i = min(flagged)
    box = {i: (lo, hi, y, y) for y, lo, hi, i in hs} | {i: (x, x, lo, hi) for x, lo, hi, i in vs}
    ax1, ax2, ay1, ay2 = box[i]
    # Skip the two adjacent edges, which share exactly their common vertex.
    for j in range(i + 2, len(hs) + len(vs) - (i == 0)):
        bx1, bx2, by1, by2 = box[j]
        if bx1 <= ax2 and ax1 <= bx2 and by1 <= ay2 and ay1 <= by2:
            break
    if (ay1 == ay2) != (by1 == by2):
        message = f"edges {i} and {j} cross or touch"
    else:
        message = f"{'horizontal' if ay1 == ay2 else 'vertical'} edges {i} and {j} overlap"
    raise InvalidPolygonError("self-intersecting", message, i)


def _slab_stack(ring: list[Point]) -> SlabProfile:
    """Slab decomposition of a merged counter-clockwise ring with no repeated
    vertex, or InvalidPolygonError.

    The ring is read as its two x-monotone chains.  It must leave its least
    vertex along a horizontal edge; from there the bottom chain runs with x
    non-decreasing to the first vertex on x_max, and the top chain runs back
    with x non-increasing.  Edges alternate between the axes, so each chain
    is a staircase: its horizontal edges give its ordinate over consecutive
    x-ranges, and merging the two chains' breakpoints gives xs and spans.
    When SlabProfile accepts those (positive heights, adjacent spans that
    meet), ``profile_to_ring`` of the profile is exactly the ring read from
    its least vertex: both start at (x_min, bottom of the first span), and
    wherever the bottom (top) chain steps, the lower (upper) ends of the two
    spans differ and profile_to_ring emits the step's two vertices.  So the
    ring is a simple slab stack and needs no rebuild, and the edge-count
    scan that rebuilds and compares accepts no other ring.  A ring that is
    not one fails on its x-sequence alone, before any span is built, or else
    in SlabProfile.  Then the contact sweep (:func:`_check_simple`) names a
    self-intersection, or else :func:`_slab_scan` the not-monotone fault;
    both read one pass over the edges.
    """
    start = ring.index(min(ring))
    walk = ring[start:] + ring[:start]
    xs = [x for x, _ in walk]
    k = xs.index(max(xs))  # where the bottom chain ends
    if xs[0] != xs[1] and all(map(le, xs[:k], xs[1 : k + 1])) and all(map(ge, xs[k:], xs[k + 1 :])):
        ys = [y for _, y in walk]
        # Horizontal edges are the even ones: 0, 2 .. k - 1 on the bottom
        # chain, and n - 2, n - 4 .. k + 1 on the top chain read from x_min.
        # Left to right, a chain's breakpoints are the left end of its first
        # horizontal and the right end of each.
        breaks = sorted(set(xs))
        col = dict(zip(breaks, count()))
        bottom = _steps([*xs[0:k:2], xs[k]], ys[0:k:2], col)
        top = _steps([xs[-1], *xs[-2:k:-2]], ys[-2:k:-2], col)
        try:
            return SlabProfile(tuple(breaks), tuple(zip(bottom, top)))
        except ValueError:
            pass
    # A self-intersecting ring is reported as such, even when it also fails
    # as a slab stack.
    hs, vs = _axis_edges(ring)
    _check_simple(hs, vs)
    raise _slab_scan(ring, hs)


def _steps(xs: list[int], ys: list[int], col: dict[int, int]) -> Iterable[int]:
    """A staircase's ordinate per slab: ys[j] over every slab from breakpoint
    xs[j] to xs[j + 1] (xs increasing, col their slab indices)."""
    cols = list(map(col.__getitem__, xs))
    return chain.from_iterable(map(repeat, ys, map(sub, cols[1:], cols)))


def _slab_scan(ring: list[Point], hs: list[Edge]) -> InvalidPolygonError:
    """The not-monotone fault of a counter-clockwise ring with horizontal
    edges hs that is not a slab stack.

    The edge-count scan: a vertical line interior to a slab of a stack meets
    exactly one bottom and one top horizontal edge.  The first slab whose
    line meets any other number of edges is named, with the third edge up
    (or the lowest, if fewer) as the offender.  A ring with two edges over
    every slab is still no stack, and is named as such.
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
    for s, over in enumerate(accumulate(delta[:-1])):
        if over != 2:
            spanning = sorted((y, i) for a, b, y, i in hedges if a <= s < b)
            offender = spanning[2][1] if len(spanning) > 2 else (spanning[0][1] if spanning else 0)
            return InvalidPolygonError(
                "not-monotone",
                f"a vertical line over [{xs[s]},{xs[s + 1]}] meets "
                f"{len(spanning)} horizontal edges (want 2)",
                offender,
            )
    return InvalidPolygonError("not-monotone", "region is not a left-to-right slab stack")


def validate(vertices: Iterable[Point]) -> OrthoPolygon:
    """Validate a vertex ring and build the polygon.

    Accepts either orientation (clockwise input is reversed), merges collinear
    vertices, and tolerates an explicitly repeated closing vertex.  Raises
    :class:`InvalidPolygonError` naming the violated property and an offending
    vertex index otherwise.

    The per-vertex checks run on the whole ring at once and fall back to a
    loop only to name the first offender.  An accepted ring becomes a profile
    in one walk along its two x-monotone chains (:func:`_slab_stack`).  A
    ring that walk rejects is swept once for edge contact
    (:func:`_check_simple`), which also names the first touching pair, and
    otherwise scanned slab by slab (:func:`_slab_scan`) to name the
    not-monotone fault.  Every input is decided in O(n log n) comparisons
    (the sweep's list insertions are memmoves).
    """
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
    return _validate_coords(flat)


def _validate_coords(flat: list[int]) -> OrthoPolygon:
    """validate after its per-vertex checks: flat holds the ring's
    coordinates x0, y0, x1, y1, ..., each an integer within the limit."""
    if len(flat) > 2 and flat[:2] == flat[-2:]:
        del flat[-2:]
    xs, ys = flat[::2], flat[1::2]
    n = len(xs)
    vertical = list(map(eq, xs, xs[1:] + xs[:1]))  # edge i leaves vertex i
    horizontal = list(map(eq, ys, ys[1:] + ys[:1]))
    if any(map(and_, vertical, horizontal)):
        i = list(map(and_, vertical, horizontal)).index(True)
        raise InvalidPolygonError("degenerate-edge", f"zero-length edge at vertex {i}", i)
    if not all(map(or_, vertical, horizontal)):
        i = list(map(or_, vertical, horizontal)).index(False)
        raise InvalidPolygonError("non-orthogonal", f"edge from vertex {i} is not axis-parallel", i)
    if n < 4:
        raise InvalidPolygonError("too-few-vertices", f"need at least 4 vertices, got {n}")

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

    area2 = _shoelace2(xs, ys)
    if area2 == 0:
        raise InvalidPolygonError("self-intersecting", "ring encloses zero area")
    if area2 < 0:
        ring.reverse()

    # _slab_stack raises only InvalidPolygonError (a ValueError subclass);
    # should a plain ValueError ever escape it, it still ends as a typed
    # not-monotone rejection.
    try:
        profile = _slab_stack(ring)
    except InvalidPolygonError:
        raise
    except ValueError as exc:
        raise InvalidPolygonError(
            "not-monotone", "region is not a left-to-right slab stack"
        ) from exc
    return OrthoPolygon(tuple(ring), profile)


def parse_polygon(text: str) -> OrthoPolygon:
    """Parse a JSON document ``{"vertices": [[x, y], ...]}`` and validate it."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and integers past Python's digit
        # limit; RecursionError is nesting deeper than the decoder can go.
        raise InvalidPolygonError("malformed-json", f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "vertices" not in doc:
        raise InvalidPolygonError("malformed-json", 'document must be {"vertices": [[x, y], ...]}')
    verts = doc["vertices"]
    if not isinstance(verts, list) or not (
        set(map(type, verts)) <= {list} and set(map(len, verts)) <= {2}
    ):
        raise InvalidPolygonError("malformed-json", "vertices must be a list of [x, y] pairs")
    if len(verts) < 4:
        # A 3-point ring can still expose a diagonal edge; report that first.
        for i in range(len(verts)):
            (x1, y1), (x2, y2) = verts[i], verts[(i + 1) % len(verts)]
            if x1 != x2 and y1 != y2:
                raise InvalidPolygonError(
                    "non-orthogonal", f"edge from vertex {i} is not axis-parallel", i
                )
        raise InvalidPolygonError("too-few-vertices", f"need at least 4 vertices, got {len(verts)}")
    flat = list(chain.from_iterable(verts))
    if set(map(type, flat)) <= {int}:
        # The pairs and types are checked; only the range is left to check.
        if -COORD_LIMIT <= min(flat) and max(flat) <= COORD_LIMIT:
            return _validate_coords(flat)
        return validate(verts)
    try:
        ring = [(input_int(x), input_int(y)) for x, y in verts]
    except ValueError as exc:
        raise InvalidPolygonError("non-integer", f"coordinate {exc}") from exc
    return validate(ring)


def input_int(c: object) -> int:
    """c as an integer coordinate: a non-bool int, or a float with an integral
    value (JSON "6.0" is the integer 6).  Anything else raises ValueError."""
    if isinstance(c, float) and c.is_integer():
        return int(c)
    if not isinstance(c, int) or isinstance(c, bool):
        raise ValueError(f"{c!r} is not an integer")
    return int(c)


def cut_right(prof: SlabProfile, x0: int) -> SlabProfile | None:
    """The part of the polygon at x >= x0, where x0 is a breakpoint.

    Returns None when x0 is the last breakpoint (empty remainder — the caller
    is done).  Raises ValueError if x0 is not a breakpoint of prof.
    """
    i = bisect_left(prof.xs, x0)
    if i == len(prof.xs) or prof.xs[i] != x0:
        raise ValueError(f"x0={x0} is not a breakpoint of the profile")
    if x0 == prof.xs[-1]:
        return None
    return SlabProfile(prof.xs[i:], prof.spans[i:])


class CellGrid:
    """Coordinate-compressed cell decomposition of the polygon's bounding box.

    Cuts are kept once, as the sorted tuples ``x_cuts`` and ``y_cuts``; each
    cell is entirely inside or entirely outside the closed polygon, and a
    column's slab is the one its left cut starts.  Cells are indexed
    column-major (``ix * ny + iy``), so the lowest set bit of any cell mask
    is the minimum-x (ties: lowest y) cell and a run of whole columns is one
    contiguous bit range (:meth:`columns`).
    Outside cells keep their indices; ``inside_mask`` marks the polygon.
    ``row_ones`` has the bit of row 0 in every column set, so
    ``row_ones << iy`` is row iy.  The cuts include every breakpoint and
    edge ordinate, so each row lies in one band of ``profile.row_walls``.
    """

    __slots__ = (
        "profile", "x_cuts", "y_cuts", "nx", "ny", "inside_mask", "row_ones",
    )

    def __init__(self, profile: SlabProfile, x_cuts: tuple[int, ...], y_cuts: tuple[int, ...]):
        self.profile = profile
        self.x_cuts = x_cuts
        self.y_cuts = y_cuts
        self.nx = len(x_cuts) - 1
        self.ny = len(y_cuts) - 1
        # Geometric series: the sum of 2**(ix * ny) over ix < nx.
        self.row_ones = ((1 << self.nx * self.ny) - 1) // ((1 << self.ny) - 1)

        inside = 0
        for ix in range(self.nx):
            lo, hi = profile.spans[bisect_right(profile.xs, x_cuts[ix]) - 1]
            iy_lo, iy_hi = bisect_left(y_cuts, lo), bisect_left(y_cuts, hi)
            inside |= (1 << ix * self.ny + iy_hi) - (1 << ix * self.ny + iy_lo)
        self.inside_mask = inside

    def cell_bounds(self, ix: int, iy: int) -> tuple[int, int, int, int]:
        """(x_lo, y_lo, x_hi, y_hi) of the cell."""
        return (self.x_cuts[ix], self.y_cuts[iy], self.x_cuts[ix + 1], self.y_cuts[iy + 1])

    def iter_cells(self, mask: int):
        """Yield (ix, iy) of every cell in mask, in column-major order."""
        while mask:
            low = mask & -mask
            idx = low.bit_length() - 1
            yield divmod(idx, self.ny)
            mask ^= low

    def columns(self, ix_lo: int, ix_hi: int) -> int:
        """Every cell, inside or not, of columns ix_lo .. ix_hi - 1."""
        return (1 << ix_hi * self.ny) - (1 << ix_lo * self.ny)

    def inside_mask_between(self, x_lo: int, x_hi: int) -> int:
        """Inside cells whose x-range lies within [x_lo, x_hi]."""
        ix_lo = bisect_left(self.x_cuts, x_lo)
        ix_hi = bisect_right(self.x_cuts, x_hi) - 1
        if ix_hi <= ix_lo:
            return 0
        return self.inside_mask & self.columns(ix_lo, ix_hi)


def build_grid(
    prof: SlabProfile,
    extra_x: Iterable[int] = (),
    extra_y: Iterable[int] = (),
) -> CellGrid:
    """Cell grid over prof refined by the given extra cut lines, which must
    lie inside the bounding box."""
    ex, ey = checked_cuts(prof, extra_x, extra_y)
    x_cuts = tuple(sorted(set(prof.xs) | ex))
    y_cuts = tuple(sorted(ey.union(prof.edge_ordinates)))
    return CellGrid(prof, x_cuts, y_cuts)


def checked_cuts(
    prof: SlabProfile, extra_x: Iterable[int], extra_y: Iterable[int]
) -> tuple[set[int], set[int]]:
    """The extra cut lines as sets, or ValueError for one that is not an int
    (a bool or a float is not) or lies outside prof's bounding box."""
    ex, ey = set(extra_x), set(extra_y)
    for v in (*ex, *ey):
        if type(v) is not int:
            raise ValueError(f"extra cut {v!r} is not an int")
    for v in ex:
        if not prof.x_min <= v <= prof.x_max:
            raise ValueError(f"extra x-cut {v} outside [{prof.x_min}, {prof.x_max}]")
    for v in ey:
        if not prof.y_min <= v <= prof.y_max:
            raise ValueError(f"extra y-cut {v} outside [{prof.y_min}, {prof.y_max}]")
    return ex, ey
