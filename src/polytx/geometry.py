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

:class:`InvalidPolygonError`, the error ingestion raises, is defined here
beside its raisers; this module imports nothing from the package.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, count, repeat
from operator import and_, eq, ge, itemgetter, le, lt, mul, ne, not_, or_, sub
from typing import Iterable, Sequence

COORD_LIMIT = 10**6

Point = tuple[int, int]
Span = tuple[int, int]
Edge = tuple[int, int, int, int]  # (line, lo, hi, index), see _axis_edges
Gap = tuple[int, int, list[int]]  # (lo, hi, sorted lines over it), see _crowded


class InvalidPolygonError(ValueError):
    """The input vertex ring is not a simple x-monotone orthogonal polygon.

    ``reason`` is a stable machine-readable code (``"non-orthogonal"``,
    ``"self-intersecting"``, ``"not-monotone"``, ``"degenerate-edge"``,
    ``"duplicate-vertex"``, and the ingestion codes ``"malformed-json"``,
    ``"too-few-vertices"``, ``"non-integer"``, ``"out-of-range"``).
    ``index`` names the offending vertex in the input ring when one can be
    pinned down.
    """

    def __init__(self, reason: str, message: str, index: int | None = None):
        super().__init__(message)
        self.reason = reason
        self.index = index


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
        if not all(map(lt, xs, xs[1:])):
            raise ValueError("breakpoints must increase strictly")
        if not all(map(lt, los, his)):
            raise ValueError("slab span must have positive height")
        # With positive heights, two spans meet iff each starts below the
        # other's end; the loop below only names the first pair at fault.
        if (
            all(map(le, los[1:], his))
            and all(map(le, los, his[1:]))
            and all(map(ne, spans, spans[1:]))
        ):
            return
        for (a, b), (c, d) in zip(spans, spans[1:]):
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

    def slabs_met(self, y: int, x_lo: int, x_hi: int) -> Span | None:
        """By two bisections, the slabs a .. b - 1 that the open interval
        (x_lo, x_hi) meets, x_lo <= x_hi, if each holds y (so, for x_lo < x_hi,
        [x_lo, x_hi] at height y lies in the closed polygon); else None."""
        xs, spans = self.xs, self.spans
        a, b = bisect_right(xs, x_lo) - 1, bisect_left(xs, x_hi)
        if a < 0 or b > len(spans) or a > b:
            return None
        for lo, hi in spans[a:b]:
            if not lo <= y <= hi:
                return None
        return a, b

    def run_covering(self, y: int, x_lo: int, x_hi: int) -> Span | None:
        """The maximal run at ordinate y containing [x_lo, x_hi] (x_lo <= x_hi),
        or None.  A run is a maximal stretch of slabs whose spans hold y: the
        walk out from :meth:`slabs_met` reads only the run's own slabs."""
        met = self.slabs_met(y, x_lo, x_hi)
        if met is None:
            return None
        (a, b), spans = met, self.spans
        while a > 0 and spans[a - 1][0] <= y <= spans[a - 1][1]:
            a -= 1
        while b < len(spans) and spans[b][0] <= y <= spans[b][1]:
            b += 1
        return None if a == b else (self.xs[a], self.xs[b])


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


def _alternates(xs: list[int], ys: list[int]) -> bool:
    """Whether the ring with these vertex coordinates has an even number of
    at least 4 vertices and edges that alternate between the axes, none of
    zero length.  Such a ring has no collinear vertex and no spike."""
    if len(xs) < 4:
        return False
    # u is the coordinate that the even edges keep, w the one the odd edges
    # keep; edge i runs from vertex i to vertex i + 1.
    u, w = (ys, xs) if ys[0] == ys[1] else (xs, ys)
    return (
        u[::2] == u[1::2]
        and w[1::2] == w[2::2] + w[:1]
        and all(map(ne, w[::2], w[1::2]))
        and all(map(ne, u[1::2], u[2::2] + u[:1]))
    )


def _area(xs: list[int], ys: list[int]) -> int:
    """Signed area of a ring whose edges alternate between the axes
    (positive for counter-clockwise): the sum of y * (x_i - x_{i+1}) over
    its horizontal edges, which is half the shoelace sum."""
    if ys[0] == ys[1]:  # the even edges are the horizontal ones
        return sum(map(mul, ys[::2], map(sub, xs[::2], xs[1::2])))
    return sum(map(mul, ys[1::2], map(sub, xs[1::2], xs[2::2] + xs[:1])))


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


def _axis_edges(xs: list[int], ys: list[int]) -> tuple[list[Edge], list[Edge]]:
    """The edges of a ring whose edges alternate between the axes, sliced
    from its coordinate lists by parity: horizontals as (y, x_lo, x_hi,
    index) and verticals as (x, y_lo, y_hi, index), each list by index."""
    h = 0 if ys[0] == ys[1] else 1  # the parity of the horizontal edges
    v = 1 - h
    # Edge i runs from vertex i to vertex i + 1; the last wraps to vertex 0.
    hs = [
        (y, a, b, i) if a < b else (y, b, a, i)
        for y, a, b, i in zip(ys[h::2], xs[h::2], xs[h + 1 :: 2] + xs[:h], count(h, 2))
    ]
    vs = [
        (x, a, b, i) if a < b else (x, b, a, i)
        for x, a, b, i in zip(xs[v::2], ys[v::2], ys[v + 1 :: 2] + ys[:v], count(v, 2))
    ]
    return hs, vs


def _crowded(a: list[int], b: list[int]) -> tuple[list[int], Gap | None]:
    """Sweep along a over the ring with coordinate lists a and b, whose
    edges alternate between the axes.  The lines are the edges that keep b,
    the queries the edges that keep a.  Returns the indices of the queries
    that meet more than two lines, and the first gap between consecutive
    positions over which other than two lines are active, with the sorted
    b-coordinates of those lines (None if there is none).  At each position
    the sweep adds the lines starting there, counts the active ones in each
    query's closed range, then drops the lines ending there.
    ``_crowded(xs, ys)`` sweeps along x with the horizontals as lines, and
    then the gaps are the ring's slabs, since every vertex ends a
    horizontal; ``_crowded(ys, xs)`` is the swapped sweep.  The events are
    built straight from parity slices of the two lists."""
    p = 0 if b[0] == b[1] else 1  # the parity of the lines
    q = 1 - p
    # Edge i runs from vertex i to vertex i + 1; the last wraps to vertex 0.
    ends = a[p::2], a[p + 1 :: 2] + a[:p], b[p::2]  # a line's two ends and its b
    queries = zip(a[q::2], b[q::2], b[q + 1 :: 2] + b[:q], count(q, 2))
    # Adds, queries and drops go in in that order, and a stable sort on the
    # position alone keeps it at each position.
    events = sorted(
        [(s, 0, y, y, i) if s < t else (t, 0, y, y, i) for s, t, y, i in zip(*ends, count(p, 2))]
        + [(x, 1, s, t, i) if s < t else (x, 1, t, s, i) for x, s, t, i in queries]
        + [(t, 2, y, y, i) if s < t else (s, 2, y, y, i) for s, t, y, i in zip(*ends, count(p, 2))],
        key=itemgetter(0),
    )
    active: list[int] = []
    hit = []
    gap = None
    at = events[0][0]
    for pos, kind, lo, hi, i in events:
        if pos != at and gap is None:
            # Every event at `at` is in, so the count holds up to pos.
            gap = None if len(active) == 2 else (at, pos, active[:])
            at = pos
        if kind == 0:
            insort(active, lo)
        elif kind == 1:
            if bisect_right(active, hi) - bisect_left(active, lo) > 2:
                hit.append(i)
        else:
            del active[bisect_left(active, lo)]
    return hit, gap


def _check_simple(xs: list[int], ys: list[int]) -> Gap | None:
    """Reject any contact between non-adjacent edges of the merged ring with
    these vertex coordinates; else return the x-range of the first slab that
    the x-sweep found over other than two horizontals, with their sorted
    ordinates, or None if every slab has two.

    Edges alternate between the axes and each meets its two neighbours, so
    a third edge of the other axis that meets it touches it.  Every contact
    gives some vertical a third horizontal, at a crossing or at one end of a
    collinear overlap, so one x-sweep decides whether any exists.  Only then
    is every touching edge flagged, by the swapped sweep and by a running
    maximum along each line, which reads the edges as :func:`_axis_edges`
    lists them.  The least flagged edge i touches no earlier one, and a scan
    of the later edges finds its first partner j.
    """
    flagged, gap = _crowded(xs, ys)
    if not flagged:
        return gap
    flagged += _crowded(ys, xs)[0]
    hs, vs = _axis_edges(xs, ys)
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


def _slab_stack(xs: list[int], ys: list[int]) -> SlabProfile:
    """Slab decomposition of the merged counter-clockwise ring with these
    vertex coordinates and no repeated vertex, or InvalidPolygonError.

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
    in SlabProfile.  Then one sweep along x (:func:`_check_simple`) names a
    self-intersection, or else the first slab it found over other than two
    horizontal edges, with the third edge up (or the lowest) as offender.

    The walk reads the coordinate lists, sliced from the least vertex (the
    lowest of those on x_min); the sweep reads parity slices of them too,
    and it holds the ordinates of the horizontals over the slab it names.
    """
    x0 = min(xs)
    start = i = xs.index(x0)
    for _ in range(xs.count(x0) - 1):
        i = xs.index(x0, i + 1)
        if ys[i] < ys[start]:
            start = i
    wx = xs[start:] + xs[:start]
    k = wx.index(max(wx))  # where the bottom chain ends
    if wx[0] != wx[1] and all(map(le, wx[:k], wx[1 : k + 1])) and all(map(ge, wx[k:], wx[k + 1 :])):
        wy = ys[start:] + ys[:start]
        # Horizontal edges are the even ones: 0, 2 .. k - 1 on the bottom
        # chain, and n - 2, n - 4 .. k + 1 on the top chain read from x_min.
        # Left to right, a chain's breakpoints are the left end of its first
        # horizontal and the right end of each.
        breaks = sorted(set(xs))
        col = dict(zip(breaks, count()))
        bottom = _steps([*wx[0:k:2], wx[k]], wy[0:k:2], col)
        top = _steps([wx[-1], *wx[-2:k:-2]], wy[-2:k:-2], col)
        try:
            return SlabProfile(tuple(breaks), tuple(zip(bottom, top)))
        except ValueError:
            pass
    # A self-intersecting ring is reported as such, even when it also fails
    # as a slab stack.
    gap = _check_simple(xs, ys)
    if gap is None:
        raise InvalidPolygonError("not-monotone", "region is not a left-to-right slab stack")
    a, b, over = gap
    offender = 0
    if over:
        # The offender is the horizontal at over[j], the third up (or the
        # lowest), ties in ordinate going by index: of those over the slab
        # at its ordinate y, listed by index, it is at place j minus the
        # number below y.
        j = 2 if len(over) > 2 else 0
        y = over[j]
        h = 0 if ys[0] == ys[1] else 1  # the parity of the horizontal edges
        n = len(xs)
        at_y = [
            i
            for i in compress(range(h, n, 2), map(eq, ys[h::2], repeat(y)))
            if xs[i] <= a and b <= xs[(i + 1) % n] or xs[(i + 1) % n] <= a and b <= xs[i]
        ]
        offender = at_y[j - bisect_left(over, y)]
    message = f"a vertical line over [{a},{b}] meets {len(over)} horizontal edges (want 2)"
    raise InvalidPolygonError("not-monotone", message, offender)


def _steps(xs: list[int], ys: list[int], col: dict[int, int]) -> Iterable[int]:
    """A staircase's ordinate per slab: ys[j] over every slab from breakpoint
    xs[j] to xs[j + 1] (xs increasing, col their slab indices)."""
    cols = list(map(col.__getitem__, xs))
    return chain.from_iterable(map(repeat, ys, map(sub, cols[1:], cols)))


def validate(vertices: Iterable[Point]) -> OrthoPolygon:
    """Validate a vertex ring and build the polygon.

    Accepts either orientation (clockwise input is reversed), merges collinear
    vertices, and tolerates an explicitly repeated closing vertex.  Raises
    :class:`InvalidPolygonError` naming the violated property and an offending
    vertex index otherwise.

    Each vertex is read once, into a tuple, and one reader
    (:func:`_read_coords`, which :func:`parse_polygon` shares) unpacks the
    tuples into the coordinate lists and judges every coordinate on those
    two lists at once; only a ring it refuses takes the loop that names the
    first offending vertex.  The edge checks are judged whole as well: a
    ring whose edges alternate between the axes, none of zero length,
    passes them on slices of its coordinate lists (:func:`_alternates`),
    and only another ring is checked edge by edge and merged.  An accepted
    ring becomes a profile in one walk along its two x-monotone chains
    (:func:`_slab_stack`).  A ring that walk rejects is swept once along x
    (:func:`_check_simple`): a contact between edges is named as the first
    touching pair, and otherwise the same pass has found the first slab
    with other than two horizontal edges over it, which names the
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
    coords = _read_coords(pts)
    if coords is None:
        for i, pt in enumerate(pts):
            if len(pt) != 2 or not all(isinstance(c, int) and not isinstance(c, bool) for c in pt):
                raise InvalidPolygonError("non-integer", f"vertex {i} is not an integer pair", i)
            if any(abs(c) > COORD_LIMIT for c in pt):
                raise InvalidPolygonError("out-of-range", f"vertex {i} exceeds |c| <= {COORD_LIMIT}", i)
        # Nothing named: no vertex at all, or int subclasses within range.
        coords = [x for x, _ in pts], [y for _, y in pts]
    return _validate_coords(*coords)


def _read_coords(verts: list) -> tuple[list[int], list[int]] | None:
    """The x and y coordinate lists of these vertices, if every vertex is a
    pair of ints within the limit; else None.

    The vertices must be materialized, as each is unpacked once per list.
    ``type()`` is exact, so a bool or an int subclass is refused, as are a
    vertex that is not a pair and an empty vertex list; the caller names
    the fault.
    """
    try:
        # Unpacking into two names takes only pairs.
        xs = [x for x, _ in verts]
        ys = [y for _, y in verts]
    except (TypeError, ValueError):
        return None
    both = xs + ys
    if both and set(map(type, both)) <= {int} and -COORD_LIMIT <= min(both) and max(both) <= COORD_LIMIT:
        return xs, ys
    return None


def _validate_coords(xs: list[int], ys: list[int]) -> OrthoPolygon:
    """validate after the reader: xs and ys are the ring's coordinate
    lists, every coordinate an integer within the limit.  The closing
    vertex is dropped from them, and they are merged, before any vertex
    tuple is built.

    The ring is first judged whole, on slices of its coordinate lists
    (:func:`_alternates`).  A ring that passes has nothing to merge and no
    edge to name, so only a ring that fails builds the per-edge lists, to
    name its first zero-length or diagonal edge or to merge its collinear
    runs (:func:`_merge_collinear`).  Then the merged lists are zipped
    once, into the polygon's ring, which the duplicate check reads; the
    orientation (:func:`_area`) and the chain walk (:func:`_slab_stack`)
    read the lists, and a clockwise ring is reversed in place, as lists and
    ring.  The ring is built as a list: a tuple grown from the zip is slower
    once the garbage collector runs during the build, as it does on large
    rings.
    """
    if len(xs) > 1 and xs[0] == xs[-1] and ys[0] == ys[-1]:
        del xs[-1], ys[-1]
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

    ring = list(zip(xs, ys))
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

    # _slab_stack raises only InvalidPolygonError (a ValueError subclass);
    # should a plain ValueError ever escape it, it still ends as a typed
    # not-monotone rejection.
    try:
        profile = _slab_stack(xs, ys)
    except InvalidPolygonError:
        raise
    except ValueError as exc:
        raise InvalidPolygonError(
            "not-monotone", "region is not a left-to-right slab stack"
        ) from exc
    return OrthoPolygon(tuple(ring), profile)


def parse_polygon(text: str) -> OrthoPolygon:
    """Parse a JSON document ``{"vertices": [[x, y], ...]}`` and validate it.
    A coordinate that is not an integer is named with its vertex index.

    The vertex list goes through the reader :func:`validate` uses
    (:func:`_read_coords`).  Only a list it refuses is judged pair by pair:
    anything but a list of two-element lists is malformed, and the rest is
    converted with :func:`input_int` and handed to :func:`validate`, which
    names the first vertex at fault.
    """
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and integers past Python's digit
        # limit; RecursionError is nesting deeper than the decoder can go.
        raise InvalidPolygonError("malformed-json", f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "vertices" not in doc:
        raise InvalidPolygonError("malformed-json", 'document must be {"vertices": [[x, y], ...]}')
    verts = doc["vertices"]
    coords = _read_coords(verts) if isinstance(verts, list) else None
    if coords is not None:
        return _validate_coords(*coords)
    if not isinstance(verts, list) or not (
        set(map(type, verts)) <= {list} and set(map(len, verts)) <= {2}
    ):
        raise InvalidPolygonError("malformed-json", "vertices must be a list of [x, y] pairs")
    ring: list[Point] = []
    try:
        ring += ((input_int(x), input_int(y)) for x, y in verts)
    except ValueError as exc:
        # ring holds the vertices before the first that is not an integer pair.
        raise InvalidPolygonError("non-integer", f"coordinate {exc}", len(ring)) from exc
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
    """Cell grid over prof refined by the given extra cut lines, or
    ValueError for one that is not an int (a bool or a float is not) or
    lies outside prof's bounding box."""
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
    x_cuts = tuple(sorted(ex.union(prof.xs)))
    y_cuts = tuple(sorted(ey.union(prof.edge_ordinates)))
    return CellGrid(prof, x_cuts, y_cuts)
