"""Guard segments and the edge-aligned candidate family.

A transmitter is a maximal axis-parallel segment inside the closed polygon.
The search family is the edge-aligned family: a maximal vertical segment at
every vertical-edge abscissa and every maximal horizontal run at every
horizontal-edge ordinate.  An optimal solution can always be slid onto these
edge-aligned lines, which is what :func:`canonicalize_solution` performs (and
re-verifies).  :func:`edge_aligned_family` is the one generator: it gives
each member as a line index and two index ends (breakpoints and
``edge_ordinates`` positions), which is what the bitsets, the exact
search and ``prune_dominated(p, k)`` read; :func:`edge_aligned_candidates`
is its Transmitter view.  Every consumer takes a slab's span in band
indices from the profile's ``span_bands``.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from operator import or_
from typing import Iterable, Sequence

from .geometry import OrthoPolygon, SlabProfile, Span, input_int

VERTICAL = "v"
HORIZONTAL = "h"


@dataclass(frozen=True)
class Transmitter:
    """Axis-parallel guard segment: anchor line coordinate plus closed span.

    A vertical transmitter at x = anchor spans y in [span[0], span[1]]; a
    horizontal transmitter at y = anchor spans x.  All three are ints.
    """

    orientation: str
    anchor: int
    span: Span

    def __post_init__(self) -> None:
        if self.orientation not in (VERTICAL, HORIZONTAL):
            raise ValueError(f"orientation must be 'v' or 'h', got {self.orientation!r}")
        if not isinstance(self.span, tuple) or len(self.span) != 2:
            raise ValueError(f"span must be a 2-tuple, got {self.span!r}")
        if not type(self.anchor) is type(self.span[0]) is type(self.span[1]) is int:
            raise ValueError(f"anchor and span must be ints, got {self.anchor!r}, {self.span!r}")
        if self.span[0] >= self.span[1]:
            raise ValueError(f"span must be a nondegenerate interval, got {self.span}")

    @property
    def sort_key(self) -> tuple[int, int, int, int]:
        """Canonical family order: vertical first, then anchor, then span."""
        return (0 if self.orientation == VERTICAL else 1, self.anchor, *self.span)

    def as_input(self) -> dict:
        """JSON-ready dict."""
        return {"orientation": self.orientation, "anchor": self.anchor, "span": list(self.span)}

    @classmethod
    def from_input(cls, d: dict) -> "Transmitter":
        """Read a transmitter, with integers as parse_polygon takes them."""
        lo, hi = (input_int(c) for c in d["span"])
        return cls(d["orientation"], input_int(d["anchor"]), (lo, hi))


SegmentSet = tuple[Transmitter, ...]


def canonical(segments: Iterable[Transmitter]) -> SegmentSet:
    """Deduplicate and sort into the canonical family order."""
    return tuple(sorted(set(segments), key=lambda s: s.sort_key))


def segment_inside(prof: SlabProfile, s: Transmitter) -> bool:
    """Whether the segment lies in the closed polygon: a vertical within the
    cross-section at its line, a horizontal on slabs that all hold its
    ordinate (:meth:`~polytx.geometry.SlabProfile.slabs_met`).  The
    library's one containment test, in O(log n) plus the slabs it meets."""
    if s.orientation == VERTICAL:
        section = prof.cross_section(s.anchor)
        return section is not None and section[0] <= s.span[0] and s.span[1] <= section[1]
    return prof.slabs_met(s.anchor, *s.span) is not None


Member = tuple[str, int, int, int]


def edge_aligned_family(prof: SlabProfile) -> list[Member]:
    """The edge-aligned family in index form, in canonical order.

    A vertical is ``(VERTICAL, j, band_lo, band_hi)``: the whole
    cross-section at breakpoint ``j``, its ends as indices into
    ``edge_ordinates``.  A horizontal is ``(HORIZONTAL, r, lo, hi)``: a
    maximal run at ordinate ``edge_ordinates[r]``, its ends as breakpoint
    indices.  Verticals come by j, then horizontals by r and lo.  The
    family is nonempty for any valid profile and its regions cover the
    polygon at any k (each inside cell sits under the run at its own bottom
    cut line).
    """
    los = [lo for lo, _ in prof.span_bands]
    his = [hi for _, hi in prof.span_bands]
    n = len(los)
    family: list[Member] = [(VERTICAL, 0, los[0], his[0])]
    family += [
        (VERTICAL, j, min(a, c), max(b, d))
        for j, a, b, c, d in zip(range(1, n), los, his, los[1:], his[1:])
    ]
    family.append((VERTICAL, n, los[-1], his[-1]))
    # Each ordinate's runs (maximal stretches of slabs holding it), as indices.
    for r in range(len(prof.edge_ordinates)):
        start = None
        for i, (lo, hi) in enumerate(zip(los, his)):
            if lo <= r <= hi:
                if start is None:
                    start = i
            elif start is not None:
                family.append((HORIZONTAL, r, start, i))
                start = None
        if start is not None:
            family.append((HORIZONTAL, r, start, n))
    return family


def member_transmitter(prof: SlabProfile, m: Member) -> Transmitter:
    """The Transmitter an index-form family member stands for."""
    orientation, line, lo, hi = m
    xs, ords = prof.xs, prof.edge_ordinates
    if orientation == VERTICAL:
        return Transmitter(VERTICAL, xs[line], (ords[lo], ords[hi]))
    return Transmitter(HORIZONTAL, ords[line], (xs[lo], xs[hi]))


def edge_aligned_candidates(prof: SlabProfile) -> SegmentSet:
    """Every maximal segment on an edge-supporting line of the polygon.

    The Transmitter view of :func:`edge_aligned_family`, in its order:
    the full cross-section at every breakpoint, then every maximal run at
    every horizontal-edge ordinate.  Sorted and without duplicates, so
    canonical() would return it unchanged.
    """
    return tuple(member_transmitter(prof, m) for m in edge_aligned_family(prof))


def prune_dominated(p: OrthoPolygon, k: int = 2) -> SegmentSet:
    """The polygon's edge-aligned family after a single elimination pass in
    canonical order.

    A candidate is removed when its k-visibility region is contained in the
    union over the *currently remaining* other candidates, so the union of
    regions over the result equals the union over the whole family exactly.
    Those others are the candidates kept so far and all later ones, so a
    running union and precomputed suffix unions decide each candidate with
    one OR.  The regions are :func:`~polytx.visibility.member_bits`' (slab,
    band) bitsets of the index-form family, and only the kept members become
    Transmitters.  k must be 0, 1 or 2.
    """
    from .visibility import check_k, member_bits

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
    canonicalized set still covers the polygon with k = 2 (re-verified, not
    assumed).  Raises ValueError when an input segment leaves the closed
    polygon.
    """
    from .visibility import segments_cover

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
