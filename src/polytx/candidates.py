"""Guard segments and the edge-aligned candidate family.

A transmitter is a maximal axis-parallel segment inside the closed polygon.
The search family is the edge-aligned family: a maximal vertical segment at
every vertical-edge abscissa and every maximal horizontal run at every
horizontal-edge ordinate.  An optimal solution can always be slid onto these
edge-aligned lines.  :func:`edge_aligned_family` is the one generator: it
gives each member as a line index and two index ends (breakpoints and
``edge_ordinates`` positions), which is what the bitsets, the exact search
and the pruning read; :func:`edge_aligned_candidates` is its Transmitter
view.  Every consumer takes a slab's span in band indices from the
profile's ``span_bands``.

This module reads no visibility.  What is decided from the regions lives
in :mod:`polytx.visibility`: the pruning (``prune_dominated``), the sliding
onto edge-aligned lines (``canonicalize_solution``) and the verified
``Solution``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .geometry import SlabProfile, Span, input_int

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
