"""Guarding x-monotone orthogonal polygons with few 2-transmitters.

Exact integer geometry throughout: polygons become slab profiles, visibility
becomes bitsets over (slab, band) cells for the exact solver and intervals
per row for the greedy sweep and the coverage check, both read from the
profile's wall table, and both the factor-2 approximation and the exact
solver work on a finite edge-aligned candidate family.

The modules import each other in one direction: ``geometry`` (with
``InvalidPolygonError``) → ``candidates`` → ``visibility`` (with ``Solution``,
``prune_dominated`` and ``canonicalize_solution``) → ``approx`` and ``exact``
(with ``NoSolutionWithinBudget``) → ``cli``.
"""

from .approx import FinderResult, SweepTables, approximate_2transmitters, hv_finder, vh_finder
from .candidates import SegmentSet, Transmitter, canonical, edge_aligned_candidates
from .exact import NoSolutionWithinBudget, exact_min_transmitters
from .geometry import (
    CellGrid,
    InvalidPolygonError,
    OrthoPolygon,
    Point,
    SlabProfile,
    Span,
    build_grid,
    cut_right,
    parse_polygon,
    validate,
)
from .instances import FIXTURES, corpus, fixture, random_monotone
from .svg import render_svg
from .visibility import Solution, canonicalize_solution, prune_dominated, vis_region

__version__ = "0.1.0"

__all__ = [
    "CellGrid",
    "FIXTURES",
    "FinderResult",
    "InvalidPolygonError",
    "NoSolutionWithinBudget",
    "OrthoPolygon",
    "Point",
    "SegmentSet",
    "SlabProfile",
    "Solution",
    "Span",
    "SweepTables",
    "Transmitter",
    "approximate_2transmitters",
    "build_grid",
    "canonical",
    "canonicalize_solution",
    "corpus",
    "cut_right",
    "edge_aligned_candidates",
    "exact_min_transmitters",
    "fixture",
    "hv_finder",
    "parse_polygon",
    "prune_dominated",
    "random_monotone",
    "render_svg",
    "validate",
    "vh_finder",
    "vis_region",
    "__version__",
]
