"""Optimal covers by exhaustive subset search over a finite family.

Sliding any segment of an optimal cover onto the nearest edge-supporting
line keeps it inside the polygon and only grows what it sees, so searching
the edge-aligned family alone is lossless.  The dense mode searches every
unit-lattice line instead and exists to check exactly that claim.
"""

from __future__ import annotations

from itertools import combinations

from .approx import Solution
from .candidates import (
    HORIZONTAL,
    Transmitter,
    VERTICAL,
    canonical,
    edge_aligned_candidates,
)
from .errors import NoSolutionWithinBudget
from .geometry import OrthoPolygon, SCALE, build_grid
from .visibility import vis_region


def _dense_family(p: OrthoPolygon) -> tuple[Transmitter, ...]:
    """Maximal segments on every input-unit lattice line meeting the polygon."""
    prof = p.profile
    segs = []
    for x in range(prof.x_min, prof.x_max + 1, SCALE):
        section = prof.cross_section(x)
        if section is not None:
            segs.append(Transmitter(VERTICAL, x, section))
    for y in range(prof.y_min, prof.y_max + 1, SCALE):
        for run in prof.runs_at(y):
            segs.append(Transmitter(HORIZONTAL, y, run))
    return canonical(segs)


def exact_min_transmitters(
    p: OrthoPolygon, k: int, mode: str = "standard", budget: int = 8
) -> Solution:
    """Smallest k-transmitter cover, by cardinality-first lexicographic search.

    Subsets of the candidate family are tried in increasing size and, within
    a size, in the family's canonical order, so the reported optimum is the
    lexicographically least witness.  `iterations` counts subsets evaluated.
    Raises NoSolutionWithinBudget when no subset of size <= budget covers.
    """
    if mode not in ("standard", "dense"):
        raise ValueError(f"mode must be 'standard' or 'dense', got {mode!r}")
    if k not in (0, 1, 2):
        raise ValueError("k must be 0, 1 or 2")
    if budget < 1:
        raise ValueError("budget must be at least 1")
    prof = p.profile
    if mode == "standard":
        cands = edge_aligned_candidates(prof)
        grid = build_grid(prof)
        solver = "exact"
    else:
        cands = _dense_family(p)
        extra_x = range(prof.x_min, prof.x_max + 1, SCALE)
        extra_y = range(prof.y_min, prof.y_max + 1, SCALE)
        grid = build_grid(prof, extra_x, extra_y)
        solver = "exact-dense"
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
                return Solution.build(p, chosen, k, solver, iterations)
    raise NoSolutionWithinBudget(budget)
