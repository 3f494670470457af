"""Optimal covers by exhaustive subset search over a finite family.

Sliding any segment of an optimal cover onto the nearest edge-supporting
line keeps it inside the polygon and only grows what it sees, so searching
the edge-aligned family alone is lossless.  The test suite checks that claim
against a search over every unit-lattice line (``tests/oracles.dense_exact``).
"""

from __future__ import annotations

from itertools import combinations

from .approx import Solution
from .candidates import edge_aligned_candidates
from .errors import NoSolutionWithinBudget
from .geometry import OrthoPolygon, build_grid
from .visibility import vis_region


def exact_min_transmitters(
    p: OrthoPolygon, k: int, mode: str = "standard", budget: int = 8
) -> Solution:
    """Smallest k-transmitter cover, by cardinality-first lexicographic search.

    Subsets of the edge-aligned family are tried in increasing size and,
    within a size, in the family's canonical order, so the reported optimum
    is the lexicographically least witness.  `iterations` counts subsets
    evaluated.  `mode` accepts only "standard".  Raises
    NoSolutionWithinBudget when no subset of size <= budget covers.
    """
    if mode != "standard":
        raise ValueError(f"mode must be 'standard', got {mode!r}")
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
