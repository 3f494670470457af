"""Optimal covers by exact-cover depth-first search over a finite family.

Sliding any segment of an optimal cover onto the nearest edge-supporting
line keeps it inside the polygon and only grows what it sees, so searching
the edge-aligned family alone is lossless.  The test suite checks that claim
against a search over every unit-lattice line (``tests/oracles.dense_exact``).

The search answers what enumerating subsets of the family by size, and
within a size in canonical order, would answer: the optimum size and the
lexicographically least witness of that size.  It reports the enumerator's
count of subsets tried in closed form instead of trying them
(``tests/oracles.reference_exact`` is the enumerator, kept as the reference).
"""

from __future__ import annotations

from math import comb
from typing import Sequence

from .approx import Solution
from .candidates import edge_aligned_candidates
from .errors import NoSolutionWithinBudget
from .geometry import OrthoPolygon, build_grid
from .visibility import vis_region


def _covers(bits: Sequence[int], uncovered: int, r: int, lo: int) -> bool:
    """Whether at most r of bits[lo:] together cover the nonzero mask uncovered.

    Some chosen set must cover the lowest uncovered cell, so the search
    branches only on its coverers.  Recursion depth is at most r.
    """
    low = uncovered & -uncovered
    for i in range(lo, len(bits)):
        b = bits[i]
        if b & low:
            rest = uncovered & ~b
            if not rest or (r > 1 and _covers(bits, rest, r - 1, lo)):
                return True
    return False


def enumeration_count(combo: Sequence[int], n: int) -> int:
    """How many subsets of range(n) a cardinality-first enumeration tries up
    to and including the nonempty increasing tuple combo.

    Sizes run from 1 and each size in itertools.combinations order.  Every
    subset of size 1 to r = len(combo) is counted, C(n, j + 1) for each
    position j, less those after combo in its size: the ones whose first
    difference from combo at position j is a larger element, C(n - 1 - c_j,
    r - j) of them.
    """
    r = len(combo)
    count = 0
    for j, c in enumerate(combo):
        count += comb(n, j + 1) - comb(n - 1 - c, r - j)
    return count


def exact_min_transmitters(
    p: OrthoPolygon, k: int, mode: str = "standard", budget: int = 8
) -> Solution:
    """Smallest k-transmitter cover from the edge-aligned family.

    The optimum size OPT is found by iterative deepening over r = 1, 2, ...,
    and the witness is the lexicographically least covering OPT-subset in
    the family's canonical order, built one position at a time: each takes
    the smallest index after which the rest can still be covered.
    `iterations` is the number of subsets a cardinality-first enumeration in
    that order tries up to and including the witness, in closed form
    (`enumeration_count`); it is not the work the search did.  Recursion is
    at most min(budget, family size) deep.  `mode` accepts only "standard",
    and `budget` only an int (not a bool) of at least 1.  Raises
    NoSolutionWithinBudget when no subset of size <= budget covers.
    """
    if mode != "standard":
        raise ValueError(f"mode must be 'standard', got {mode!r}")
    if type(k) is not int or k not in (0, 1, 2):
        raise ValueError("k must be 0, 1 or 2")
    if type(budget) is not int or budget < 1:
        raise ValueError("budget must be an integer of at least 1")
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
        if _covers(bits, target, opt, 0):
            break
    else:
        raise NoSolutionWithinBudget(budget)
    witness: list[int] = []
    uncovered, lo = target, 0
    for left in range(opt - 1, -1, -1):
        for i in range(lo, n):
            rest = uncovered & ~bits[i]
            if not rest or (left and _covers(bits, rest, left, i + 1)):
                break
        witness.append(i)
        uncovered, lo = rest, i + 1
    chosen = tuple(cands[i] for i in witness)
    return Solution.build(p, chosen, k, "exact", enumeration_count(witness, n))
