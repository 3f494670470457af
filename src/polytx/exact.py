"""Optimal covers by exact-cover depth-first search over a finite family.

Sliding any segment of an optimal cover onto the nearest edge-supporting
line keeps it inside the polygon and only grows what it sees, so searching
the edge-aligned family alone is lossless.  The test suite checks that claim
against a search over every unit-lattice line (``tests/oracles.dense_exact``).

The family is built in index form
(:func:`~polytx.candidates.edge_aligned_family`): each member is a line
index and two index ends, and a ``Transmitter`` is made only for the
members of the witness.  Each member's region is a bitset with one bit per
(slab, band) cell, built straight from the profile's wall table
(:func:`~polytx.visibility.member_bits`) with no cell grid.  The numbering
is the plain grid's, ``slab * bands + band``, so the lowest set bit of a
mask is its leftmost, then lowest, cell.

The search answers what enumerating subsets of the family by size, and
within a size in canonical order, would answer: the optimum size and the
lexicographically least witness of that size.  It reports the enumerator's
count of subsets tried in closed form instead of trying them
(``tests/oracles.reference_exact`` is the enumerator, kept as the reference).

One solve shares a failure memo across every deepening level and every
witness position, so a mask shown uncoverable is not searched again at the
same or a smaller size, and the witness starts from the cover the search
found instead of a fresh search per position (``tests/oracles.reference_dfs`` is
the search without either, kept as the reference).  The solve also shares one
coverer list per cell: the ascending indices of the sets holding it, built
the first time that cell is the lowest uncovered one.  A node branches on
the list's entries from its lowest allowed index on, which is the order a
scan of the whole family would give, at the cost of the cell's coverers
instead of the family's size.

Two column reductions (Weihe's set-cover data reduction) change no answer:
the search sees only the first member of each distinct region, and a node
skips a member that a member at or above its lowest allowed index
dominates.  Every dominator of a member holds the lowest uncovered cell, so
one backward scan of the node's coverer list finds the largest.

The cell half of that reduction is a packing lower bound, tried at nodes
with at most three sets left: cells no two of which any one set holds need
a set each, so r + 1 such cells refute a node with r.  The cells are picked
greedily from the lowest uncovered one, each pick ruling out every cell a
holder of an earlier pick holds, and each cell's coverer list keeps the
union of its holders' regions for this.

The answer is a ``visibility.Solution``, as the greedy's is; nothing here
comes from :mod:`polytx.approx`.  :class:`NoSolutionWithinBudget` is raised
when no cover fits the budget.
"""

from __future__ import annotations

from bisect import bisect_left
from math import comb
from typing import Sequence

from .candidates import edge_aligned_family, member_transmitter
from .geometry import OrthoPolygon
from .visibility import Solution, check_k, member_bits

# Not called here: bench/spans.py traces these names in this module's namespace.
from .candidates import edge_aligned_candidates  # noqa: F401
from .geometry import build_grid  # noqa: F401
from .visibility import vis_region  # noqa: F401

# The largest r at which a node tries the packing bound before it branches.
# Near the leaves most nodes fail, and the bound refutes many of them for a
# few ORs; higher up it seldom refutes, and its picks build coverer lists the
# search would not.  With r <= 3 the 59 searches of the 14-20-slab bench
# shapes took 8% less time than with no bound, and random_monotone(1280, 8,
# 4, 0) at k=2 took 16 s as before; with the bound at every node, 35 s.
PACKING_DEPTH = 3


class NoSolutionWithinBudget(Exception):
    """The exact search exhausted its cardinality budget without a cover."""

    def __init__(self, budget: int):
        super().__init__(f"no covering subset of cardinality <= {budget}")
        self.budget = budget


def _covers(
    bits: Sequence[int],
    uncovered: int,
    r: int,
    lo: int,
    failed: dict[tuple[int, int], int],
    coverers: dict[int, tuple[list[int], int]],
    dom: list[int | None],
) -> tuple[int, ...] | None:
    """Indices of at most r of bits[lo:] that together cover the nonzero mask
    uncovered, or None if there are none.

    Some chosen set must cover the lowest uncovered cell, so the search
    branches only on its coverers, in ascending index order.  coverers maps
    a cell's bit to the ascending indices of the sets holding it and the
    union of their regions (:func:`_holders`); a cell's entry is built the
    first time that cell is the lowest uncovered one or a packing pick, and
    a node with lo > 0 skips the list's entries below lo by bisection.
    Recursion depth is at most r.  failed maps (uncovered, lo) to the
    largest r proven to fail.  A failure holds for every smaller r and
    every larger lo, so one memo serves every call on the same bits, and an
    entry at lo = 0 answers for any lo.  Each entry is one node the search
    refuted or expanded and failed.

    A node with r <= PACKING_DEPTH first picks uncovered cells that no one
    set holds two of: the lowest, then each time the lowest cell outside
    the unions of the picks' holders.  Each set of a cover holds at most
    one pick, so r + 1 picks refute the node.  The unions are over all of
    bits, a superset of the holders in bits[lo:], so the bound holds for
    every lo.

    A set is expanded only if no set of bits[lo:] dominates it
    (:func:`_dominator`).  Domination is a strict order, so a cover using a
    dominated set can use an undominated dominator from bits[lo:] instead:
    no answer and no memo entry changes.  dom caches each set's largest
    dominator (-1 if none) from the first time the set is about to be
    expanded.  The test is against lo: a set whose only dominators lie
    below lo may be needed.
    """
    key = (uncovered, lo)
    if failed.get(key, 0) >= r or (lo and failed.get((uncovered, 0), 0) >= r):
        return None
    low = uncovered & -uncovered
    lst, union = coverers.get(low) or _holders(bits, low, coverers)
    if r <= PACKING_DEPTH:
        # after each pick, rest holds the cells no holder of a pick holds
        rest = uncovered & ~union
        for _ in range(r - 1):
            if not rest:
                break
            cell = rest & -rest
            rest &= ~(coverers.get(cell) or _holders(bits, cell, coverers))[1]
        if rest:
            failed[key] = r
            return None
    for i in lst[bisect_left(lst, lo):] if lo else lst:
        rest = uncovered & ~bits[i]
        if not rest:
            return (i,)
        if r > 1:
            d = dom[i]
            if d is None:
                d = dom[i] = _dominator(bits, lst, i)
            if d >= lo:
                continue
            found = _covers(bits, rest, r - 1, lo, failed, coverers, dom)
            if found is not None:
                return (i, *found)
    failed[key] = r
    return None


def _holders(
    bits: Sequence[int], cell: int, coverers: dict[int, tuple[list[int], int]]
) -> tuple[list[int], int]:
    """The ascending indices of the sets holding the cell, and the union of
    their sets; the pair is also entered in coverers."""
    lst = [i for i, b in enumerate(bits) if b & cell]
    union = 0
    for i in lst:
        union |= bits[i]
    coverers[cell] = lst, union
    return lst, union


def _dominator(bits: Sequence[int], holders: Sequence[int], i: int) -> int:
    """The largest index j that dominates set i, or -1 if none does.

    j dominates i when bits[j] contains bits[i], and for equal sets only
    when j > i, so of two equal sets only the lower one is dominated.
    holders is ascending and must hold every set that contains bits[i]:
    the coverer list of any cell of i has them all, as each holds that
    cell, so one backward scan of it finds the largest.
    """
    b = bits[i]
    for j in reversed(holders):
        c = bits[j]
        if c & b == b and (j > i or c != b):
            return j
    return -1


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


def _least_cover(bits: Sequence[int], target: int, budget: int) -> list[int]:
    """The lexicographically least smallest cover of target, as ascending
    indices into bits, when no one set covers it but all of them together do.

    Only the first set of each distinct region is searched: a least cover
    never holds a set equal to an earlier one, since swapping in the earlier
    one gives a smaller cover or an earlier one of the same size.  The
    witness is mapped back to indices into bits.
    """
    first: dict[int, int] = {}
    for i, b in enumerate(bits):
        first.setdefault(b, i)
    keep = list(first.values())
    bits = list(first)
    failed: dict[tuple[int, int], int] = {}
    coverers: dict[int, tuple[list[int], int]] = {}
    dom: list[int | None] = [None] * len(bits)
    for opt in range(2, min(budget, len(bits)) + 1):
        found = _covers(bits, target, opt, 0, failed, coverers, dom)
        if found is not None:
            break
    else:
        raise NoSolutionWithinBudget(budget)
    witness = sorted(found)
    uncovered, lo = target, 0
    for pos in range(opt):
        left = opt - 1 - pos
        for i in range(lo, witness[pos]):
            rest = uncovered & ~bits[i]
            if left:
                found = _covers(bits, rest, left, i + 1, failed, coverers, dom)
            else:
                found = None if rest else ()
            if found is not None:
                witness[pos:] = [i, *sorted(found)]
                break
        uncovered &= ~bits[witness[pos]]
        lo = witness[pos] + 1
    return [keep[i] for i in witness]


def exact_min_transmitters(
    p: OrthoPolygon, k: int, mode: str = "standard", budget: int = 8
) -> Solution:
    """Smallest k-transmitter cover from the edge-aligned family.

    The family is ``edge_aligned_family``'s index form, and its regions
    and the inside cells are (slab, band) bitsets from ``member_bits``; no
    grid is built, and only the witness becomes Transmitters.

    The witness is the lexicographically least covering OPT-subset in the
    family's canonical order.  OPT is 1 when some member's region is every
    inside cell, and the first such member is the witness, with no search.
    Otherwise `_least_cover` finds OPT by iterative deepening over r = 2,
    3, ..., among the first members of the distinct regions, and builds
    the witness one position at a time: each takes the smallest index after
    which the rest can still be covered.  The r = OPT search returns a
    cover F, sorted; the witness is never above F, so each position tries
    only the indices below F's entry there, and a cover found by such a try
    becomes the new F.  Every search of the solve
    shares one failure memo and one table of per-cell coverer lists, both
    dropped on return.  The memo holds one entry per node the search
    refuted or expanded and failed, and the table one list and union per
    cell that was ever the lowest uncovered one or a packing pick, so their
    memory grows no faster than the search's time.  `iterations` is the
    number of subsets a cardinality-first enumeration in that order tries
    up to and including the witness, in closed form (`enumeration_count`);
    it is not the work the search did.
    Recursion is at most min(budget, family size) deep.  `mode` accepts only
    "standard", and `budget` only an int (not a bool) of at least 1.  Raises
    NoSolutionWithinBudget when no subset of size <= budget covers.
    """
    if mode != "standard":
        raise ValueError(f"mode must be 'standard', got {mode!r}")
    check_k(k)
    if type(budget) is not int or budget < 1:
        raise ValueError("budget must be an integer of at least 1")
    prof = p.profile
    family = edge_aligned_family(prof)
    bits, target = member_bits(prof, family, k)
    n = len(bits)
    every = 0
    for b in bits:
        every |= b
    if every & target != target:
        raise NoSolutionWithinBudget(budget)
    if target in bits:
        witness = [bits.index(target)]
    else:
        witness = _least_cover(bits, target, budget)
    chosen = tuple(member_transmitter(prof, family[i]) for i in witness)
    return Solution.build(p, chosen, k, "exact", enumeration_count(witness, n))
