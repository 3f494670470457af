import importlib
from collections import Counter
from itertools import combinations
from math import comb

import pytest

import polytx as px
from polytx import (
    CellGrid,
    NoSolutionWithinBudget,
    Solution,
    Transmitter,
    approximate_2transmitters,
    edge_aligned_candidates,
    exact_min_transmitters,
)
from polytx.candidates import edge_aligned_family, member_transmitter
from polytx.visibility import member_bits

from oracles import covered_area, dense_exact, reference_dfs, reference_exact

exact_mod = importlib.import_module("polytx.exact")


def T(o: str, anchor: int, lo: int, hi: int) -> Transmitter:
    return Transmitter(o, anchor, (lo, hi))


# The memoised search as it was before the coverer lists: every node scans
# bits[lo:] for the sets that hold the lowest uncovered cell.  Kept here, not
# in oracles.py, because bench/run.py imports oracles.py.
def scan_covers(bits, uncovered, r, lo, failed):
    key = (uncovered, lo)
    if failed.get(key, 0) >= r or (lo and failed.get((uncovered, 0), 0) >= r):
        return None
    low = uncovered & -uncovered
    for i in range(lo, len(bits)):
        b = bits[i]
        if b & low:
            rest = uncovered & ~b
            if not rest:
                return (i,)
            if r > 1:
                found = scan_covers(bits, rest, r - 1, lo, failed)
                if found is not None:
                    return (i, *found)
    failed[key] = r
    return None


def scan_exact(p, k: int, budget: int = 8) -> Solution:
    """exact_min_transmitters with scan_covers as its search."""
    family = edge_aligned_family(p.profile)
    bits, target = member_bits(p.profile, family, k)
    n = len(bits)
    every = 0
    for b in bits:
        every |= b
    if every & target != target:
        raise NoSolutionWithinBudget(budget)
    failed = {}
    for opt in range(1, min(budget, n) + 1):
        found = scan_covers(bits, target, opt, 0, failed)
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
                found = scan_covers(bits, rest, left, i + 1, failed)
            else:
                found = None if rest else ()
            if found is not None:
                witness[pos:] = [i, *sorted(found)]
                break
        uncovered &= ~bits[witness[pos]]
        lo = witness[pos] + 1
    chosen = tuple(member_transmitter(p.profile, family[i]) for i in witness)
    return Solution.build(p, chosen, k, "exact", exact_mod.enumeration_count(witness, n))


class TestFixtureOptima:
    def test_rect(self, polys):
        sol = exact_min_transmitters(polys["RECT"], 2)
        assert sol.count == 1
        assert sol.transmitters == (T("v", 0, 0, 3),)
        assert sol.iterations == 1  # the very first singleton already covers
        assert sol.solver == "exact"

    def test_gap7_by_k(self, polys):
        p = polys["GAP7"]
        k2 = exact_min_transmitters(p, 2)
        assert k2.count == 1
        assert k2.transmitters == (T("v", 6, 0, 3),)
        k1 = exact_min_transmitters(p, 1)
        assert k1.count == 2
        assert k1.transmitters == (T("v", 2, 0, 3), T("v", 8, 0, 3))
        k0 = exact_min_transmitters(p, 0)
        assert k0.count == 3
        assert k0.transmitters == (
            T("v", 0, 2, 3),
            T("v", 10, 0, 3),
            T("h", 0, 2, 12),
        )

    def test_stair6(self, polys):
        sol = exact_min_transmitters(polys["STAIR6"], 2)
        assert sol.count == 2
        assert sol.transmitters == (T("h", 2, 0, 6), T("h", 5, 6, 12))

    def test_solutions_cover_per_the_oracle(self, polys):
        for name, p in polys.items():
            for k in (0, 1, 2):
                sol = exact_min_transmitters(p, k)
                assert sol.coverage_complete
                assert covered_area(p, sol.transmitters, k)

    def test_witness_is_lexicographically_first(self, polys):
        # the lex-least witness in canonical order; 189 is the enumerator's count
        a = exact_min_transmitters(polys["GAP7"], 0)
        b = exact_min_transmitters(polys["GAP7"], 0)
        assert a.transmitters == b.transmitters
        assert a.iterations == b.iterations == 189

    @pytest.mark.parametrize("name", ["GAP7", "STAIR6"])
    def test_no_grid_per_solve(self, polys, monkeypatch, name):
        # The bitsets come from the profile's wall table: no cell grid is
        # built and no region is computed one vis_region call at a time.
        calls = Counter()

        def counted(owner, attr):
            fn = getattr(owner, attr)

            def wrapper(*args, **kwargs):
                calls[f"{owner.__name__}.{attr}"] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(owner, attr, wrapper)

        for module in (px.candidates, px.exact, px.geometry, px.visibility):
            for attr in ("build_grid", "vis_region"):
                if hasattr(module, attr):
                    counted(module, attr)
        counted(CellGrid, "__init__")
        for k in (0, 1, 2):
            assert exact_min_transmitters(polys[name], k).coverage_complete
        assert not calls, calls


class TestBudget:
    def test_exhaustion_raises(self, polys):
        with pytest.raises(NoSolutionWithinBudget) as exc:
            exact_min_transmitters(polys["GAP7"], 0, budget=2)
        assert exc.value.budget == 2

    def test_budget_of_the_optimum_succeeds(self, polys):
        sol = exact_min_transmitters(polys["GAP7"], 0, budget=3)
        assert sol.count == 3

    @pytest.mark.parametrize("budget", [0, -1, True, False, 2.5, 3.0, "3", None])
    def test_bad_budget_rejected(self, polys, budget):
        # a bool is not read as 1 or 0, nor a float or a string coerced
        with pytest.raises(ValueError, match="budget must be"):
            exact_min_transmitters(polys["RECT"], 2, budget=budget)

    @pytest.mark.parametrize("name,k", [("STAIR6", 2), ("GAP7", 0)])
    def test_huge_budget_same_as_default(self, polys, name, k):
        p = polys[name]
        assert exact_min_transmitters(p, k, budget=10**6) == exact_min_transmitters(p, k)

    @pytest.mark.parametrize("name,k", [("STAIR6", 2), ("GAP7", 1)])
    def test_budget_one_below_optimum_raises(self, polys, name, k):
        opt = exact_min_transmitters(polys[name], k).count
        assert opt >= 2
        with pytest.raises(NoSolutionWithinBudget) as exc:
            exact_min_transmitters(polys[name], k, budget=opt - 1)
        assert exc.value.budget == opt - 1

    def test_recursion_depth_bounded(self, polys, monkeypatch):
        # _covers recurses through the module global, so the wrapper sees
        # every level of the search
        inner = exact_mod._covers
        depth = peak = 0

        def counted(*args):
            nonlocal depth, peak
            depth += 1
            peak = max(peak, depth)
            try:
                return inner(*args)
            finally:
                depth -= 1

        monkeypatch.setattr(exact_mod, "_covers", counted)
        cases = [(polys["GAP7"], 0, b) for b in (1, 2, 3, 8, 10**6)]
        cases += [(px.random_monotone(18, 8, 4, 16), 0, b) for b in (3, 10**6)]
        for p, k, budget in cases:
            peak = 0
            try:
                exact_min_transmitters(p, k, budget=budget)
            except NoSolutionWithinBudget:
                pass
            assert 0 < peak <= min(budget, len(edge_aligned_candidates(p.profile)))


class TestAgainstReferenceEnumerator:
    """The search returns the enumerator's Solution, iterations included."""

    @staticmethod
    def outcome(solver, p, k, budget):
        try:
            return solver(p, k, budget=budget)
        except NoSolutionWithinBudget as exc:
            return ("no solution within", exc.budget)

    @pytest.mark.parametrize("budget", [1, 2, 8])
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_corpus(self, k, budget):
        for _, p in px.corpus(300):
            assert self.outcome(exact_min_transmitters, p, k, budget) == self.outcome(
                reference_exact, p, k, budget
            )

    @pytest.mark.parametrize("slabs", [14, 17, 20])
    def test_random_monotone(self, slabs):
        for seed in range(6):
            p = px.random_monotone(slabs, 8, 4, seed)
            for k in (0, 1, 2):
                assert exact_min_transmitters(p, k) == reference_exact(p, k)

    def test_worst_enumeration_case_pinned(self):
        # 2.2 M subsets for the enumerator; iterations is its count, unchanged
        sol = exact_min_transmitters(px.random_monotone(18, 8, 4, 16), 0)
        assert sol.iterations == 2_223_737
        assert sol.transmitters == (
            T("v", 14, 0, 8),
            T("v", 24, 0, 7),
            T("v", 48, 2, 7),
            T("h", 2, 0, 11),
            T("h", 2, 32, 46),
        )


class TestAgainstReferenceSearch:
    """The memoised search returns the earlier search's Solution at sizes the
    enumerator cannot reach; budget 8 stops at 24 slabs, where the earlier
    search's witness rebuild starts to take seconds."""

    CASES = [(slabs, 3) for slabs in range(20, 31)] + [(slabs, 8) for slabs in range(20, 25)]

    @pytest.mark.parametrize("slabs,budget", CASES)
    def test_random_monotone(self, slabs, budget):
        outcome = TestAgainstReferenceEnumerator.outcome
        for seed in range(10):
            p = px.random_monotone(slabs, 8, 4, seed)
            for k in (0, 1, 2):
                assert outcome(exact_min_transmitters, p, k, budget) == outcome(
                    reference_dfs, p, k, budget
                )


class TestAgainstScanSearch:
    """Branching on the lowest uncovered cell's coverer list returns what
    scanning the whole family for its coverers returned, at 40-80 slabs,
    beyond the reach of reference_dfs."""

    # At 40 slabs the seeds run past 3: a search that wrongly skips the first
    # coverer at or above lo returns the scan's witness on seeds 0-3 at every
    # size, and differs only on seeds 14 and 29 at k = 0.
    @pytest.mark.parametrize("slabs,seeds", [(40, 32), (60, 4), (80, 4)])
    def test_random_monotone(self, slabs, seeds):
        for seed in range(seeds):
            p = px.random_monotone(slabs, 8, 4, seed)
            for k in (0, 1, 2):
                assert exact_min_transmitters(p, k, budget=64) == scan_exact(p, k, 64)


class TestHardInstances:
    """The two shapes where the search without a failure memo took 35 s and
    2 minutes; the witnesses are family indices, pinned from that search."""

    @pytest.mark.parametrize(
        "shape,k,indices",
        [
            ((40, 8, 4, 8), 0, (11, 20, 32, 63, 90, 92, 93, 94)),
            ((60, 8, 4, 0), 2, (19, 27, 33, 42, 48, 59, 101)),
        ],
        ids=["40-slabs-k0", "60-slabs-k2"],
    )
    def test_witness_pinned(self, shape, k, indices):
        p = px.random_monotone(*shape)
        family = edge_aligned_candidates(p.profile)
        sol = exact_min_transmitters(p, k)
        assert sol.coverage_complete
        assert sol.transmitters == tuple(family[i] for i in indices)
        assert sol.iterations == exact_mod.enumeration_count(indices, len(family))


class TestEnumerationCount:
    @pytest.mark.parametrize("n", range(1, 10))
    def test_matches_cardinality_first_enumeration(self, n):
        # every smaller size first, then the rank among combinations of size r
        for r in range(1, n + 1):
            before = sum(comb(n, s) for s in range(1, r))
            for rank, combo in enumerate(combinations(range(n), r)):
                assert exact_mod.enumeration_count(combo, n) == before + rank + 1


class TestArguments:
    def test_bad_mode_rejected(self, polys):
        # the dense search lives in oracles.dense_exact, not behind a mode
        for mode in ("fast", "dense"):
            with pytest.raises(ValueError):
                exact_min_transmitters(polys["RECT"], 2, mode=mode)

    @pytest.mark.parametrize("k", [-1, 3, 7, 1.0, True])
    def test_bad_k_rejected(self, polys, k):
        with pytest.raises(ValueError):
            exact_min_transmitters(polys["RECT"], k)


class TestDenseMode:
    def test_gap7_agrees_with_standard(self, polys):
        std = exact_min_transmitters(polys["GAP7"], 2)
        dense = dense_exact(polys["GAP7"], 2)
        assert dense.count == std.count == 1
        assert dense.solver == "exact-dense"

    def test_dense_never_beats_standard(self, tractable_corpus):
        # the edge-aligned family already contains an optimal solution
        for p in tractable_corpus[:30]:
            std = exact_min_transmitters(p, 2)
            dense = dense_exact(p, 2)
            assert std.count == dense.count


class TestOptimumMonotoneInK:
    def test_fixtures(self, polys):
        for p in polys.values():
            sizes = [exact_min_transmitters(p, k).count for k in (0, 1, 2)]
            assert sizes[0] >= sizes[1] >= sizes[2]

    def test_corpus(self, small_corpus):
        for p in small_corpus[:30]:
            sizes = [exact_min_transmitters(p, k).count for k in (0, 1, 2)]
            assert sizes[0] >= sizes[1] >= sizes[2]


class TestAgainstApproximation:
    def test_ratio_at_most_two_on_fixtures(self, polys):
        for p in polys.values():
            a = approximate_2transmitters(p)
            e = exact_min_transmitters(p, 2)
            assert e.count <= a.count <= 2 * e.count

    def test_approx_iterations_bounded_by_optimum(self, polys, small_corpus):
        for p in list(polys.values()) + small_corpus:
            a = approximate_2transmitters(p)
            e = exact_min_transmitters(p, 2)
            assert a.iterations <= e.count
