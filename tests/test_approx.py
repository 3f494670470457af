from collections import Counter

import pytest

import polytx as px
from polytx import (
    SCALE,
    CellGrid,
    Solution,
    SweepTables,
    Transmitter,
    approximate_2transmitters,
    build_grid,
    cut_right,
    hv_finder,
    vh_finder,
)
from polytx.candidates import edge_aligned_candidates

from oracles import (
    covered_area,
    finder_tables,
    oracle_region_bits,
    reference_approximate,
    reference_hv_finder,
    reference_vh_finder,
)


def T(o: str, anchor: int, lo: int, hi: int) -> Transmitter:
    return Transmitter(o, anchor * SCALE, (lo * SCALE, hi * SCALE))


def finders_for(p):
    sweep = SweepTables(p.profile)
    return vh_finder(sweep, p.profile.x_min), hv_finder(sweep, p.profile.x_min)


class TestFinders:
    def test_rect(self, polys):
        vh, hv = finders_for(polys["RECT"])
        assert vh.first == T("v", 6, 0, 3) and vh.second is None and vh.done
        assert hv.first == T("h", 0, 0, 6) and hv.second is None and hv.done
        assert vh.cut_x == hv.cut_x == 6 * SCALE

    def test_valley_single_vertical_suffices(self, polys):
        vh, hv = finders_for(polys["VALLEY"])
        assert vh.first == T("v", 6, 0, 3) and vh.done
        assert hv.first == T("h", 0, 0, 6) and hv.done

    def test_stair3(self, polys):
        vh, hv = finders_for(polys["STAIR3"])
        # the middle run alone covers; the vertical-first pair also finishes
        assert (vh.first, vh.second) == (T("v", 2, 0, 3), T("h", 2, 0, 6))
        assert vh.done
        assert hv.first == T("h", 2, 0, 6) and hv.second is None and hv.done

    def test_stair6_partial_progress(self, polys):
        vh, hv = finders_for(polys["STAIR6"])
        assert (vh.first, vh.second) == (T("v", 2, 0, 3), T("h", 4, 4, 10))
        assert not vh.done and vh.cut_x == 10 * SCALE
        assert (hv.first, hv.second) == (T("h", 2, 0, 6), T("v", 8, 3, 6))
        assert not hv.done and hv.cut_x == 10 * SCALE

    def test_gap7(self, polys):
        vh, hv = finders_for(polys["GAP7"])
        assert vh.first == T("v", 8, 0, 3) and vh.second is None and vh.done
        assert (hv.first, hv.second) == (T("h", 2, 0, 4), T("v", 12, 0, 3))
        assert hv.done

    def test_result_shape(self, polys):
        vh, _ = finders_for(polys["STAIR6"])
        assert vh.transmitters == (vh.first, vh.second)
        assert vh.count == 2
        single, _ = finders_for(polys["RECT"])
        assert single.transmitters == (single.first,)
        assert single.count == 1

    def test_empty_remainder_rejected(self, polys):
        # right of the last breakpoint there is nothing to cover and no candidate
        prof = polys["RECT"].profile
        sweep = SweepTables(prof)
        with pytest.raises(ValueError, match="no usable vertical"):
            vh_finder(sweep, prof.x_max)
        with pytest.raises(ValueError, match="no left-anchored horizontal"):
            hv_finder(sweep, prof.x_max)

    def test_cut_must_be_a_breakpoint(self, polys):
        prof = polys["STAIR6"].profile
        sweep = SweepTables(prof)
        for finder in (vh_finder, hv_finder):
            for cut in (prof.xs[1] + SCALE, prof.x_min - SCALE, prof.x_max + SCALE):
                with pytest.raises(ValueError, match="not a breakpoint"):
                    finder(sweep, cut)

    def test_hv_finder_without_vertical_candidates_raises(self, polys):
        # STAIR6's left-anchored run leaves cells uncovered, so the step needs
        # a vertical; the check must survive python -O, which strips asserts.
        # On a real profile the vertical right of the cut always qualifies, so
        # the tables are made to say that none sees back to the run's end.
        prof = polys["STAIR6"].profile
        sweep = SweepTables(prof)
        sweep.reach = [len(prof.xs)] * len(prof.xs)
        for finder in (vh_finder, hv_finder):
            with pytest.raises(ValueError, match="no usable vertical"):
                finder(sweep, prof.x_min)

    @pytest.mark.parametrize("shapes", ["fixtures+corpus", "random"])
    def test_match_reference_finders_at_every_cut(self, polys, shapes):
        # Every breakpoint is a possible round start, so this covers every
        # round of every sweep over these shapes and more.
        if shapes == "random":
            todo = [
                px.random_monotone(slabs, h, w, seed=seed)
                for slabs in (5, 10, 40)
                for h, w in ((20, 4), (8, 4), (300, 1))
                for seed in range(3 if slabs < 40 else 1)
            ]
        else:
            todo = list(polys.values()) + [p for _, p in px.corpus(300)]
        for p in todo:
            prof = p.profile
            sweep = SweepTables(prof)
            for cut in prof.xs[:-1]:
                current = cut_right(prof, cut)
                cands = edge_aligned_candidates(current)
                tables = finder_tables(current, cands)
                assert vh_finder(sweep, cut) == reference_vh_finder(current, cands, **tables)
                assert hv_finder(sweep, cut) == reference_hv_finder(current, cands, **tables)


class TestApproximate:
    @pytest.mark.parametrize(
        "name, expected",
        [
            ("RECT", [("h", 0, 0, 6)]),
            ("VALLEY", [("h", 0, 0, 6)]),
            ("STAIR3", [("h", 2, 0, 6)]),
            ("GAP7", [("v", 8, 0, 3)]),
            ("STAIR6", [("v", 8, 3, 6), ("h", 2, 0, 6), ("h", 5, 10, 12)]),
        ],
    )
    def test_fixture_solutions(self, polys, name, expected):
        sol = approximate_2transmitters(polys[name])
        assert sol.transmitters == tuple(T(*e) for e in expected)
        assert sol.coverage_complete
        assert sol.solver == "approx"
        assert sol.k == 2

    def test_iteration_counts(self, polys):
        assert approximate_2transmitters(polys["RECT"]).iterations == 1
        assert approximate_2transmitters(polys["GAP7"]).iterations == 1
        assert approximate_2transmitters(polys["STAIR6"]).iterations == 2

    def test_stalled_cut_raises(self, polys, stalled_finders):
        # A round that does not advance the cut would repeat forever; the
        # guard must be a real check, since python -O strips asserts.
        with pytest.raises(RuntimeError, match="does not advance"):
            approximate_2transmitters(polys["STAIR6"])

    def test_deterministic(self, polys):
        a = approximate_2transmitters(polys["STAIR6"])
        b = approximate_2transmitters(polys["STAIR6"])
        assert a == b

    def test_corpus_invariants(self, small_corpus):
        for p in small_corpus:
            sol = approximate_2transmitters(p)
            assert sol.coverage_complete
            assert sol.count <= 2 * sol.iterations
            assert sol.iterations <= p.m
            # cross-check coverage with the brute-force oracle
            assert covered_area(p, sol.transmitters, 2)


class TestSweep:
    """The one-grid sweep against the per-remainder loop it replaced."""

    def test_matches_reference_on_fixtures(self, polys):
        for p in polys.values():
            assert approximate_2transmitters(p) == reference_approximate(p)

    def test_matches_reference_on_corpus(self):
        for _, p in px.corpus(300):
            assert approximate_2transmitters(p) == reference_approximate(p)

    @pytest.mark.parametrize("height, width", [(20, 4), (8, 4), (300, 1)])
    @pytest.mark.parametrize("slabs", [5, 10, 40, 160])
    def test_matches_reference_on_random_shapes(self, slabs, height, width):
        # one shape at 160 slabs: the reference takes over a second on the tall one
        for seed in range(1 if slabs == 160 else 4):
            p = px.random_monotone(slabs, height, width, seed=seed)
            assert approximate_2transmitters(p) == reference_approximate(p)

    @pytest.mark.parametrize("name", ["random40", "STAIR6"])
    def test_work_per_solve(self, monkeypatch, name):
        p = px.random_monotone(40, 20, 4, seed=1) if name == "random40" else px.fixture(name)
        calls = Counter()

        def counted(owner, attr):
            fn = getattr(owner, attr)

            def wrapper(*args, **kwargs):
                calls[attr] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(owner, attr, wrapper)

        for attr in ("build_grid", "edge_aligned_candidates", "vis_region"):
            counted(px.approx, attr)
        counted(CellGrid, "inside_mask_between")
        sol = approximate_2transmitters(p)
        # the sweep grid, then Solution.build's refined grid
        assert calls["build_grid"] == 2
        assert calls["edge_aligned_candidates"] == 1
        # the verticals right of the left edge once, then the check; no
        # horizontal and no vertical on a cut gets a region in the sweep
        assert calls["vis_region"] <= len(p.profile.xs) - 1 + sol.count
        # the finders do no grid work: only the check's horizontals call it
        assert calls["inside_mask_between"] <= sol.count

    @pytest.mark.parametrize("shapes", ["fixtures+corpus", "random"])
    def test_tables_match_oracle_regions(self, polys, shapes):
        # The three columns per vertical against the brute-force ring
        # oracle's region, and the run lists against runs_at in slab indices.
        if shapes == "random":
            todo = [px.random_monotone(40, h, w, seed=0) for h, w in ((20, 4), (300, 1))]
        else:
            todo = list(polys.values()) + [p for _, p in px.corpus(300)]
        for p in todo:
            prof = p.profile
            sweep = SweepTables(prof)
            grid = build_grid(prof)
            for j in range(1, len(prof.xs)):
                seen = oracle_region_bits(p, sweep.verticals[j], 2, grid)
                cols = {ix for ix, _ in grid.iter_cells(grid.inside_mask & ~seen)}
                left = [ix for ix in cols if ix < j]
                right = [ix for ix in cols if ix >= j]
                assert sweep.reach[j] == (max(left) + 1 if left else 0)
                assert sweep.miss_lo[j] == (min(right) if right else None)
                assert sweep.miss_hi[j] == (max(right) if right else None)
            ordinates = {v for span in prof.spans for v in span}
            assert {y for _, y, _, _ in sweep.ordinates} == ordinates
            for _, y, los, his in sweep.ordinates:
                expected = [(sweep.column(lo), sweep.column(hi)) for lo, hi in prof.runs_at(y)]
                assert list(zip(los, his)) == expected


class TestSolution:
    def test_build_verifies_coverage(self, polys):
        p = polys["VALLEY"]
        good = Solution.build(p, (T("h", 1, 0, 6),), 2, "approx", 1)
        assert good.coverage_complete
        bad = Solution.build(p, (T("v", 0, 0, 3),), 0, "approx", 1)
        assert not bad.coverage_complete

    def test_build_refines_the_grid_for_interior_segments(self, polys):
        # a transmitter through cell interiors still verifies exactly,
        # because build refines the grid with its coordinates
        p = polys["RECT"]
        mid = Solution.build(p, (T("h", 1, 0, 6),), 0, "approx", 1)
        assert mid.coverage_complete
        short = Solution.build(p, (T("v", 3, 1, 2),), 0, "approx", 1)
        assert not short.coverage_complete

    def test_json_dict(self, polys):
        sol = approximate_2transmitters(polys["STAIR6"])
        d = sol.to_json_dict()
        assert d["k"] == 2
        assert d["solver"] == "approx"
        assert d["count"] == 3
        assert d["coverage"] == "complete"
        assert d["iterations"] == 2
        assert d["transmitters"][0] == {"orientation": "v", "anchor": 8, "span": [3, 6]}
        assert all(isinstance(t["anchor"], int) for t in d["transmitters"])
