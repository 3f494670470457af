import random
from collections import Counter
from dataclasses import replace
from itertools import product

import pytest

import polytx as px
from polytx import (
    CellGrid,
    SlabProfile,
    Solution,
    SweepTables,
    Transmitter,
    approximate_2transmitters,
    build_grid,
    canonicalize_solution,
    cut_right,
    exact_min_transmitters,
    hv_finder,
    vh_finder,
)
from polytx.approx import _nearest_greater
from polytx.candidates import (
    edge_aligned_candidates,
    member_transmitter,
    segment_inside,
)
from polytx.visibility import segments_cover

from oracles import (
    covered_area,
    finder_tables,
    oracle_region_bits,
    point_inside,
    reference_approximate,
    reference_covers,
    reference_hv_finder,
    reference_vh_finder,
    ring_edges,
    runs_at,
)


def T(o: str, anchor: int, lo: int, hi: int) -> Transmitter:
    return Transmitter(o, anchor, (lo, hi))


def off_family(p, rng: random.Random) -> tuple[Transmitter, ...]:
    """Segments the family does not hold, on integer lines in the bounding box:
    a vertical and a horizontal inside the polygon with short spans, usually
    off every edge line, and a vertical and a horizontal anywhere."""
    prof = p.profile

    def short(lo, hi):
        a = rng.randrange(lo, hi)
        return a, rng.randrange(a + 1, hi + 1)

    x = rng.randrange(prof.x_min, prof.x_max + 1)
    y = rng.randrange(prof.y_min, prof.y_max + 1)
    run = rng.choice(runs_at(prof, y))
    return (
        Transmitter("v", x, short(*prof.cross_section(x))),
        Transmitter("h", y, short(*run)),
        Transmitter("v", x, short(prof.y_min, prof.y_max)),
        Transmitter("h", y, short(prof.x_min, prof.x_max)),
    )


def reference_inside(ring, s: Transmitter) -> bool:
    """Whether s lies in the closed polygon, decided on the ring, not on the
    profile: each half-unit point along it is on an edge or, moved a quarter
    unit off every edge line, inside by point_inside (on the ring doubled)."""
    ring2 = [(2 * x, 2 * y) for x, y in ring]
    boxes = [(min(a, c), max(a, c), min(b, d), max(b, d)) for (a, b), (c, d) in ring_edges(ring2)]
    for t in range(2 * s.span[0], 2 * s.span[1] + 1):
        qx, qy = (2 * s.anchor, t) if s.orientation == "v" else (t, 2 * s.anchor)
        on_edge = any(x1 <= qx <= x2 and y1 <= qy <= y2 for x1, x2, y1, y2 in boxes)
        if not on_edge and not point_inside(ring2, 2 * qx + 1, 2 * qy + 1):
            return False
    return True


def as_reference(prof, r):
    """r in the form the reference finders report: its members as the
    Transmitters they stand for (member_transmitter) and its cut as the line
    prof.xs[r.cut]."""
    second = None if r.second is None else member_transmitter(prof, r.second)
    return replace(r, first=member_transmitter(prof, r.first), second=second, cut=prof.xs[r.cut])


def finders_for(p):
    """Both finders' first round on p, from column 0, in reference form."""
    sweep = SweepTables(p.profile)
    return as_reference(p.profile, vh_finder(sweep, 0)), as_reference(p.profile, hv_finder(sweep, 0))


class TestFinders:
    def test_rect(self, polys):
        vh, hv = finders_for(polys["RECT"])
        assert vh.first == T("v", 6, 0, 3) and vh.second is None
        assert hv.first == T("h", 0, 0, 6) and hv.second is None
        assert vh.cut == hv.cut == 6

    def test_valley_single_vertical_suffices(self, polys):
        vh, hv = finders_for(polys["VALLEY"])
        assert vh.first == T("v", 6, 0, 3) and vh.cut == 6
        assert hv.first == T("h", 0, 0, 6) and hv.cut == 6

    def test_stair3(self, polys):
        vh, hv = finders_for(polys["STAIR3"])
        # the middle run alone covers; the vertical-first pair also finishes
        assert (vh.first, vh.second) == (T("v", 2, 0, 3), T("h", 2, 0, 6))
        assert vh.cut == 6
        assert hv.first == T("h", 2, 0, 6) and hv.second is None and hv.cut == 6

    def test_stair6_partial_progress(self, polys):
        vh, hv = finders_for(polys["STAIR6"])
        assert (vh.first, vh.second) == (T("v", 2, 0, 3), T("h", 4, 4, 10))
        assert vh.cut == 10
        assert (hv.first, hv.second) == (T("h", 2, 0, 6), T("v", 8, 3, 6))
        assert hv.cut == 10

    def test_gap7(self, polys):
        vh, hv = finders_for(polys["GAP7"])
        assert vh.first == T("v", 8, 0, 3) and vh.second is None and vh.cut == 14
        assert (hv.first, hv.second) == (T("h", 2, 0, 4), T("v", 12, 0, 3))
        assert hv.cut == 14

    def test_result_shape(self, polys):
        # Members in edge_aligned_family's index form; STAIR6's ordinates
        # are 0 .. 7, so its band indices equal its y-coordinates.
        sweep = SweepTables(polys["STAIR6"].profile)
        vh = vh_finder(sweep, 0)
        assert (vh.first, vh.second, vh.cut) == (("v", 1, 0, 3), ("h", 4, 2, 5), 5)
        assert vh.transmitters == (vh.first, vh.second)
        assert vh.count == 2
        single = vh_finder(SweepTables(polys["RECT"].profile), 0)
        assert (single.first, single.second) == (("v", 1, 0, 1), None)
        assert single.transmitters == (single.first,)
        assert single.count == 1

    @pytest.mark.parametrize("shapes", ["fixtures+corpus", "random"])
    def test_members_lie_inside(self, polys, shapes):
        # Every member a finder returns, at every cut, stands for a segment
        # inside P, and a vertical spans the whole cross-section on its line.
        if shapes == "random":
            todo = [px.random_monotone(40, h, w, seed=0) for h, w in ((20, 4), (8, 4), (300, 1))]
        else:
            todo = list(polys.values()) + [p for _, p in px.corpus(300)]
        for p in todo:
            prof = p.profile
            sweep = SweepTables(prof)
            for c in range(len(prof.spans)):
                for r in (vh_finder(sweep, c), hv_finder(sweep, c)):
                    for m in r.transmitters:
                        s = member_transmitter(prof, m)
                        assert segment_inside(prof, s), (c, m)
                        if m[0] == "v":
                            assert s.span == prof.cross_section(prof.xs[m[1]])
                        else:
                            assert prof.xs[c] <= s.span[0]

    def test_empty_remainder_rejected(self, polys):
        # right of the last breakpoint there is nothing to cover and no candidate
        prof = polys["RECT"].profile
        sweep = SweepTables(prof)
        with pytest.raises(ValueError, match="no usable vertical"):
            vh_finder(sweep, len(prof.spans))
        with pytest.raises(ValueError, match="no left-anchored horizontal"):
            hv_finder(sweep, len(prof.spans))

    def test_cut_column_out_of_range(self, polys):
        # c = -1 would otherwise read spans[-1], the last slab
        prof = polys["STAIR6"].profile
        sweep = SweepTables(prof)
        for finder in (vh_finder, hv_finder):
            for c in (-1, -len(prof.xs), len(prof.spans) + 1):
                with pytest.raises(ValueError, match=f"cut column {c} is outside 0 .. 6"):
                    finder(sweep, c)

    def test_hv_finder_without_vertical_candidates_raises(self, polys):
        # STAIR6's left-anchored run leaves cells uncovered, so the step needs
        # a vertical; the check must survive python -O, which strips asserts.
        # On a real profile the vertical right of the cut always qualifies, so
        # the bounds are made to say that none sees back to the run's end.
        prof = polys["STAIR6"].profile
        sweep = SweepTables(prof)
        sweep.bound = [len(prof.xs)] * len(prof.xs)
        for finder in (vh_finder, hv_finder):
            with pytest.raises(ValueError, match="no usable vertical"):
                finder(sweep, 0)

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
            for c, cut in enumerate(prof.xs[:-1]):
                current = cut_right(prof, cut)
                cands = edge_aligned_candidates(current)
                tables = finder_tables(current, cands)
                vh, hv = as_reference(prof, vh_finder(sweep, c)), as_reference(prof, hv_finder(sweep, c))
                assert vh == reference_vh_finder(current, cands, **tables)
                assert hv == reference_hv_finder(current, cands, **tables)


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

    @pytest.mark.parametrize(
        "seed, expected",
        [
            (
                26,
                {
                    "k": 2,
                    "solver": "approx",
                    "count": 7,
                    "transmitters": [
                        {"orientation": "v", "anchor": 9, "span": [2, 8]},
                        {"orientation": "v", "anchor": 39, "span": [1, 8]},
                        {"orientation": "v", "anchor": 81, "span": [0, 8]},
                        {"orientation": "h", "anchor": 1, "span": [0, 4]},
                        {"orientation": "h", "anchor": 2, "span": [94, 97]},
                        {"orientation": "h", "anchor": 3, "span": [57, 80]},
                        {"orientation": "h", "anchor": 6, "span": [22, 33]},
                    ],
                    "coverage": "complete",
                    "iterations": 4,
                },
            ),
            (
                14,
                {
                    "k": 2,
                    "solver": "approx",
                    "count": 6,
                    "transmitters": [
                        {"orientation": "v", "anchor": 12, "span": [1, 8]},
                        {"orientation": "v", "anchor": 52, "span": [0, 5]},
                        {"orientation": "v", "anchor": 91, "span": [0, 8]},
                        {"orientation": "h", "anchor": 6, "span": [17, 47]},
                        {"orientation": "h", "anchor": 6, "span": [59, 72]},
                        {"orientation": "h", "anchor": 7, "span": [72, 85]},
                    ],
                    "coverage": "complete",
                    "iterations": 3,
                },
            ),
        ],
    )
    def test_greedy_above_the_optimum(self, seed, expected):
        # The first 40-slab shapes where the greedy is not optimal (ratios
        # 7/4 and 6/4): the whole answer is frozen, and the exact optimum
        # checks the factor-2 bound and one round per optimal segment.
        p = px.random_monotone(40, 8, 4, seed)
        sol = approximate_2transmitters(p)
        assert sol.to_json_dict() == expected
        opt = exact_min_transmitters(p, 2).count
        assert opt == 4
        assert opt < sol.count <= 2 * opt
        assert sol.iterations <= opt

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
        # The tables and the check read the profile's walls in small
        # integers: no cell grid, region bitset, candidate family or
        # remainder profile is built, through any module's binding.
        p = px.random_monotone(40, 20, 4, seed=1) if name == "random40" else px.fixture(name)
        calls = Counter()

        def counted(owner, attr):
            fn = getattr(owner, attr)

            def wrapper(*args, **kwargs):
                calls[f"{owner.__name__}.{attr}"] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(owner, attr, wrapper)

        for module in (px.approx, px.candidates, px.exact, px.geometry, px.visibility):
            for attr in ("build_grid", "cut_right", "edge_aligned_candidates", "vis_region"):
                if hasattr(module, attr):
                    counted(module, attr)
        counted(CellGrid, "__init__")
        counted(SlabProfile, "__post_init__")
        sol = approximate_2transmitters(p)
        assert sol.coverage_complete
        assert not calls, calls

    @pytest.mark.parametrize("slabs, seed", [(40, 0), (40, 1), (40, 2), (40, 3), (400, 1)])
    def test_rows_scanned_only_for_verticals_the_bound_lets_through(
        self, monkeypatch, slabs, seed
    ):
        # A vertical's in-section rows are read at most once per solve, and
        # only when its bound does not already rule it out: on these
        # ladders that is fewer than half the verticals.
        scanned = Counter()
        scan = SweepTables._scan

        def counted(sweep, j):
            scanned[j] += 1
            return scan(sweep, j)

        monkeypatch.setattr(SweepTables, "_scan", counted)
        sol = approximate_2transmitters(px.random_monotone(slabs, 20, 4, seed))
        assert sol.coverage_complete
        assert set(scanned.values()) == {1}
        assert len(scanned) < slabs / 2

    @pytest.mark.parametrize("shapes", ["fixtures+corpus", "random"])
    def test_tables_match_oracle_regions(self, polys, shapes):
        # The three columns per vertical against the brute-force ring
        # oracle's region, and the run walk against runs_at at every column
        # pair.
        if shapes == "random":
            todo = [px.random_monotone(40, h, w, seed=0) for h, w in ((20, 4), (300, 1))]
            # tall and narrow: each slab brings its own ordinates, so most
            # rows lie outside any one vertical's cross-section
            todo.append(px.random_monotone(20, 3000, 1, seed=0))
        else:
            todo = list(polys.values()) + [p for _, p in px.corpus(300)]
        for p in todo:
            prof = p.profile
            sweep = SweepTables(prof)
            grid = build_grid(prof)
            for j in range(1, len(prof.xs)):
                x = prof.xs[j]
                seen = oracle_region_bits(p, T("v", x, *prof.cross_section(x)), 2, grid)
                cols = {ix for ix, _ in grid.iter_cells(grid.inside_mask & ~seen)}
                left = [ix for ix in cols if ix < j]
                right = [ix for ix in cols if ix >= j]
                reach, miss_lo, miss_hi = sweep.misses(j)
                assert reach == (max(left) + 1 if left else 0)
                assert miss_lo == (min(right) if right else None)
                assert miss_hi == (max(right) if right else None)
                assert sweep.bound[j] <= reach
            runs = {y: runs_at(prof, y) for y in prof.edge_ordinates}
            xs = prof.xs
            for c in range(len(prof.spans)):
                live = {y for span in prof.spans[c:] for y in span}
                for ix in range(c, len(prof.spans)):
                    y, lo, hi = max(
                        ((y, lo, hi) for y in live for lo, hi in runs[y] if lo <= xs[ix] < hi),
                        key=lambda run: (run[2], -run[0]),
                    )
                    run = Transmitter("h", y, (max(lo, xs[c]), hi))
                    member = sweep.furthest_run(c, ix)
                    assert member_transmitter(prof, member) == run
                    assert member[3] == xs.index(hi)

    def test_nearest_greater_exhaustive(self):
        # Every sequence of length <= 7 over {0, 1, 2}: ties are where the
        # one-pass stack has to borrow the tied top's answer.
        for n in range(8):
            for values in product(range(3), repeat=n):
                before = [
                    next((j for j in range(i - 1, -1, -1) if values[j] > v), -1)
                    for i, v in enumerate(values)
                ]
                after = [
                    next((j for j in range(i + 1, n) if values[j] > v), n)
                    for i, v in enumerate(values)
                ]
                assert _nearest_greater(values) == (before, after), values

    @pytest.mark.parametrize("name", ["STAIR6", "GAP7", "random400"])
    def test_only_the_answer_becomes_transmitters(self, monkeypatch, name):
        # The finders work in index-form members; a Transmitter is made
        # once per segment of the answer, after the loop.
        p = px.random_monotone(400, 20, 4, seed=1) if name == "random400" else px.fixture(name)
        calls = Counter()
        convert = px.approx.member_transmitter

        def counted(prof, m):
            calls[m] += 1
            return convert(prof, m)

        monkeypatch.setattr(px.approx, "member_transmitter", counted)
        sol = approximate_2transmitters(p)
        assert sol.coverage_complete
        assert sum(calls.values()) == sol.count
        assert set(calls.values()) == {1}


class TestContainment:
    """segment_inside, the one containment test, against the ring."""

    @staticmethod
    def box_segments(prof):
        """Every integer-ended segment in the bounding box."""
        for x in range(prof.x_min, prof.x_max + 1):
            for lo in range(prof.y_min, prof.y_max):
                for hi in range(lo + 1, prof.y_max + 1):
                    yield Transmitter("v", x, (lo, hi))
        for y in range(prof.y_min, prof.y_max + 1):
            for lo in range(prof.x_min, prof.x_max):
                for hi in range(lo + 1, prof.x_max + 1):
                    yield Transmitter("h", y, (lo, hi))

    def test_every_box_segment_matches_the_ring(self, polys):
        # A segment is inside when each of its unit pieces is, so the ring
        # reference runs once per unit piece.
        seen = Counter()
        for p in list(polys.values()) + [p for _, p in px.corpus(60)]:
            prof = p.profile
            unit = {}
            for s in self.box_segments(prof):
                o, a, (lo, hi) = s.orientation, s.anchor, s.span
                for t in range(lo, hi):
                    if (o, a, t) not in unit:
                        unit[o, a, t] = reference_inside(p.vertices, Transmitter(o, a, (t, t + 1)))
                want = all(unit[o, a, t] for t in range(lo, hi))
                assert segment_inside(prof, s) == want, s
                seen[o, want] += 1
        assert len(seen) == 4

    def test_family_and_off_family_match_the_ring(self):
        rng = random.Random(5)
        seen = Counter()
        for _, p in px.corpus(200):
            for s in edge_aligned_candidates(p.profile) + off_family(p, rng):
                want = reference_inside(p.vertices, s)
                assert segment_inside(p.profile, s) == want, s
                seen[want] += 1
        assert seen[True] > 0 and seen[False] > 0

    def test_run_covering_matches_the_run_scan(self, polys):
        # The bisected run against the first of runs_at's runs that holds
        # [x_lo, x_hi], at every (half-)integer ordinate and every pair of
        # integer ends from one left of the box to one right of it.
        for p in list(polys.values()) + [p for _, p in px.corpus(60, seed0=700)]:
            prof = p.profile
            ends = range(prof.x_min - 1, prof.x_max + 2)
            for y2 in range(2 * prof.y_min - 2, 2 * prof.y_max + 3):
                y = y2 / 2 if y2 % 2 else y2 // 2
                runs = runs_at(prof, y)
                for x_lo in ends:
                    for x_hi in ends[x_lo - ends[0] :]:
                        want = next((r for r in runs if r[0] <= x_lo and x_hi <= r[1]), None)
                        assert prof.run_covering(y, x_lo, x_hi) == want, (y, x_lo, x_hi)

    def test_horizontal_check_reads_only_the_slabs_it_meets(self):
        # A unit segment on a 2,000-slab run: segment_inside reads its one
        # slab, while run_covering walks the whole run to return it.
        class Counted(tuple):
            reads = 0

            def __getitem__(self, i):
                got = super().__getitem__(i)
                Counted.reads += len(got) if isinstance(i, slice) else 1
                return got

            def __iter__(self):
                Counted.reads += len(self)
                return super().__iter__()

        n = 2000
        prof = SlabProfile(tuple(range(n + 1)), Counted((0, 2 + i % 2) for i in range(n)))
        Counted.reads = 0
        assert segment_inside(prof, T("h", 0, 700, 701))
        assert Counted.reads == 1
        assert prof.run_covering(0, 700, 701) == (0, n)
        assert Counted.reads > n

    def test_valley_crossing_the_notch(self, polys):
        p = polys["VALLEY"]
        for s, inside in (
            (T("v", 3, 0, 3), False),
            (T("h", 2, 0, 6), False),
            (T("h", 1, 0, 6), True),
        ):
            assert segment_inside(p.profile, s) == inside == reference_inside(p.vertices, s)
            assert Solution.build(p, (s,), 2, "approx", 1).coverage_complete == inside

    def test_every_answer_lies_inside(self, polys):
        for p in list(polys.values()) + [p for _, p in px.corpus(300)]:
            sols = [approximate_2transmitters(p)]
            sols += [exact_min_transmitters(p, k) for k in (0, 1, 2)]
            for sol in sols:
                assert sol.coverage_complete
                assert all(segment_inside(p.profile, t) for t in sol.transmitters)


class TestSolution:
    def test_build_verifies_coverage(self, polys):
        p = polys["VALLEY"]
        good = Solution.build(p, (T("h", 1, 0, 6),), 2, "approx", 1)
        assert good.coverage_complete
        bad = Solution.build(p, (T("v", 0, 0, 3),), 0, "approx", 1)
        assert not bad.coverage_complete

    def test_build_reads_any_iterable_once(self, polys):
        # A one-shot iterator or a list gives the tuple's Solution: the
        # containment and band checks both see every segment, and the
        # Solution keeps a tuple, which a tuple passes through as itself.
        cases = [(polys["VALLEY"], (T("v", 0, 0, 3),))]
        cases += [(polys[name], approximate_2transmitters(polys[name]).transmitters)
                  for name in ("STAIR6", "GAP7")]
        for p, txs in cases:
            want = Solution.build(p, txs, 2, "approx", 1)
            assert want.coverage_complete and want.transmitters is txs
            for given in (iter(txs), list(txs)):
                got = Solution.build(p, given, 2, "approx", 1)
                assert got == want
                assert got.to_json_dict() == want.to_json_dict()

    def test_build_refines_the_grid_for_interior_segments(self, polys):
        # a transmitter through cell interiors still verifies exactly,
        # because build refines the grid with its coordinates
        p = polys["RECT"]
        mid = Solution.build(p, (T("h", 1, 0, 6),), 0, "approx", 1)
        assert mid.coverage_complete
        short = Solution.build(p, (T("v", 3, 1, 2),), 0, "approx", 1)
        assert not short.coverage_complete

    @pytest.mark.parametrize("shapes", ["fixtures+corpus", "random"])
    def test_band_check_matches_bitset_oracle(self, polys, shapes):
        # Every solution, with segments off the family's lines added, and
        # every drop-one subset of it, at each k: complete and incomplete
        # sets alike.  canonicalize_solution's flag uses the same check.  A
        # set whose regions cover but with a segment outside the polygon is
        # not covering; some subsets must be of that kind.
        rng = random.Random(11)
        outside_only = 0
        if shapes == "random":
            todo = [
                px.random_monotone(slabs, h, w, seed)
                for slabs in (10, 40)
                for h, w in ((20, 4), (300, 1))
                for seed in range(2)
            ]
        else:
            todo = list(polys.values()) + [p for _, p in px.corpus(300)]
        for p in todo:
            sols = [approximate_2transmitters(p).transmitters]
            if shapes != "random":
                sols += [exact_min_transmitters(p, k).transmitters for k in (0, 2)]
            for sol in sols:
                canon, feasible = canonicalize_solution(sol, p)
                assert feasible == reference_covers(p, canon, 2)
                full = sol + off_family(p, rng)
                inside = {t: reference_inside(p.vertices, t) for t in full}
                for subset in [full] + [full[:i] + full[i + 1 :] for i in range(len(full))]:
                    for k in (0, 1, 2):
                        regions = reference_covers(p, subset, k)
                        want = regions and all(inside[t] for t in subset)
                        outside_only += regions and not want
                        assert segments_cover(p.profile, subset, k) == want, (subset, k)
                        assert Solution.build(p, subset, k, "approx", 1).coverage_complete == want
        assert outside_only > 0

    def test_segments_outside_the_polygon_are_uncovered(self, polys):
        # Outside the bounding box, alone or beside a segment inside: the
        # grid reference cannot cut there and raises, the verifier says
        # "not covering".
        p = polys["STAIR6"]
        ok = T("v", 8, 3, 6)
        bad = [
            Transmitter("v", 4, (3, 15)),  # above the box
            Transmitter("h", -1, (0, 4)),  # below the box
            Transmitter("h", 2, (0, 20)),  # right of the box
            Transmitter("v", -2, (1, 2)),  # left of the box
        ]
        for s in bad:
            for segs in ((s,), (ok, s), (s, ok)):
                with pytest.raises(ValueError, match="outside"):
                    reference_covers(p, segs, 2)
                assert not segments_cover(p.profile, segs, 2)
                assert not Solution.build(p, segs, 2, "approx", 1).coverage_complete
        for k in (3, -1, True, 2.0):
            with pytest.raises(ValueError, match="k must be 0, 1 or 2"):
                reference_covers(p, (ok,), k)
            with pytest.raises(ValueError, match="k must be 0, 1 or 2"):
                Solution.build(p, (ok,), k, "approx", 1)
            # no region is computed, so nothing reads k
            assert not Solution.build(p, (), k, "approx", 1).coverage_complete
            assert not reference_covers(p, (), k)

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
