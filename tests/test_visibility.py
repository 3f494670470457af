import random
from bisect import bisect_left, bisect_right
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import polytx as px
from polytx import (
    Transmitter,
    approx,
    build_grid,
    edge_aligned_candidates,
    vis_region,
    visibility,
)
from polytx.candidates import HORIZONTAL, edge_aligned_family, member_transmitter
from polytx.approx import SweepTables
from polytx.visibility import member_bits, reach, reach_at, segments_cover

from oracles import (
    cell_area,
    cell_rep,
    cell_rects,
    covered_area,
    is_inside,
    mirror_transmitter,
    mirrored,
    oracle_region_bits,
    percell_region_bits,
    percolumn_inside_between,
    point_inside,
    profile_area,
    runs_at,
)


def T(o: str, anchor: int, lo: int, hi: int) -> Transmitter:
    return Transmitter(o, anchor, (lo, hi))


def region_for(p, s, k):
    grid = build_grid(p.profile)
    return vis_region(s, k, grid), grid


def sees(p, s, k, point):
    """Whether vis_region covers the grid cell whose interior holds point."""
    r, g = region_for(p, s, k)
    px_, py_ = point
    (cell,) = [
        (ix, iy)
        for ix, iy in g.iter_cells(g.inside_mask)
        if (b := g.cell_bounds(ix, iy))[0] < px_ < b[2] and b[1] < py_ < b[3]
    ]
    return cell in set(g.iter_cells(r))


class TestSeesPoint:
    def test_valley_left_wall(self, polys):
        p = polys["VALLEY"]
        s = T("v", 0, 0, 3)
        rep = (5, 2)  # the cell right of the notch, above its floor
        assert sees(p, s, 2, rep)
        assert not sees(p, s, 1, rep)
        assert not sees(p, s, 0, rep)

    def test_foot_must_be_on_the_closed_span(self, polys):
        # a left-wall segment ending at y=1 sees the rows below it, none above
        p = polys["VALLEY"]
        s = Transmitter("v", 0, (0, 1))
        assert sees(p, s, 2, (5, 0.5))
        assert not sees(p, s, 2, (5, 2))
        r, g = region_for(p, s, 2)
        assert sorted(g.iter_cells(r)) == [(0, 0), (1, 0), (2, 0)]

    def test_bad_k_rejected(self, polys):
        g = build_grid(polys["RECT"].profile)
        with pytest.raises(ValueError):
            vis_region(T("v", 0, 0, 3), 3, g)


class TestVisRegion:
    def test_valley_k0_blocked_by_the_notch(self, polys):
        p = polys["VALLEY"]
        r, g = region_for(p, T("v", 0, 0, 3), 0)
        assert sorted(g.iter_cells(r)) == [(0, 0), (0, 1), (1, 0), (2, 0)]
        assert cell_area(g, r) == 10  # everything but the right wall's top
        assert r != g.inside_mask

    def test_valley_k2_sees_everything(self, polys):
        p = polys["VALLEY"]
        r, g = region_for(p, T("v", 0, 0, 3), 2)
        assert r == g.inside_mask

    def test_gap7_center_column(self, polys):
        p = polys["GAP7"]
        counts = {}
        for k in (0, 1, 2):
            r, g = region_for(p, T("v", 8, 0, 3), k)
            counts[k] = r.bit_count()
        assert counts == {0: 7, 1: 10, 2: 13}
        assert g.inside_mask.bit_count() == 13

    def test_horizontal_covers_exactly_its_columns(self, polys, small_corpus):
        # a horizontal segment sees the full columns it spans, at every k
        for p in list(polys.values()) + small_corpus[:20]:
            g = build_grid(p.profile)
            for s in edge_aligned_candidates(p.profile):
                if s.orientation != "h":
                    continue
                expect = g.inside_mask_between(s.span[0], s.span[1])
                for k in (0, 1, 2):
                    assert vis_region(s, k, g) == expect

    def test_k_is_monotone(self, polys, small_corpus):
        for p in list(polys.values()) + small_corpus[:20]:
            g = build_grid(p.profile)
            for s in edge_aligned_candidates(p.profile):
                r0 = vis_region(s, 0, g)
                r1 = vis_region(s, 1, g)
                r2 = vis_region(s, 2, g)
                assert r0 & ~r1 == 0
                assert r1 & ~r2 == 0

    def test_segment_sees_itself(self, polys, small_corpus):
        # every inside cell the segment touches is visible at k=0
        for p in list(polys.values()) + small_corpus[:10]:
            g = build_grid(p.profile)
            for s in edge_aligned_candidates(p.profile):
                cells = set(g.iter_cells(vis_region(s, 0, g)))
                lo, hi = s.span
                for ix, iy in g.iter_cells(g.inside_mask):
                    x1, y1, x2, y2 = g.cell_bounds(ix, iy)
                    if s.orientation == "v":
                        touches = x1 <= s.anchor <= x2 and y1 < hi and y2 > lo
                    else:
                        touches = y1 <= s.anchor <= y2 and x1 < hi and x2 > lo
                    if touches:
                        assert (ix, iy) in cells

    def test_matches_brute_force_oracle(self, polys, small_corpus):
        for p in list(polys.values()) + small_corpus[:15]:
            g = build_grid(p.profile)
            for s in edge_aligned_candidates(p.profile):
                for k in (0, 1, 2):
                    assert vis_region(s, k, g) == oracle_region_bits(
                        p, s, k, g
                    )

    def test_mirror_symmetry(self, polys):
        for p in polys.values():
            q = mirrored(p)
            gq = build_grid(q.profile)
            gp = build_grid(p.profile)
            for s in edge_aligned_candidates(p.profile):
                for k in (0, 2):
                    rp = vis_region(s, k, gp)
                    rq = vis_region(mirror_transmitter(s), k, gq)
                    flipped = {
                        (-x2, y1, -x1, y2) for (x1, y1, x2, y2) in cell_rects(gp, rp)
                    }
                    assert cell_rects(gq, rq) == flipped

    def test_unaligned_segment_rejected(self, polys):
        # RECT's grid has cuts x in {0, 6} and y in {0, 3} only.  The
        # anchor is checked before the span ends.
        g = build_grid(polys["RECT"].profile)
        for s, what in (
            (Transmitter("v", 3, (0, 3)), "anchor"),
            (Transmitter("v", 3, (1, 2)), "anchor"),
            (Transmitter("v", 0, (1, 3)), "span endpoint"),
            (Transmitter("v", 0, (0, 2)), "span endpoint"),
            (Transmitter("h", 1, (0, 6)), "anchor"),
            (Transmitter("h", 1, (2, 4)), "anchor"),
            (Transmitter("h", 0, (2, 6)), "span endpoint"),
            (Transmitter("h", 0, (0, 3)), "span endpoint"),
        ):
            message = f"^transmitter {what} is not on a grid cut; refine the grid first$"
            with pytest.raises(ValueError, match=message):
                vis_region(s, 2, g)

    def test_bad_k_rejected(self, polys):
        g = build_grid(polys["RECT"].profile)
        for k in (-1, 1.0, True):
            with pytest.raises(ValueError, match="k must be 0, 1 or 2"):
                vis_region(T("v", 0, 0, 3), k, g)


class TestRegions:
    def test_area_and_cells(self, polys):
        p = polys["VALLEY"]
        g = build_grid(p.profile)
        full = g.inside_mask
        assert cell_area(g, full) == profile_area(p.profile)
        assert full.bit_count() == 5
        assert len(list(g.iter_cells(full))) == 5


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6), data=st.data())
def test_any_candidate_matches_oracle(seed, data):
    p = px.random_monotone(slabs=4, max_height=5, max_width=3, seed=seed)
    fam = edge_aligned_candidates(p.profile)
    s = data.draw(st.sampled_from(fam))
    k = data.draw(st.sampled_from((0, 1, 2)))
    g = build_grid(p.profile)
    assert vis_region(s, k, g) == oracle_region_bits(p, s, k, g)


def test_any_integer_line_matches_oracle(polys):
    # A cut or a transmitter may lie on any integer line in the bounding
    # box, not only on a breakpoint or an edge ordinate: say the vertical
    # x=1 in VALLEY, inside its first slab.  vis_region on the grid refined
    # with the segment's lines and segments_cover, alone and paired with
    # each family member, agree with the brute-force oracle.
    p = polys["VALLEY"]
    prof = p.profile
    segs = []
    for x in range(prof.x_min, prof.x_max + 1):
        lo, hi = prof.cross_section(x)
        segs += [Transmitter("v", x, span) for span in combinations(range(lo, hi + 1), 2)]
    for y in range(prof.y_min, prof.y_max + 1):
        for lo, hi in runs_at(prof, y):
            segs += [Transmitter("h", y, span) for span in combinations(range(lo, hi + 1), 2)]
    assert T("v", 1, 0, 3) in segs and T("h", 2, 0, 1) in segs
    family = edge_aligned_candidates(prof)
    for s in segs:
        lines = ([s.anchor], s.span) if s.orientation == "v" else (s.span, [s.anchor])
        g = build_grid(prof, *lines)
        for k in (0, 1, 2):
            assert vis_region(s, k, g) == oracle_region_bits(p, s, k, g)
            for segments in [(s,)] + [(s, t) for t in family]:
                want = covered_area(p, segments, k)
                assert segments_cover(prof, segments, k) == want, (segments, k)


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize(
    "spans, want",
    [
        (((0, 3), (3, 6)), True),
        (((0, 3), (2, 6)), True),
        (((0, 2), (3, 6)), False),
        (((0, 3),), False),
    ],
)
def test_horizontals_merge_before_slabs(polys, spans, want, k):
    # RECT is one slab, x 0 to 6.  Two horizontals that meet or overlap
    # hold it together though neither holds it alone, so segments_cover
    # must merge their spans before it asks which slabs a span holds.
    segments = tuple(T("h", y, *span) for y, span in zip((1, 2), spans))
    assert segments_cover(polys["RECT"].profile, segments, k) is want


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6), data=st.data())
def test_refined_grid_matches_oracle(seed, data):
    # render --vis, oracles.dense_exact and oracles.reference_covers run the
    # kernel on grids refined with extra cuts, where row and column ranges
    # end on non-wall cuts and a band of row_walls holds several rows.
    p = px.random_monotone(slabs=4, max_height=5, max_width=3, seed=seed)
    prof = p.profile
    extra_x = data.draw(st.lists(st.integers(prof.x_min, prof.x_max), max_size=3))
    extra_y = data.draw(st.lists(st.integers(prof.y_min, prof.y_max), max_size=3))
    g = build_grid(prof, extra_x, extra_y)
    for ix in range(g.nx):
        for iy in range(g.ny):
            assert is_inside(g, ix, iy) == point_inside(p.vertices, *cell_rep(g, ix, iy))
    segs = list(edge_aligned_candidates(prof))
    for x in extra_x:
        lo, hi = prof.cross_section(x)
        segs.append(Transmitter("v", x, (lo, hi)))
        for y in extra_y:
            if lo < y < hi:
                segs += [Transmitter("v", x, (lo, y)), Transmitter("v", x, (y, hi))]
    for y in extra_y:
        segs.extend(Transmitter("h", y, run) for run in runs_at(prof, y))
    for s in segs:
        for k in (0, 1, 2):
            assert vis_region(s, k, g) == oracle_region_bits(p, s, k, g)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_matches_percell_reference_at_40_slabs(seed):
    # Brute force is too slow here; the per-cell loop is the reference.
    p = px.random_monotone(40, 20, 4, seed=seed)
    prof = p.profile
    g = build_grid(prof)
    for s in edge_aligned_candidates(prof):
        for k in (0, 1, 2):
            assert vis_region(s, k, g) == percell_region_bits(s, k, g)
    # Refined with random cuts, each band holds several rows, and
    # verticals off the family start and end inside bands.
    rng = random.Random(seed)
    xs = range(prof.x_min, prof.x_max + 1)
    ys = range(prof.y_min, prof.y_max + 1)
    g = build_grid(prof, rng.sample(xs, 20), rng.sample(ys, min(10, len(ys))))
    for x in g.x_cuts:
        lo, hi = prof.cross_section(x)
        inner = [y for y in g.y_cuts if lo <= y <= hi]
        s = Transmitter("v", x, tuple(sorted(rng.sample(inner, 2))))
        for k in (0, 1, 2):
            assert vis_region(s, k, g) == percell_region_bits(s, k, g)


def test_inside_mask_between_matches_percolumn_reference(polys, small_corpus):
    for p in list(polys.values()) + small_corpus[:5]:
        prof = p.profile
        for g in (build_grid(prof), build_grid(prof, (prof.x_min + 1,), (prof.y_max - 1,))):
            mids = [(a + b) / 2 for a, b in zip(g.x_cuts, g.x_cuts[1:])]
            ends = [g.x_cuts[0] - 1, g.x_cuts[-1] + 1, *g.x_cuts, *mids]
            for x_lo in ends:
                for x_hi in ends:
                    assert g.inside_mask_between(x_lo, x_hi) == percolumn_inside_between(
                        g, x_lo, x_hi
                    )


@pytest.mark.parametrize("k", [0, 1, 2])
def test_member_bits_match_vis_region_on_the_plain_grid(k):
    # The exact solver's grid-free bitsets, cell for cell, against one
    # vis_region per family member (its Transmitter view) on build_grid's
    # (slab, band) cells.
    shapes = [px.fixture(name) for name in px.FIXTURES]
    shapes += [p for _, p in px.corpus(200)]
    shapes += [
        px.random_monotone(slabs, 8, 4, seed)
        for slabs in (14, 20, 40, 80)
        for seed in range(4)
    ]
    for p in shapes:
        prof = p.profile
        family = edge_aligned_family(prof)
        grid = build_grid(prof)
        bits, inside = member_bits(prof, family, k)
        view = [member_transmitter(prof, m) for m in family]
        assert bits == [vis_region(t, k, grid) for t in view]
        assert inside == grid.inside_mask


# member_bits as it was before the per-run build: one reach per (vertical,
# band of its section), consecutive bands with the same range as one block.
# Kept here, not in oracles.py, because bench/run.py imports oracles.py.
def band_member_bits(prof, family, k):
    rows, spans = prof.row_walls, prof.span_bands
    slabs, bands = len(spans), len(rows)
    row_ones = ((1 << slabs * bands) - 1) // ((1 << bands) - 1)
    inside = 0
    for i, (lo, hi) in enumerate(spans):
        inside |= (1 << i * bands + hi) - (1 << i * bands + lo)
    bits = []
    for orientation, j, r, stop in family:
        if orientation == HORIZONTAL:
            bits.append(inside & (1 << stop * bands) - (1 << r * bands))
            continue
        seen, ab = 0, reach(rows[r], j, j + 1, k, slabs)
        while r < stop:
            start, (a, b) = r, ab
            r += 1
            while r < stop and (ab := reach(rows[r], j, j + 1, k, slabs)) == (a, b):
                r += 1
            seen |= ((1 << r) - (1 << start)) * row_ones & (1 << b * bands) - (1 << a * bands)
        bits.append(seen & inside)
    return bits, inside


@pytest.mark.parametrize("k", [0, 1, 2])
def test_member_bits_match_the_per_band_build(k):
    # The per-run build against one reach per (vertical, band), on the
    # corpus and on 1-80-slab shapes 3-60 high, one and four wide.
    shapes = [p for _, p in px.corpus(200)]
    shapes += [
        px.random_monotone(slabs, height, width, seed)
        for slabs in (1, 2, 3, 7, 20, 45, 80)
        for height in (3, 12, 60)
        for width in (1, 4)
        for seed in range(2)
    ]
    one_slab_runs = 0
    for p in shapes:
        prof = p.profile
        family = edge_aligned_family(prof)
        assert member_bits(prof, family, k) == band_member_bits(prof, family, k)
        one_slab_runs += sum(
            walls[w + 1] - walls[w] == 1 for walls in prof.row_walls for w in range(0, len(walls), 2)
        )
    # at odd k a one-slab run has two ends and no line between them
    assert one_slab_runs > 1000


@pytest.mark.parametrize("k", [-1, 3, 7, 1.0, True])
def test_member_bits_bad_k_rejected(k):
    prof = px.fixture("RECT").profile
    with pytest.raises(ValueError):
        member_bits(prof, edge_aligned_family(prof), k)


def test_reach_of_a_stretch_is_what_its_lines_see_together():
    # The before of one line and the upto of a line at or right of it give
    # the first line's left bound and the second's right bound, and the
    # range's inside slabs are those some line between them sees.  Lines
    # are numbered as in test_reach_ends_on_missed_inside_slabs.
    cases = 0
    for n in range(7):
        for size in range(0, n + 2, 2):
            for walls in combinations(range(n + 1), size):
                inside = {s for w in range(0, size, 2) for s in range(walls[w], walls[w + 1])}
                lines = sorted(
                    [(2 * j, j, j + 1) for j in range(n + 1)] + [(2 * j - 1, j, j) for j in range(1, n + 1)]
                )
                for k in (0, 1, 2):
                    ranges = [reach(walls, before, upto, k, n) for _, before, upto in lines]
                    for i, (_, before, _) in enumerate(lines):
                        together = set()
                        for m in range(i, len(lines)):
                            a, b = ranges[m]
                            together |= {s for s in inside if a <= s < b}
                            got = reach(walls, before, lines[m][2], k, n)
                            assert got == (ranges[i][0], b), (walls, i, m, k)
                            assert {s for s in inside if got[0] <= s < got[1]} == together
                            cases += 1
    assert cases > 10000


def test_reach_ends_on_missed_inside_slabs():
    # Every even-length wall list over breakpoints 0 .. n, n <= 7, and every
    # line on a breakpoint (upto = before + 1) or inside a slab (upto =
    # before).  In doubled coordinates the line is at x, slab s's middle at
    # 2s + 1 and wall w at 2w; a wall on the line is not crossed.
    cases = 0
    for n in range(8):
        for size in range(0, n + 2, 2):
            for walls in combinations(range(n + 1), size):
                inside = {s for w in range(0, size, 2) for s in range(walls[w], walls[w + 1])}
                lines = [(j, j + 1, 2 * j) for j in range(n + 1)]
                lines += [(j, j, 2 * j - 1) for j in range(1, n + 1)]
                for before, upto, x in lines:
                    crossings = {
                        s: sum(min(x, 2 * s + 1) < 2 * w < max(x, 2 * s + 1) for w in walls)
                        for s in inside
                    }
                    for k in (0, 1, 2):
                        a, b = reach(walls, before, upto, k, n)
                        case = (walls, before, upto, k, (a, b))
                        seen = {s for s in inside if crossings[s] <= k}
                        assert {s for s in inside if a <= s < b} == seen, case
                        assert a == 0 or a - 1 in inside and a - 1 not in seen, case
                        assert b == n or b in inside and b not in seen, case
                        cases += 1
    assert cases == 9993


@pytest.mark.parametrize("k", [0, 1, 2])
def test_reach_at_on_the_callers_counts_is_reach(monkeypatch, k):
    # The hot callers hand reach_at wall counts they derive without reach's
    # two bisections; each derivation must give reach's own range.  On the
    # corpus and on tall shapes (height 300, one wide).
    shapes = [p for _, p in px.corpus(200)]
    shapes += [px.random_monotone(slabs, 300, 1, seed) for slabs in (10, 40) for seed in range(2)]
    calls = []

    def spy(walls, *args):
        got = reach_at(walls, *args)
        calls.append((walls, got))
        return got

    def recorded(run):
        calls.clear()
        run()
        return calls[:]

    for p in shapes:
        prof = p.profile
        xs, end = prof.xs, len(prof.spans)
        # One bisection, every row and every line, on a breakpoint (before,
        # before + 1) or between two (before, before): j is i + 1 only when
        # the line is on a wall, which it does not cross.
        lines = [(b, b + 1) for b in range(end + 1)] + [(b, b) for b in range(1, end + 1)]
        for walls in prof.row_walls:
            for before, upto in lines:
                i = bisect_left(walls, before)
                j = i + 1 if upto > before and i < len(walls) and walls[i] == before else i
                assert reach_at(walls, i, j, k, end) == reach(walls, before, upto, k, end)
        with monkeypatch.context() as m:
            m.setattr(visibility, "reach_at", spy)
            m.setattr(approx, "reach_at", spy)
            # member_bits, per closed run lo .. hi: the range its breakpoints
            # see together and, at odd k, the lines between its ends
            got = recorded(lambda: member_bits(prof, edge_aligned_family(prof), k))
            want = []
            for walls in prof.row_walls:
                for lo, hi in zip(walls[::2], walls[1::2]):
                    want.append((walls, reach(walls, lo, hi + 1, k, end)))
                    if k & 1:
                        want.append((walls, reach(walls, lo + 1, hi, k, end)))
            assert got == want
            # segments_cover, one vertical over its whole section on every
            # line, and the sweep's in-section rows at k=2
            between = [x + 1 for x, nxt in zip(xs, xs[1:]) if nxt - x > 1]
            for x in [*xs, *between]:
                t = Transmitter("v", x, prof.cross_section(x))
                got = recorded(lambda: segments_cover(prof, [t], k))
                before, upto = bisect_left(xs, x), bisect_right(xs, x)
                assert got
                assert all(ab == reach(walls, before, upto, k, end) for walls, ab in got), x
            if k == 2:
                sweep = SweepTables(prof)
                for j in range(1, end + 1):
                    got = recorded(lambda: sweep._scan(j))
                    assert got
                    assert all(ab == reach(walls, j, j + 1, 2, end) for walls, ab in got), j
