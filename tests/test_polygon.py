import json
import random
from bisect import bisect_right

import pytest

import polytx as px
from polytx import InvalidPolygonError, build_grid, cut_right, validate
from polytx.geometry import profile_to_ring

from oracles import (
    cell_area,
    cell_rep,
    contains_point,
    first_cell,
    is_inside,
    notched,
    point_inside,
    profile_area,
    reference_row_walls,
    reference_vertical_edges,
    row_reps,
    runs_at,
    shoelace2,
)
from validation_oracles import reference_axis_edges, reference_slab_scan

RECT_RING = [(0, 0), (6, 0), (6, 3), (0, 3)]
VALLEY_RING = [(0, 0), (6, 0), (6, 3), (4, 3), (4, 1), (2, 1), (2, 3), (0, 3)]


class TestValidate:
    def test_rectangle(self):
        p = validate(RECT_RING)
        assert p.m == 2
        assert p.vertices == tuple(RECT_RING)
        assert (p.profile.xs, p.profile.spans) == ((0, 6), ((0, 3),))

    def test_valley_profile(self):
        p = validate(VALLEY_RING)
        assert p.m == 4
        assert (p.profile.xs, p.profile.spans) == ((0, 2, 4, 6), ((0, 3), (0, 1), (0, 3)))

    def test_clockwise_input_is_normalized(self):
        ccw = validate(RECT_RING)
        cw = validate(list(reversed(RECT_RING)))
        assert cw.vertices == ccw.vertices
        assert cw.profile == ccw.profile

    def test_collinear_vertices_are_merged(self):
        p = validate([(0, 0), (3, 0), (6, 0), (6, 3), (0, 3)])
        assert len(p.vertices) == 4
        assert p.profile == validate(RECT_RING).profile

    def test_start_vertex_may_be_mid_edge(self):
        p = validate([(3, 0), (6, 0), (6, 3), (0, 3), (0, 0)])
        assert p.profile == validate(RECT_RING).profile

    @pytest.mark.parametrize(
        "ring, reason",
        [
            ([(0, 0), (2, 2), (0, 2)], "non-orthogonal"),
            ([(0, 0), (6, 0), (3, 2), (0, 2)], "non-orthogonal"),
            ([(0, 0), (0, 0), (6, 0), (6, 3), (0, 3)], "degenerate-edge"),
            ([(0, 0), (6, 0), (8, 0), (6, 0), (6, 3), (0, 3)], "self-intersecting"),
            # pinched ring: vertex (2,2) is visited twice
            ([(0, 0), (2, 0), (2, 2), (4, 2), (4, 4), (2, 4), (2, 2), (0, 2)], "duplicate-vertex"),
            # C-shape: the line x=2 meets the interior in two intervals
            ([(0, 0), (3, 0), (3, 1), (1, 1), (1, 2), (3, 2), (3, 3), (0, 3)], "not-monotone"),
            ([(0, 0), (2 * 10**6, 0), (2 * 10**6, 3), (0, 3)], "out-of-range"),
        ],
    )
    def test_rejects_with_reason(self, ring, reason):
        with pytest.raises(InvalidPolygonError) as exc:
            validate(ring)
        assert exc.value.reason == reason

    def test_coordinate_limit_is_inclusive(self):
        lim = 10**6
        p = validate([(lim - 6, -lim), (lim, -lim), (lim, lim), (lim - 6, lim)])
        assert p.profile.xs == (lim - 6, lim)

    def test_error_carries_vertex_index(self):
        with pytest.raises(InvalidPolygonError) as exc:
            validate([(0, 0), (6, 0), (8, 0), (6, 0), (6, 3), (0, 3)])
        assert exc.value.index == 2


# Diagnoses frozen from the all-pairs validator
# (validation_oracles.reference_validate).  A ring the chain walk rejects
# goes to the contact check, and is named not-monotone only when the check
# passes.  Every ring here fails the accepting scan
# (validation_oracles.reference_slab_scan, with scan_message) and must still
# report what the scan-first order reported.  That scan's span checks (made by
# SlabProfile) and ring comparison only ever fire on rings that also
# self-intersect.
DIAGNOSES = [
    pytest.param(
        [(2, 1), (9, 1), (9, 2), (0, 2), (0, 1), (4, 1), (4, 0), (2, 0)],
        "a vertical line over [2,4] meets 4 horizontal edges (want 2)",
        "self-intersecting", 0, "horizontal edges 0 and 4 overlap",
        id="horizontal-overlap",
    ),
    pytest.param(
        [(0, 1), (0, 5), (3, 5), (3, 6), (0, 6), (0, 0), (3, 0), (3, 1)],
        "a vertical line over [0,3] meets 4 horizontal edges (want 2)",
        "self-intersecting", 0, "vertical edges 0 and 4 overlap",
        id="vertical-overlap",
    ),
    pytest.param(
        [(-5, 1), (-5, 0), (3, 0), (3, 2), (4, 2), (4, 1)],
        "region is not a left-to-right slab stack",
        "self-intersecting", 2, "edges 2 and 5 cross or touch",
        id="cross-or-touch",
    ),
    pytest.param(
        [(0, 6), (3, 6), (3, 7), (1, 7), (1, 8), (3, 8), (3, 9), (0, 9)],
        "a vertical line over [1,3] meets 4 horizontal edges (want 2)",
        "not-monotone", 4, "a vertical line over [1,3] meets 4 horizontal edges (want 2)",
        id="wrong-spanning-count",
    ),
    pytest.param(
        # SlabProfile rejects the scanned spans here too.
        [(1, 4), (1, 0), (4, 0), (4, 3), (1, 3), (1, 5), (0, 5), (0, 4)],
        "adjacent slab spans must intersect",
        "self-intersecting", 0, "edges 0 and 3 cross or touch",
        id="interior-disconnects",
    ),
    pytest.param(
        [(1, 4), (1, 2), (5, 2), (5, 1), (3, 1), (3, 4)],
        "region is not a left-to-right slab stack",
        "self-intersecting", 1, "edges 1 and 4 cross or touch",
        id="not-a-slab-stack",
    ),
    pytest.param(
        # SlabProfile itself raises a plain ValueError on the scanned spans.
        [(0, 0), (3, 0), (3, 5), (5, 5), (5, 3), (8, 3), (8, 5), (0, 5)],
        "slab span must have positive height",
        "self-intersecting", 1, "edges 1 and 6 cross or touch",
        id="zero-height-span",
    ),
    pytest.param(
        [(0, 9), (3, 9), (3, 10), (-1, 10), (-1, 11), (3, 11), (3, 12), (0, 12)],
        "a vertical line over [0,3] meets 4 horizontal edges (want 2)",
        "self-intersecting", 2, "edges 2 and 7 cross or touch",
        id="self-intersecting-and-not-monotone",
    ),
]


def count_pairwise_scans(monkeypatch) -> list[int]:
    """Count the contact checks a rejected ring gets and the sweeps they
    make, as [checks, sweeps].  A check sweeps once to find whether any
    pair of edges touches, and names the pair (a second sweep, then a scan
    for the partner) only when one does."""
    calls = [0, 0]
    check, sweep = px.geometry._check_simple, px.geometry._crowded

    def counting_check(xs, ys):
        calls[0] += 1
        return check(xs, ys)

    def counting_sweep(a, b):
        calls[1] += 1
        return sweep(a, b)

    monkeypatch.setattr(px.geometry, "_check_simple", counting_check)
    monkeypatch.setattr(px.geometry, "_crowded", counting_sweep)
    return calls


class TestDiagnoses:
    @pytest.mark.parametrize("ring, scan_message, reason, index, message", DIAGNOSES)
    def test_reason_index_and_message(self, ring, scan_message, reason, index, message):
        with pytest.raises(InvalidPolygonError) as exc:
            validate(ring)
        assert (exc.value.reason, exc.value.index, str(exc.value)) == (reason, index, message)

    @pytest.mark.parametrize("ring, scan_message, reason, index, message", DIAGNOSES)
    def test_slab_scan_rejects_first(self, monkeypatch, ring, scan_message, reason, index, message):
        # Counter-clockwise rings with no collinear vertices: validate hands
        # the chain walk, and the sweep after it, the ring unchanged.
        with pytest.raises(ValueError) as exc:
            reference_slab_scan(ring, reference_axis_edges(ring)[0])
        assert str(exc.value) == scan_message
        # The library only names the fault: the reference's own not-monotone
        # error, or for SlabProfile's plain ValueError the one validate
        # turned it into.
        want = exc.value
        if not isinstance(want, InvalidPolygonError):
            want = InvalidPolygonError("not-monotone", "region is not a left-to-right slab stack")
        # It names the slab its x-sweep found, after the contact verdict,
        # which is set aside here so that every ring reaches the naming.
        sweep = px.geometry._crowded
        monkeypatch.setattr(px.geometry, "_check_simple", lambda xs, ys: sweep(xs, ys)[1])
        with pytest.raises(InvalidPolygonError) as got:
            validate(ring)
        fault = got.value
        assert (fault.reason, fault.index, str(fault)) == (want.reason, want.index, str(want))

    @pytest.mark.parametrize("ring, scan_message, reason, index, message", DIAGNOSES)
    def test_pairwise_scan_runs_only_on_contact(
        self, monkeypatch, ring, scan_message, reason, index, message
    ):
        calls = count_pairwise_scans(monkeypatch)
        with pytest.raises(InvalidPolygonError) as exc:
            validate(ring)
        assert (exc.value.reason, exc.value.index, str(exc.value)) == (reason, index, message)
        assert calls == [1, 2 if reason == "self-intersecting" else 1]

    def test_notched_400_slabs_skips_the_pairwise_scan(self, monkeypatch):
        calls = count_pairwise_scans(monkeypatch)
        ring = notched(list(px.random_monotone(400, 20, 4, seed=1).vertices))
        with pytest.raises(InvalidPolygonError) as exc:
            validate(ring)
        assert exc.value.reason == "not-monotone"
        assert calls == [1, 1]

    def test_not_monotone_reject_sweeps_its_edges_once(self, monkeypatch):
        # The x-sweep that finds no contact has also counted the horizontals
        # over every slab, so a not-monotone reject sweeps its coordinate
        # lists once and never lists its edges; only a contact to be named
        # lists them, once.
        calls = {"edges": 0, "sweeps": 0}
        edges, sweep = px.geometry._axis_edges, px.geometry._crowded

        def counting_edges(xs, ys):
            calls["edges"] += 1
            return edges(xs, ys)

        def counting_sweep(a, b):
            calls["sweeps"] += 1
            return sweep(a, b)

        monkeypatch.setattr(px.geometry, "_axis_edges", counting_edges)
        monkeypatch.setattr(px.geometry, "_crowded", counting_sweep)
        rings = [DIAGNOSES[3].values[0]]
        for slabs in (40, 400):
            base = list(px.random_monotone(slabs, 20, 4, seed=1).vertices)
            rings += [notched(base), notched(base, depth=2)]
        for ring in rings:
            calls.update(edges=0, sweeps=0)
            with pytest.raises(InvalidPolygonError) as exc:
                validate(ring)
            assert exc.value.reason == "not-monotone"
            assert calls == {"edges": 0, "sweeps": 1}
        calls.update(edges=0, sweeps=0)
        with pytest.raises(InvalidPolygonError) as exc:
            validate(DIAGNOSES[2].values[0])
        assert exc.value.reason == "self-intersecting"
        assert calls == {"edges": 1, "sweeps": 2}

    def test_notched_4000_slabs_names_the_first_contact(self):
        # Frozen from the earlier all-pairs scan; the reference is quadratic here.
        ring = notched(list(px.random_monotone(4000, 20, 4, seed=1).vertices), depth=12000)
        assert len(ring) == 14082
        with pytest.raises(InvalidPolygonError) as exc:
            validate(ring)
        assert (exc.value.reason, exc.value.index, str(exc.value)) == (
            "self-intersecting",
            4437,
            "edges 4437 and 7346 cross or touch",
        )

    def test_plain_value_error_becomes_not_monotone(self, monkeypatch):
        # No known simple ring makes the scan raise a plain ValueError, but
        # validate's documented error type must hold if one ever does.
        def scan(xs, ys):
            raise ValueError("adjacent slab spans must differ")

        monkeypatch.setattr(px.geometry, "_slab_stack", scan)
        with pytest.raises(InvalidPolygonError) as exc:
            validate(RECT_RING)
        assert (exc.value.reason, exc.value.index, str(exc.value)) == (
            "not-monotone",
            None,
            "region is not a left-to-right slab stack",
        )

    def test_400_slabs_accepted_and_notched_copy_rejected(self):
        p = px.random_monotone(400, 20, 4, seed=1)
        ring = list(p.vertices)
        again = validate(ring)
        assert len(again.vertices) == 1406
        assert (again.vertices, again.profile) == (p.vertices, p.profile)
        with pytest.raises(InvalidPolygonError) as exc:
            validate(notched(ring))
        assert (exc.value.reason, exc.value.index, str(exc.value)) == (
            "not-monotone",
            746,
            "a vertical line over [2957,2958] meets 4 horizontal edges (want 2)",
        )


class TestParsePolygon:
    def test_valid_document(self):
        p = px.parse_polygon(json.dumps({"vertices": RECT_RING}))
        assert p.vertices == tuple(RECT_RING)

    def test_integral_floats_accepted(self):
        p = px.parse_polygon('{"vertices": [[0,0],[6.0,0],[6,3],[0,3]]}')
        assert (p.profile.xs, p.profile.spans) == ((0, 6), ((0, 3),))

    @pytest.mark.parametrize(
        "text, reason",
        [
            ("{nope", "malformed-json"),
            ('{"vertices": 5}', "malformed-json"),
            ('{"points": [[0,0]]}', "malformed-json"),
            pytest.param("[" * 100000, "malformed-json", id="nested-too-deep"),
            ('{"vertices": [[0,0],[1.5,0],[1.5,1],[0,1]]}', "non-integer"),
            ('{"vertices": [[0,0],[2,2],[0,2]]}', "non-orthogonal"),
        ],
    )
    def test_rejects(self, text, reason):
        with pytest.raises(InvalidPolygonError) as exc:
            px.parse_polygon(text)
        assert exc.value.reason == reason


class TestSlabProfile:
    def test_gap7_profile(self, polys):
        prof = polys["GAP7"].profile
        xs, spans = prof.xs, prof.spans
        assert xs == (0, 2, 4, 6, 8, 10, 12, 14)
        assert spans == ((2, 3), (0, 3), (0, 1), (0, 3), (0, 1), (0, 3), (2, 3))

    def test_vertical_edges_sorted(self, polys, small_corpus):
        for p in list(polys.values()) + small_corpus:
            edges = reference_vertical_edges(p.profile)
            assert list(edges) == sorted(edges)
            for x, lo, hi in edges:
                assert lo < hi
            # the same edges the merged ring has
            ring = p.vertices
            assert edges == tuple(sorted(
                (x1, min(y1, y2), max(y1, y2))
                for (x1, y1), (x2, y2) in zip(ring, ring[1:] + ring[:1])
                if x1 == x2
            ))

    def test_m_counts_vertical_edges(self, polys):
        # the two bounding edges always count; interior breakpoints count
        # once per side whose span actually changes
        assert polys["RECT"].m == 2
        assert polys["VALLEY"].m == 4
        assert polys["STAIR3"].m == 6
        assert polys["GAP7"].m == 8
        # m is half the merged ring, which is every vertical edge
        shapes = list(polys.values()) + [p for _, p in px.corpus(300)]
        shapes += [px.random_monotone(400, 20, 4, seed) for seed in range(3)]
        for p in shapes:
            assert p.m == len(reference_vertical_edges(p.profile))

    @pytest.mark.parametrize(
        "xs, spans, message",
        [
            ((0,), (), "profile needs n+1 breakpoints for n >= 1 slabs"),
            ((0, 2, 2), ((0, 2), (0, 4)), "breakpoints must increase strictly"),
            ((0, 2), ((2, 2),), "slab span must have positive height"),
            ((0, 2, 4), ((0, 2), (4, 6)), "adjacent slab spans must intersect"),
            ((0, 2, 4), ((4, 6), (0, 2)), "adjacent slab spans must intersect"),
            ((0, 2, 4), ((0, 2), (0, 2)), "adjacent slab spans must differ"),
            ((0, 2, 4, 6), ((0, 2), (0, 2), (6, 8)), "adjacent slab spans must differ"),
            ((0, 2, 4, 6), ((0, 2), (4, 6), (4, 6)), "adjacent slab spans must intersect"),
        ],
    )
    def test_invalid_profile_is_named(self, xs, spans, message):
        with pytest.raises(ValueError) as exc:
            px.SlabProfile(xs, spans)
        assert str(exc.value) == message

    def test_spans_touching_at_a_point_meet(self):
        assert px.SlabProfile((0, 2, 4), ((0, 2), (2, 4))).spans == ((0, 2), (2, 4))

    def test_cross_section(self, polys):
        prof = polys["VALLEY"].profile
        assert prof.cross_section(1) == (0, 3)
        assert prof.cross_section(3) == (0, 1)
        # at a breakpoint the closed polygon includes both adjacent slabs
        assert prof.cross_section(2) == (0, 3)
        assert prof.cross_section(-1) is None
        assert prof.cross_section(7) is None

    def test_runs(self, polys):
        prof = polys["GAP7"].profile
        # the line y=1 crosses the full middle stretch
        assert runs_at(prof, 1) == ((2, 12),)
        # the line y=2.5 leaves three separate runs
        assert runs_at(prof, 2.5) == ((0, 4), (6, 8), (10, 14))
        assert prof.run_covering(2.5, 6, 8) == (6, 8)
        assert prof.run_covering(2.5, 4, 8) is None

    def test_contains_point_is_closed(self, polys):
        prof = polys["VALLEY"].profile
        assert contains_point(prof, 0, 0)
        assert contains_point(prof, 3, 1)   # on the notch bottom edge
        assert not contains_point(prof, 3, 2)
        assert not contains_point(prof, -0.5, 0)


class TestCutRight:
    def test_identity_at_first_breakpoint(self, polys):
        prof = polys["RECT"].profile
        assert cut_right(prof, 0) == prof

    def test_valley(self, polys):
        rest = cut_right(polys["VALLEY"].profile, 4)
        assert rest is not None
        assert (rest.xs, rest.spans) == ((4, 6), ((0, 3),))

    def test_gap7(self, polys):
        rest = cut_right(polys["GAP7"].profile, 10)
        assert rest is not None
        assert (rest.xs, rest.spans) == ((10, 12, 14), ((0, 3), (2, 3)))

    def test_last_breakpoint_exhausts(self, polys):
        assert cut_right(polys["RECT"].profile, 6) is None

    def test_non_breakpoint_rejected(self, polys):
        with pytest.raises(ValueError):
            cut_right(polys["VALLEY"].profile, 3)


class TestCellGrid:
    def test_rect_single_cell(self, polys):
        g = build_grid(polys["RECT"].profile)
        assert (g.nx, g.ny) == (1, 1)
        assert g.inside_mask.bit_count() == 1
        assert cell_rep(g, 0, 0) == (6, 3)

    def test_valley_has_one_outside_cell(self, polys):
        g = build_grid(polys["VALLEY"].profile)
        assert (g.nx, g.ny) == (3, 2)
        assert g.inside_mask.bit_count() == 5
        assert not is_inside(g, 1, 1)

    def test_gap7_counts(self, polys):
        g = build_grid(polys["GAP7"].profile)
        assert g.nx * g.ny == 21
        assert g.inside_mask.bit_count() == 13

    def test_refinement(self, polys):
        g = build_grid(polys["RECT"].profile, extra_x=(3,), extra_y=(1, 2))
        assert (g.nx, g.ny) == (2, 3)
        assert g.inside_mask.bit_count() == 6
        assert 3 in g.x_cuts and 2 in g.y_cuts

    def test_cut_outside_bbox_rejected(self, polys):
        with pytest.raises(ValueError):
            build_grid(polys["RECT"].profile, extra_y=(50,))

    @pytest.mark.parametrize(
        "cuts", [([1.5], [0.5]), ([2.0], ()), ([True], ()), ((), [False])]
    )
    def test_cut_that_is_not_an_int_rejected(self, polys, cuts):
        # VALLEY's box is [0, 6] x [0, 3], so each of these lies inside it
        with pytest.raises(ValueError, match="is not an int"):
            build_grid(polys["VALLEY"].profile, *cuts)

    def test_inside_mask_between(self, polys):
        g = build_grid(polys["VALLEY"].profile)
        left = g.inside_mask_between(g.x_cuts[0], 2)
        assert {g.cell_bounds(ix, iy) for ix, iy in g.iter_cells(left)} == {
            (0, 0, 2, 1),
            (0, 1, 2, 3),
        }
        assert g.inside_mask_between(g.x_cuts[0], g.x_cuts[-1]) == g.inside_mask
        assert g.inside_mask_between(2, 2) == 0

    def test_first_cell_prefers_min_x_then_min_y(self, polys):
        g = build_grid(polys["VALLEY"].profile)
        assert first_cell(g, g.inside_mask) == (0, 0)
        assert first_cell(g, 0) is None

    def test_area_consistency(self, polys, small_corpus):
        for p in list(polys.values()) + small_corpus:
            g = build_grid(p.profile)
            area = cell_area(g, g.inside_mask)
            assert area == profile_area(p.profile)
            assert area == shoelace2(p.vertices) // 2
            assert p.input_vertices == p.vertices

    def test_inside_cells_match_parity_oracle(self, polys, small_corpus):
        for p in list(polys.values()) + small_corpus[:20]:
            g = build_grid(p.profile)
            for ix in range(g.nx):
                for iy in range(g.ny):
                    rx, ry = cell_rep(g, ix, iy)
                    assert is_inside(g, ix, iy) == point_inside(p.vertices, rx, ry)


    def test_row_walls_match_per_row_scan(self, polys):
        shapes = list(polys.values()) + [p for _, p in px.corpus(300)]
        shapes += [px.random_monotone(slabs, 20, 4, seed=1) for slabs in (40, 160)]
        shapes += [px.random_monotone(400, 20, 4, seed) for seed in range(3)]
        rng = random.Random(0)
        for p in shapes:
            prof = p.profile
            ords = prof.edge_ordinates
            mids = [a + b for a, b in zip(ords, ords[1:])]  # doubled
            assert prof.row_walls == reference_row_walls(prof, mids)
            # a grid refined with extra cuts, as render --vis refines it
            # with its transmitter's coordinates: each row's walls are those
            # of the band holding it
            xs = range(prof.x_min, prof.x_max + 1)
            ys = range(prof.y_min, prof.y_max + 1)
            g = build_grid(prof, rng.sample(xs, min(4, len(xs))), rng.sample(ys, min(4, len(ys))))
            bands = [prof.row_walls[bisect_right(ords, y) - 1] for y in g.y_cuts[:-1]]
            assert tuple(bands) == reference_row_walls(prof, row_reps(g))

class TestRoundTrip:
    def test_profile_ring_profile_identity(self, small_corpus):
        for p in small_corpus:
            ring = profile_to_ring(p.profile.xs, p.profile.spans)
            again = validate(ring)
            assert again.profile == p.profile
            assert again.vertices == p.vertices

    def test_every_vertical_line_meets_one_interval(self, small_corpus):
        # x-monotonicity, checked against the parity oracle at grid midpoints
        for p in small_corpus[:20]:
            g = build_grid(p.profile)
            for ix in range(g.nx):
                rx, _ = cell_rep(g, ix, 0)
                rows = [
                    iy for iy, ry in enumerate(row_reps(g)) if point_inside(p.vertices, rx, ry)
                ]
                assert rows == list(range(rows[0], rows[0] + len(rows)))
