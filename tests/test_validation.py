"""validate against its earlier all-pairs form, and parse_polygon under fuzz.

Rings start as random slab stacks, some with a notch cut into the right
edge, and are then mutated: vertices dragged, runs of vertices translated,
vertices deleted or duplicated, chunks of the ring reversed.  Every outcome,
accepted or rejected, must match validation_oracles.reference_validate
exactly.  The contact sweep must name the same pair, with the same reason,
index and message, as validation_oracles.reference_check_simple on every
ring that reaches it, and validate's chain walk must decide every ring as
the edge-count scan alone does.
"""

import json
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import polytx as px
from polytx import InvalidPolygonError, validate
from polytx.geometry import (
    COORD_LIMIT,
    _area,
    _axis_edges,
    _check_simple,
    _crowded,
    profile_to_ring,
)

from oracles import notched, ring_edges, shoelace2
from validation_oracles import (
    pruned_check_simple,
    reference_axis_edges,
    reference_check_simple,
    reference_crowded,
    reference_merge_collinear,
    reference_parse_polygon,
    reference_slab_scan,
    reference_validate,
    reference_validate_vertices,
)

# Every reason validate itself raises (malformed-json is parse_polygon's).
VALIDATE_REASONS = {
    "non-integer",
    "out-of-range",
    "degenerate-edge",
    "non-orthogonal",
    "too-few-vertices",
    "self-intersecting",
    "duplicate-vertex",
    "not-monotone",
}


def _shift(pt, rng: random.Random):
    """pt moved along one axis, rarely by a half or past the coordinate limit."""
    roll = rng.random()
    if roll < 0.02:
        d = 0.5
    elif roll < 0.04:
        d = 2 * 10**6
    else:
        d = rng.choice((-3, -2, -1, 1, 2, 3))
    x, y = pt
    return (x + d, y) if rng.random() < 0.5 else (x, y + d)


def _drag(ring, rng):
    """Slide one edge sideways, which keeps the ring axis-parallel, or
    move a single vertex."""
    n = len(ring)
    i = rng.randrange(n)
    out = list(ring)
    if rng.random() < 0.3:
        out[i] = _shift(out[i], rng)
        return out
    j = (i + 1) % n
    d = rng.choice((-3, -2, -1, 1, 2, 3))
    horizontal = out[i][1] == out[j][1]
    for v in {i, j}:
        x, y = out[v]
        out[v] = (x, y + d) if horizontal else (x + d, y)
    return out


def _translate_run(ring, rng):
    """Move a run of vertices; mostly an even run along the edge entering it,
    which keeps an alternating ring axis-parallel."""
    n = len(ring)
    i, length = rng.randrange(n), rng.randint(1, max(1, n // 2))
    d = rng.choice((-3, -2, -1, 1, 2, 3))
    if rng.random() < 0.7:
        length += length % 2
        along_x = ring[i - 1][1] == ring[i][1]
    else:
        along_x = rng.random() < 0.5
    out = list(ring)
    for j in range(i, i + length):
        x, y = out[j % n]
        out[j % n] = (x + d, y) if along_x else (x, y + d)
    return out


def _delete(ring, rng):
    out = list(ring)
    del out[rng.randrange(len(out))]
    return out


def _duplicate(ring, rng):
    out = list(ring)
    i = rng.randrange(len(out))
    out.insert(i, out[i])
    return out


def _reverse_chunk(ring, rng):
    n = len(ring)
    i = rng.randrange(n)
    j = rng.randint(i + 2, n + 1)
    return ring[:i] + ring[i:j][::-1] + ring[j:]


MUTATIONS = (_drag, _drag, _drag, _translate_run, _delete, _duplicate, _reverse_chunk)


def mutated_ring(rng: random.Random) -> list:
    slabs = rng.randint(1, 8)
    p = px.random_monotone(slabs, rng.randint(2, 8), rng.randint(1, 4), rng.randrange(10**6))
    ring = list(p.vertices)
    if rng.random() < 0.3:
        ring = notched(ring, depth=rng.choice((1, 1, 2, 3, 3 * slabs)))
    for _ in range(rng.choice((0, 1, 1, 2, 3))):
        ring = rng.choice(MUTATIONS)(ring, rng)
    start = rng.randrange(len(ring))
    ring = ring[start:] + ring[:start]
    if rng.random() < 0.5:
        ring.reverse()
    return ring


def outcome(validator, ring):
    """(type, reason, index, message) for a rejection, (vertices, profile) else."""
    try:
        p = validator(ring)
    except ValueError as exc:
        return (type(exc), getattr(exc, "reason", None), getattr(exc, "index", None), str(exc))
    return (p.vertices, p.profile)


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False))
def test_matches_reference_on_mutated_rings(rng):
    ring = mutated_ring(rng)
    assert outcome(validate, ring) == outcome(reference_validate, ring)


def test_mutated_rings_reach_every_reason():
    reasons = set()
    accepted = 0
    for seed in range(3000):
        ring = mutated_ring(random.Random(seed))
        got = outcome(validate, ring)
        assert got == outcome(reference_validate, ring), (seed, ring)
        if len(got) == 2:
            accepted += 1
        else:
            assert got[0] is InvalidPolygonError, (seed, got)
            reasons.add(got[1])
    assert reasons == VALIDATE_REASONS
    assert accepted > 100


# -- the area from horizontal edges against the shoelace sum -------------------


def merged_ring(ring) -> list | None:
    """ring as validation_oracles.reference_validate merges it, or None when
    that rejects the ring before it merges (or while it merges)."""
    pts = [tuple(v) for v in ring]
    if len(pts) > 1 and pts[0] == pts[-1]:
        pts.pop()
    if len(pts) < 4 or not all(type(c) is int for pt in pts for c in pt):
        return None
    # Every edge axis-parallel and of nonzero length.
    if not all((a[0] == b[0]) != (a[1] == b[1]) for a, b in ring_edges(pts)):
        return None
    try:
        merged = reference_merge_collinear(pts)
    except InvalidPolygonError:
        return None
    return merged if len(merged) >= 4 else None


def area_matches_shoelace(ring) -> bool:
    xs, ys = [x for x, _ in ring], [y for _, y in ring]
    return 2 * _area(xs, ys) == shoelace2(ring)


def test_area_is_half_the_shoelace_sum():
    rings = [merged_ring(mutated_ring(random.Random(seed))) for seed in range(3000)]
    rings = [r for r in rings if r is not None]
    assert len(rings) > 1000
    for _, p in px.corpus(400):
        ring = list(p.vertices)
        rings += [ring, ring[::-1], ring[1:] + ring[:1]]
    # Two unit squares of opposite winding, joined where two edges cross.
    figure_eight = [(0, 0), (1, 0), (1, 2), (2, 2), (2, 1), (0, 1)]
    rings += [figure_eight, figure_eight[::-1], figure_eight[1:] + figure_eight[:1]]
    assert [r for r in rings if not area_matches_shoelace(r)] == []
    signs = {(shoelace2(r) > 0) - (shoelace2(r) < 0) for r in rings}
    assert signs == {-1, 0, 1}


# -- the contact sweep against the all-pairs reference -------------------------


def simplicity_inputs(monkeypatch, rings) -> list:
    """The rings validate hands its slab scan, which are the rings that
    reach the simplicity check (merged, counter-clockwise)."""
    seen = []
    scan = px.geometry._slab_stack

    def recording(xs, ys):
        seen.append(list(zip(xs, ys)))
        return scan(xs, ys)

    monkeypatch.setattr(px.geometry, "_slab_stack", recording)
    for ring in rings:
        try:
            validate(ring)
        except InvalidPolygonError:
            pass
    monkeypatch.undo()
    return seen


def coords(ring) -> tuple[list, list]:
    """The ring's x and y coordinate lists."""
    return [x for x, _ in ring], [y for _, y in ring]


def contact_check(ring) -> None:
    _check_simple(*coords(ring))


def diagnosis(check, ring) -> tuple | None:
    """(reason, index, message) of the check's rejection, or None."""
    try:
        check(ring)
    except InvalidPolygonError as exc:
        return (exc.reason, exc.index, str(exc))
    return None


def test_touches_matches_reference_on_mutated_rings(monkeypatch):
    rings = [mutated_ring(random.Random(seed)) for seed in range(3000)]
    scanned = simplicity_inputs(monkeypatch, rings)
    assert len(scanned) > 1000
    verdicts = [
        (diagnosis(contact_check, r), diagnosis(reference_check_simple, r)) for r in scanned
    ]
    assert [(got, want) for got, want in verdicts if got != want] == []
    assert 100 < sum(got is not None for got, _ in verdicts) < len(verdicts) - 100


@pytest.mark.parametrize("slabs, seeds", [(40, range(10)), (400, range(2))])
def test_touches_matches_reference_on_large_rings(monkeypatch, slabs, seeds):
    rings = []
    for seed in seeds:
        rng = random.Random(seed)
        base = list(px.random_monotone(slabs, 20, 4, seed).vertices)
        rings += [notched(base), notched(base, depth=3 * slabs)]
        for _ in range(6):
            ring = notched(base, depth=rng.choice((1, 2, 3))) if rng.random() < 0.5 else base
            for _ in range(rng.randint(1, 3)):
                ring = rng.choice((_drag, _translate_run))(ring, rng)
            rings.append(ring)
    scanned = simplicity_inputs(monkeypatch, rings)
    assert len(scanned) > 2 * len(seeds)
    verdicts = [
        (diagnosis(contact_check, r), diagnosis(reference_check_simple, r)) for r in scanned
    ]
    assert all(got == want for got, want in verdicts)
    contact = [got is not None for got, _ in verdicts]
    assert any(contact) and not all(contact)


def swept_rings(monkeypatch) -> list:
    """Merged rings of both parities that reach the contact sweep."""
    rings = [mutated_ring(random.Random(seed)) for seed in range(3000)]
    for slabs in (40, 400):
        base = list(px.random_monotone(slabs, 20, 4, 1).vertices)
        rings += [base, base[1:] + base[:1], notched(base), notched(base, depth=3 * slabs)]
    scanned = simplicity_inputs(monkeypatch, rings)
    assert len(scanned) > 1000
    # Both parities: the first edge horizontal, and the first edge vertical.
    assert {r[0][1] == r[1][1] for r in scanned} == {True, False}
    return scanned


def test_axis_edges_match_the_zipped_ring(monkeypatch):
    scanned = swept_rings(monkeypatch)
    assert [r for r in scanned if _axis_edges(*coords(r)) != reference_axis_edges(r)] == []


def test_sweeps_on_coordinate_slices_match_the_edge_list_sweeps(monkeypatch):
    # Both sweeps flag the same edges, in the same order, and find the same
    # first gap as the sweep over the edge lists; along x the gap also
    # carries the sorted ordinates of the horizontals over it.
    for ring in swept_rings(monkeypatch):
        xs, ys = coords(ring)
        hs, vs = reference_axis_edges(ring)
        hit, gap = _crowded(xs, ys)
        want_hit, want_gap = reference_crowded(hs, vs)
        assert hit == want_hit
        if want_gap is None:
            assert gap is None
        else:
            a, b = want_gap
            assert gap == (a, b, sorted(y for y, lo, hi, _ in hs if lo <= a and b <= hi))
        hit, gap = _crowded(ys, xs)
        want_hit, want_gap = reference_crowded(vs, hs)
        assert hit == want_hit
        assert (gap and gap[:2]) == want_gap


# -- the x-sweep names the not-monotone slab as the edge-count scan did ------


def reference_diagnosis(check, ring) -> tuple | None:
    """What check, then the edge-count scan, say of a merged counter-clockwise
    ring, as validate would name it: a plain ValueError from the scan's
    SlabProfile becomes the stack fault validate raises for one."""
    try:
        check(ring)
        reference_slab_scan(ring, reference_axis_edges(ring)[0])
    except InvalidPolygonError as exc:
        return (exc.reason, exc.index, str(exc))
    except ValueError:
        return ("not-monotone", None, "region is not a left-to-right slab stack")
    return None


@pytest.mark.parametrize("slabs, seeds", [(40, range(5)), (400, range(1)), (4000, range(1))])
def test_notched_rings_match_the_references(slabs, seeds):
    # reference_check_simple tries all n^2 pairs, too many at 4,000 slabs;
    # pruned_check_simple gives its verdict there, and is held to it below.
    reasons = []
    for seed in seeds:
        base = list(px.random_monotone(slabs, 20, 4, seed).vertices)
        for depth in (1, 2, 3, 3 * slabs):
            ring = notched(base, depth)
            # validate hands the chain walk the ring, counter-clockwise: a
            # deep notch can turn its signed area negative.
            assert len(set(ring)) == len(ring) and shoelace2(ring) != 0
            walked = ring if shoelace2(ring) > 0 else ring[::-1]
            got = diagnosis(validate, ring)
            assert got == reference_diagnosis(pruned_check_simple, walked), (seed, depth)
            if slabs < 4000:
                assert got == reference_diagnosis(reference_check_simple, walked), (seed, depth)
            reasons.append(got[0])
    assert reasons.count("not-monotone") >= 2 * len(seeds)
    assert "self-intersecting" in reasons


# -- the chain walk against the edge-count scan ---------------------------------


def scan_only(xs, ys):
    """_slab_stack without its chain walk, as validate decided every ring
    before: the accepting edge-count scan, and the contact check when it
    rejects."""
    ring = list(zip(xs, ys))
    try:
        return reference_slab_scan(ring, _axis_edges(xs, ys)[0])
    except ValueError:
        _check_simple(xs, ys)
        raise


def differential_rings() -> list:
    """20,000 mutated rings, 2,000 corpus rings started at another vertex
    or reversed, and larger slab stacks with notched and reversed copies."""
    rings = [mutated_ring(random.Random(seed)) for seed in range(20_000)]
    for i, p in px.corpus(2_000):
        rng = random.Random(i)
        ring = list(p.vertices)
        start = rng.randrange(len(ring))
        ring = ring[start:] + ring[:start]
        rings.append(ring[::-1] if rng.random() < 0.5 else ring)
    for slabs, seeds in ((40, range(5)), (400, range(2)), (3000, range(1))):
        for seed in seeds:
            base = list(px.random_monotone(slabs, 20, 4, seed).vertices)
            for ring in (base, notched(base), notched(base, depth=3), notched(base, depth=3 * slabs)):
                rings += [ring, ring[::-1], ring[5:] + ring[:5]]
    return rings


def test_chain_walk_matches_the_scan(monkeypatch):
    rings = differential_rings()
    walked = [outcome(validate, ring) for ring in rings]
    monkeypatch.setattr(px.geometry, "_slab_stack", scan_only)
    scanned = [outcome(validate, ring) for ring in rings]
    monkeypatch.undo()
    assert [i for i, (got, want) in enumerate(zip(walked, scanned)) if got != want] == []
    assert sum(len(got) == 2 for got in walked) > 5_000
    reasons = [got[1] for got in walked if len(got) == 4]
    assert reasons.count("not-monotone") > 1_000 and reasons.count("self-intersecting") > 1_000


def walk_shapes() -> list:
    """(ring, profile) at 1 to 3,000 slabs: tall stacks one unit wide, where
    both chains step at almost every breakpoint, and flat-bottomed and
    flat-topped combs, where one chain never steps."""
    shapes = []
    for slabs in (1, 2, 3, 7, 40, 400, 3000):
        for seed in range(2 if slabs < 3000 else 1):
            p = px.random_monotone(slabs, 3000, 1, seed)
            shapes.append((list(p.vertices), p.profile))
        xs = tuple(range(0, 2 * slabs + 1, 2))
        for spans in (
            tuple((0, 2 + i % 2) for i in range(slabs)),
            tuple((i % 2, 3) for i in range(slabs)),
        ):
            shapes.append((profile_to_ring(xs, spans), px.SlabProfile(xs, spans)))
    return shapes


def test_merge_walk_matches_the_scan(monkeypatch):
    # random_monotone validates its own ring, so the shapes are built under
    # the scan too, and only the comparison below judges the walk.
    monkeypatch.setattr(px.geometry, "_slab_stack", scan_only)
    rings, profiles = [], []
    for ring, profile in walk_shapes():
        for wound in (ring, ring[::-1]):
            for start in {0, 1, 5 % len(ring), len(ring) // 2}:
                rings.append(wound[start:] + wound[:start])
                profiles.append(profile)
    scanned = [outcome(validate, ring) for ring in rings]
    monkeypatch.undo()
    walked = [outcome(validate, ring) for ring in rings]
    assert [i for i, (got, want) in enumerate(zip(walked, scanned)) if got != want] == []
    assert [got[1] for got in walked] == profiles


# -- the per-vertex fast paths judge edge cases as the loops did ---------------


class Int(int):
    pass


L = COORD_LIMIT
RECT = [(0, 0), (6, 0), (6, 3), (0, 3)]


@pytest.mark.parametrize(
    "ring",
    [
        pytest.param([(0, 0), (6, 0), (6, 3), (0, True)], id="bool-last"),
        pytest.param([(True, 0), (6, 0), (6, 3), (0, 3)], id="bool-first"),
        pytest.param([(Int(0), 0), (6, 0), (6, Int(3)), (0, 3)], id="int-subclass"),
        pytest.param([(-L, -L), (L, -L), (L, L), (-L, L)], id="at-limit"),
        pytest.param([(-L - 1, 0), (L, 0), (L, 3), (-L - 1, 3)], id="below-limit"),
        pytest.param([(0, 0), (L + 1, 0), (L + 1, 3), (0, 3)], id="above-limit"),
        pytest.param([(0, -L - 1), (0.5, 0), (6, 3), (0, 3)], id="range-before-type"),
        pytest.param([(0.5, 0), (0, -L - 1), (6, 3), (0, 3)], id="type-before-range"),
        pytest.param([(0, 0, 0), (6, 0), (6, 3), (0, 3)], id="3-tuple"),
        pytest.param([(0, 0), (6,), (6, 3), (0, 3)], id="1-tuple"),
        pytest.param([(0, 0), (6, 0), (6, 3), (0, 3), (0, 3)], id="zero-length-last"),
        pytest.param([(0, 0), (6, 0), (6, 3), (0, 3), (0, 0), (0, 0)], id="closed-twice"),
        pytest.param([(0, 0), (6, 0), (6, 3), (1, 3)], id="diagonal-closing-edge"),
        pytest.param([(0, 0), (6, 0), (6, 3), (1, 3), (1, 3)], id="zero-length-and-diagonal"),
        pytest.param([(0, 0), (6, 0), (6, 3), (0, 3), (0, 0)], id="closed-once"),
        pytest.param([], id="empty"),
        pytest.param([(0, 0)], id="one-vertex"),
        pytest.param([(0, 0), (6, 0), (3, 0), (3, 3), (0, 3)], id="spike"),
        pytest.param([(0, 0), (6, 0), (6, 3), (0, 3), (0, 6), (6, 6), (6, 3), (0, 3)], id="repeat"),
        pytest.param([(0, 0), (3, 0), (6, 0), (6, 3), (0, 3)], id="collinear-midpoint"),
        pytest.param([(0, 0), (6, 0), (6, 3), (0, 3), (0, 2)], id="odd-midpoint-on-closing-edge"),
        pytest.param([(0, 0), (3, 0), (6, 0), (6, 3), (3, 3), (0, 3)], id="even-two-midpoints"),
        pytest.param([(0, 0), (1, 0), (1, 2), (2, 2), (2, 1), (0, 1)], id="zero-area"),
    ],
)
def test_fast_paths_match_reference(ring):
    assert outcome(validate, ring) == outcome(reference_validate, ring)


def test_only_rings_that_fail_the_alternation_test_are_merged(monkeypatch):
    # An alternating ring, read from either parity and closed or not, skips
    # the per-edge lists and the merge; a ring with a collinear midpoint
    # takes them.
    calls = []
    merge = px.geometry._merge_collinear

    def counting(xs, ys, horizontal):
        calls.append(len(xs))
        return merge(xs, ys, horizontal)

    monkeypatch.setattr(px.geometry, "_merge_collinear", counting)
    for _, p in px.corpus(200):
        ring = list(p.vertices)
        for r in (ring, ring[::-1], ring[1:] + ring[:1], ring + ring[:1]):
            assert validate(r).profile == p.profile
    assert calls == []
    assert validate([(0, 0), (3, 0), (6, 0), (6, 3), (0, 3)]).vertices == tuple(RECT)
    assert calls == [5]


@pytest.mark.parametrize(
    "ring, index",
    [
        pytest.param([1, 2, 3, 4], 0, id="flat-ints"),
        pytest.param([(0, 0), 6, (6, 3), (0, 3)], 1, id="int-among-pairs"),
        pytest.param([(0, 0), (6, 0), (6, 3), None], 3, id="none-last"),
        pytest.param([(0, 0, 0), 6, (6, 3), (0, 3)], 0, id="3-tuple-first"),
    ],
)
def test_vertex_that_is_not_iterable_is_non_integer(ring, index):
    # The same typed error as a 3-tuple vertex gets, not a TypeError, and
    # for the first offender.
    want = ("non-integer", index, f"vertex {index} is not an integer pair")
    assert diagnosis(validate, ring) == want


def test_parse_polygon_reads_mixed_int_and_float_coordinates_as_before():
    mixed = px.parse_polygon('{"vertices": [[0, 0], [6, 0.0], [6.0, 3], [0, 3]]}')
    assert (mixed.vertices, mixed.profile) == (validate(RECT).vertices, validate(RECT).profile)
    for text, message in (
        ('{"vertices": [[0, 0], [6, 0.5], [6.0, 3], [0, 3]]}', "coordinate 0.5 is not an integer"),
        ('{"vertices": [[0, 0], [6, 0], [6.0, 3], [true, 3]]}', "coordinate True is not an integer"),
        ('{"vertices": [[0, 0], [6, 0], [6, 3], [0, 3, 1]]}', "vertices must be a list of [x, y] pairs"),
    ):
        with pytest.raises(InvalidPolygonError) as exc:
            px.parse_polygon(text)
        assert str(exc.value) == message


def test_parse_polygon_int_coordinates_out_of_range():
    # All ints, one past the limit: the int fast path hands the range
    # fault to validate, which names the first vertex out of range.
    with pytest.raises(InvalidPolygonError) as exc:
        px.parse_polygon('{"vertices": [[0,0],[2000000,0],[2000000,1],[0,1]]}')
    assert (exc.value.reason, exc.value.index) == ("out-of-range", 1)
    assert str(exc.value) == "vertex 1 exceeds |c| <= 1000000"


@pytest.mark.parametrize(
    "vertices, want",
    [
        pytest.param(
            [[0, 0], [0, None], [0, 0]],
            ("non-integer", 1, "coordinate None is not an integer"),
            id="null",
        ),
        pytest.param(
            [[0, 0], [2000000, 0], [0, 0]],
            ("out-of-range", 1, "vertex 1 exceeds |c| <= 1000000"),
            id="out-of-range",
        ),
        pytest.param(
            [[0, 0], [0, 0], [0, 0]],
            ("degenerate-edge", 0, "zero-length edge at vertex 0"),
            id="degenerate",
        ),
        pytest.param(
            [[0, 0], [1, "a"], [2, 2]],
            ("non-integer", 1, "coordinate 'a' is not an integer"),
            id="string",
        ),
        pytest.param(
            [[0, 0], [6, 0.5], [0, 0]],
            ("non-integer", 1, "coordinate 0.5 is not an integer"),
            id="float",
        ),
    ],
)
def test_parse_polygon_short_ring_takes_validates_checks(vertices, want):
    # A ring of fewer than four vertices gets the same reason from
    # parse_polygon as from validate, not too-few-vertices ahead of it, and
    # the same offending vertex.
    assert diagnosis(px.parse_polygon, json.dumps({"vertices": vertices})) == want
    assert diagnosis(validate, vertices)[:2] == want[:2]


# -- parse_polygon: any JSON document ends in a polygon or a typed error ------

_json_leaf = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-8, 8),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from((0.5, 6.0, -0.0, 1e300)),
    st.text(max_size=3),
)
_json_value = st.recursive(
    _json_leaf,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=20,
)


@st.composite
def _orthogonal_walk(draw):
    """A closed axis-parallel walk on small integers, sometimes listing its
    first vertex again at the end."""
    x0, y0 = draw(st.integers(-5, 5)), draw(st.integers(-5, 5))
    x, y = x0, y0
    pts = [[x, y]]
    for step in range(draw(st.integers(1, 10))):
        d = draw(st.integers(-4, 4))
        if step % 2:
            y += d
        else:
            x += d
        pts.append([x, y])
    pts.append([x0, y])
    if draw(st.booleans()):
        pts.append([x0, y0])
    return pts


_vertices = st.one_of(
    _orthogonal_walk(),
    _orthogonal_walk(),
    st.lists(st.lists(_json_leaf, min_size=2, max_size=2), max_size=8),
    st.lists(_json_value, max_size=6),
    _json_value,
)


@st.composite
def _document(draw) -> str:
    doc = draw(st.dictionaries(st.text(max_size=4), _json_value, max_size=2))
    if draw(st.integers(0, 4)):
        doc["vertices"] = draw(_vertices)
    if draw(st.integers(0, 9)) == 0:
        return json.dumps(draw(_json_value))
    return json.dumps(doc)


@settings(max_examples=300, deadline=None)
@given(_orthogonal_walk())
def test_parse_polygon_judges_int_walks_as_validate(vertices):
    text = json.dumps({"vertices": vertices})
    assert outcome(px.parse_polygon, text) == outcome(validate, vertices)


def _parses_or_rejects(text: str) -> None:
    try:
        p = px.parse_polygon(text)
    except InvalidPolygonError as exc:
        assert exc.reason in VALIDATE_REASONS | {"malformed-json"}
    else:
        assert isinstance(p, px.OrthoPolygon)


@settings(max_examples=200, deadline=None)
@given(_document())
def test_parse_polygon_fuzz(text):
    _parses_or_rejects(text)


def test_parse_polygon_edge_documents():
    closed = [[0, 0], [6, 0], [6, 3], [0, 3], [0, 0]]
    for text in (
        '{"vertices": [[[0, 0], [6, 0]], [[6, 3], [0, 3]], [1, 2], [3, 4]]}',
        '{"vertices": [[0, 0], [1e400, 0], [1e400, 3], [0, 3]]}',
        '{"vertices": [[0, 0], [0.5, 0], [0.5, 3], [0, 3]]}',
        '{"vertices": [[true, 0], [6, 0], [6, 3], [0, 3]]}',
        json.dumps({"vertices": closed, "name": "box", "k": [2]}),
        json.dumps({"vertices": closed + [[0, 0], [0, 0]]}),
        '{"vertices": [[' + "1" * 5000 + ", 0], [0, 0], [0, 1], [1, 1]]}",
        '{"vertices": ' + "[" * 100_000 + "]" * 100_000 + "}",
    ):
        _parses_or_rejects(text)


# -- the one reader against the per-vertex passes it replaced -----------------


def assert_both_entry_points_match(vertices) -> None:
    """validate on the vertices, and parse_polygon on their JSON document,
    give what the per-vertex passes gave."""
    assert outcome(validate, vertices) == outcome(reference_validate_vertices, vertices)
    text = json.dumps({"vertices": vertices})
    assert outcome(px.parse_polygon, text) == outcome(reference_parse_polygon, text)


def workload_documents(seed: int) -> list[str]:
    """The texts of every document the three benchmark workloads send."""
    bench = str(Path(__file__).resolve().parents[1] / "bench")
    sys.path.insert(0, bench)
    try:
        import workloads
    finally:
        sys.path.remove(bench)
    return [doc.text for w in workloads.BUILDERS for doc in workloads.build(w, seed)]


@pytest.mark.parametrize("seed", [0, 1])
def test_reader_matches_the_passes_on_workload_documents(seed):
    texts = workload_documents(seed)
    assert len(texts) == 407 + 79 + 875
    outcomes = []
    for text in texts:
        got = outcome(px.parse_polygon, text)
        assert got == outcome(reference_parse_polygon, text)
        vertices = json.loads(text)["vertices"]
        assert outcome(validate, vertices) == got
        assert outcome(reference_validate_vertices, vertices) == got
        outcomes.append(len(got))
    # A reject is a 4-tuple: approx_large's 82, exact_enum's 16 and
    # corpus_compare's 175 notched rings.
    assert outcomes.count(4) == 5 + 75 + 1 + 1 + 16 + 175


@settings(max_examples=300, deadline=None)
@given(_document())
def test_reader_matches_the_passes_on_fuzzed_documents(text):
    assert outcome(px.parse_polygon, text) == outcome(reference_parse_polygon, text)
    doc = json.loads(text)
    vertices = doc.get("vertices") if isinstance(doc, dict) else None
    # validate takes any iterable; on a scalar both raise TypeError.
    if isinstance(vertices, (list, dict, str)):
        assert outcome(validate, vertices) == outcome(reference_validate_vertices, vertices)


# Vertices and coordinates the reader must refuse (or, at the limit, take),
# each put in place of the first or the last vertex, or of one coordinate.
BAD_VERTICES = ("ab", {"x": 0, "y": 0}, [0], [0, 0, 0], [[0, 0], [6, 0]], True, 6.0, 0.5, None, Int(3), [])
BAD_COORDINATES = (True, 6.0, 0.5, None, Int(3), L, -L, L + 1, -L - 1)


def refused_rings() -> list:
    rings = [[]]
    for base in (RECT, list(px.random_monotone(40, 20, 4, 1).vertices)):
        base = [list(v) for v in base]
        for at in (0, len(base) - 1):
            for bad in BAD_VERTICES:
                rings.append(base[:at] + [bad] + base[at + 1 :])
            for bad in BAD_COORDINATES:
                x, y = base[at]
                for vertex in ([bad, y], [x, bad]):
                    rings.append(base[:at] + [vertex] + base[at + 1 :])
    return rings


def test_reader_matches_the_passes_on_refused_vertices():
    rings = refused_rings()
    for ring in rings:
        assert_both_entry_points_match(ring)
        # As tuples too, where a vertex is a list.
        assert_both_entry_points_match([tuple(v) if isinstance(v, list) else v for v in ring])
    reasons = {outcome(validate, ring)[1] for ring in rings}
    assert {"non-integer", "out-of-range", "too-few-vertices"} <= reasons
    # A coordinate of magnitude 10**6 is in range; one more is not.
    assert validate([[L, 0], [6, 0], [6, 3], [L, 3]]).profile.xs == (6, L)
    ring = [[0, 0], [6, 0], [6, 3], [0, -L - 1]]
    assert outcome(validate, ring)[1:3] == ("out-of-range", 3)


def test_one_shot_rings_and_vertices_are_read_once():
    # A generator ring, and vertices that are one-shot iterators, are each
    # read once, so they give the outcome the same list of pairs gives.
    base = list(px.random_monotone(40, 20, 4, seed=1).vertices)
    rings = [RECT, base, notched(base), [(0, 0), (6, 0), (6, 0.5), (0, 3)], [(0, 0), (6, 0), (L + 1, 3)]]
    for ring in rings:
        want = outcome(validate, ring)
        assert outcome(reference_validate_vertices, ring) == want
        assert outcome(validate, (v for v in ring)) == want
        assert outcome(validate, [iter(v) for v in ring]) == want
        assert outcome(validate, (iter(v) for v in ring)) == want
    p = validate(iter(v) for v in RECT)
    assert p.vertices == tuple(RECT)
    assert outcome(validate, [iter(v) for v in rings[3]])[1:3] == ("non-integer", 2)
    assert outcome(validate, (iter(v) for v in rings[4]))[1:3] == ("out-of-range", 2)
