"""validate against its earlier all-pairs form, and parse_polygon under fuzz.

Rings start as random slab stacks, some with a notch cut into the right
edge, and are then mutated: vertices dragged, runs of vertices translated,
vertices deleted or duplicated, chunks of the ring reversed.  Every outcome,
accepted or rejected, must match oracles.reference_validate exactly.  The
contact sweep must name the same pair, with the same reason, index and
message, as oracles.reference_check_simple on every ring that reaches it,
and validate's chain walk must decide every ring as the edge-count scan
alone does.
"""

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

import polytx as px
from polytx import InvalidPolygonError, validate
from polytx.geometry import COORD_LIMIT, _axis_edges, _check_simple

from oracles import notched, reference_check_simple, reference_slab_scan, reference_validate

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


# -- the contact sweep against the all-pairs reference -------------------------


def simplicity_inputs(monkeypatch, rings) -> list:
    """The rings validate hands its slab scan, which are the rings that
    reach the simplicity check (merged, counter-clockwise)."""
    seen = []
    scan = px.geometry._slab_stack

    def recording(ring):
        seen.append(list(ring))
        return scan(ring)

    monkeypatch.setattr(px.geometry, "_slab_stack", recording)
    for ring in rings:
        try:
            validate(ring)
        except InvalidPolygonError:
            pass
    monkeypatch.undo()
    return seen


def contact_check(ring) -> None:
    _check_simple(*_axis_edges(ring))


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


# -- the chain walk against the edge-count scan ---------------------------------


def scan_only(ring):
    """_slab_stack without its chain walk, as validate decided every ring
    before: the accepting edge-count scan, and the contact check when it
    rejects."""
    hs, vs = _axis_edges(ring)
    try:
        return reference_slab_scan(ring, hs)
    except ValueError:
        _check_simple(hs, vs)
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
    ],
)
def test_fast_paths_match_reference(ring):
    assert outcome(validate, ring) == outcome(reference_validate, ring)


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
