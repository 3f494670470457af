"""validate against its earlier all-pairs form, and parse_polygon under fuzz.

Rings start as random slab stacks, some with a notch cut into the right
edge, and are then mutated: vertices dragged, runs of vertices translated,
vertices deleted or duplicated, chunks of the ring reversed.  Every outcome,
accepted or rejected, must match oracles.reference_validate exactly.
"""

import json
import random

from hypothesis import given, settings, strategies as st

import polytx as px
from polytx import InvalidPolygonError, validate

from oracles import notched, reference_validate

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
    ring = list(p.input_vertices)
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
