"""segments_cover against the per-band interval check it replaced, at sizes
the grid oracle cannot reach.

The reference builds, in every row band, the x-intervals every horizontal
and every spanning vertical sees, merges them, and bisects once per inside
interval.  It lives here, not in ``oracles.py``, which the bench imports.
"""

import random
from bisect import bisect_left, bisect_right

import pytest

import polytx as px
from polytx import Transmitter
from polytx.candidates import HORIZONTAL, VERTICAL, segment_inside
from polytx.visibility import check_k, reach, segments_cover

from test_approx import off_family


def reference_segments_cover(prof, segments, k) -> bool:
    """segments_cover as closed x-intervals per row band: a band is covered
    when each of its inside intervals lies in one merged block."""
    if segments:
        check_k(k)
    if not all(segment_inside(prof, t) for t in segments):
        return False
    xs, ys, rows = prof.xs, prof.edge_ordinates, prof.row_walls
    end = len(prof.spans)
    everywhere = sorted(t.span for t in segments if t.orientation == HORIZONTAL)
    verticals = [
        (*t.span, bisect_left(xs, t.anchor), bisect_right(xs, t.anchor))
        for t in segments
        if t.orientation == VERTICAL
    ]
    cuts = sorted(set(ys).union(*(v[:2] for v in verticals)))
    for y0, y1 in zip(cuts, cuts[1:]):
        walls = rows[bisect_right(ys, y0) - 1]
        seen = list(everywhere)
        for lo, hi, before, upto in verticals:
            if lo <= y0 and y1 <= hi:
                a, b = reach(walls, before, upto, k, end)
                seen.append((xs[a], xs[b]))
        seen.sort()
        starts: list[int] = []
        ends: list[int] = []
        for a, b in seen:
            if ends and a <= ends[-1]:
                ends[-1] = max(ends[-1], b)
            else:
                starts.append(a)
                ends.append(b)
        for w in range(0, len(walls), 2):
            u, v = xs[walls[w]], xs[walls[w + 1]]
            i = bisect_right(starts, u) - 1
            if i < 0 or ends[i] < v:
                return False
    return True


def split_horizontals(prof, segments):
    """segments with each horizontal that crosses a slab's inside point cut
    there into two halves that meet, so only their union holds that slab."""
    breakpoints = set(prof.xs)
    out = []
    for t in segments:
        lo, hi = t.span
        inner = [x for x in range(lo + 1, hi) if x not in breakpoints]
        if t.orientation == HORIZONTAL and inner:
            x = inner[len(inner) // 2]
            out += [Transmitter("h", t.anchor, (lo, x)), Transmitter("h", t.anchor, (x, hi))]
        else:
            out.append(t)
    return tuple(out)


@pytest.mark.parametrize(
    "shape",
    [(160, 20, 4), (400, 20, 4), (200, 300, 1)],
    ids=["160-slabs", "400-slabs", "tall"],
)
def test_matches_the_interval_check_on_approx_answers(shape):
    # Each answer, the answer less one of its first few segments, the
    # answer with segments off the family's lines added, alone and less a
    # segment (off_family's first two lie in the polygon, its last two need
    # not), and the answer with its horizontals cut in two inside slabs.
    rng = random.Random(30)
    outcomes = set()
    for seed in range(3):
        p = px.random_monotone(*shape, seed)
        prof = p.profile
        sol = px.approximate_2transmitters(p).transmitters
        extra = off_family(p, rng)
        drops = [sol[:i] + sol[i + 1 :] for i in range(4)]
        sets = [sol, *drops, sol + extra[:2], sol + extra, *(d + extra[:2] for d in drops[:2])]
        sets.append(split_horizontals(prof, sol))
        for segments in sets:
            for k in (0, 1, 2):
                want = reference_segments_cover(prof, segments, k)
                assert segments_cover(prof, segments, k) == want, (shape, seed, segments, k)
                outcomes.add(want)
    assert outcomes == {True, False}
