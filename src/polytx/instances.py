"""Named fixture polygons and a seeded random instance generator."""

from __future__ import annotations

import random
from typing import Iterator

from .geometry import OrthoPolygon, Point, profile_to_ring, validate

# Hand-picked shapes exercising the interesting cases: a plain box, a valley
# forcing crossings, two staircases, and a double-notch whose 0- and
# 2-transmitter optima differ.  Input units, counter-clockwise.
FIXTURES: dict[str, tuple[Point, ...]] = {
    "RECT": ((0, 0), (6, 0), (6, 3), (0, 3)),
    "VALLEY": ((0, 0), (6, 0), (6, 3), (4, 3), (4, 1), (2, 1), (2, 3), (0, 3)),
    "STAIR3": (
        (0, 0), (2, 0), (2, 1), (4, 1), (4, 2), (6, 2),
        (6, 4), (4, 4), (4, 3), (2, 3), (2, 2), (0, 2),
    ),
    "STAIR6": (
        (0, 0), (2, 0), (2, 1), (4, 1), (4, 2), (6, 2),
        (6, 3), (8, 3), (8, 4), (10, 4), (10, 5), (12, 5),
        (12, 7), (10, 7), (10, 6), (8, 6), (8, 5), (6, 5),
        (6, 4), (4, 4), (4, 3), (2, 3), (2, 2), (0, 2),
    ),
    "GAP7": (
        (0, 2), (2, 2), (2, 0), (12, 0), (12, 2), (14, 2),
        (14, 3), (10, 3), (10, 1), (8, 1), (8, 3), (6, 3),
        (6, 1), (4, 1), (4, 3), (0, 3),
    ),
}


def fixture(name: str) -> OrthoPolygon:
    """A named fixture polygon; raises KeyError for unknown names."""
    return validate(list(FIXTURES[name]))


def random_monotone(slabs: int, max_height: int, max_width: int, seed: int) -> OrthoPolygon:
    """Seeded random slab stack with the given slab count.

    Adjacent column spans always overlap and always differ, so the result
    has exactly `slabs` columns.  Fully deterministic per seed.
    """
    if slabs < 1:
        raise ValueError("slabs must be at least 1")
    if max_width < 1:
        raise ValueError("max_width must be at least 1")
    if max_height < 2:
        raise ValueError("max_height must be at least 2")
    rng = random.Random(seed)
    xs = [0]
    for _ in range(slabs):
        xs.append(xs[-1] + rng.randint(1, max_width))
    spans: list[tuple[int, int]] = []
    b = rng.randint(0, max_height - 1)
    spans.append((b, rng.randint(b + 1, max_height)))
    for _ in range(slabs - 1):
        pb, pt = spans[-1]
        # Overlap must be a nondegenerate interval: spans touching only at a
        # point would pinch the ring through a repeated vertex and fail
        # validation as non-simple.
        for _ in range(64):
            b = rng.randint(0, max_height - 1)
            t = rng.randint(b + 1, max_height)
            if (b, t) != (pb, pt) and max(b, pb) < min(t, pt):
                break
        else:
            # Deterministic fallback: shift the last draw until it properly
            # overlaps, then nudge until it differs from the previous span.
            if b >= pt:
                shift = b - (pt - 1)
                b, t = b - shift, t - shift
            elif t <= pb:
                shift = (pb + 1) - t
                b, t = b + shift, t + shift
            if (b, t) == (pb, pt):
                if t < max_height:
                    t += 1
                elif b > 0:
                    b -= 1
                else:
                    b += 1
        spans.append((b, t))
    return validate(profile_to_ring(xs, spans))


def corpus(
    count: int,
    max_slabs: int = 7,
    max_height: int = 8,
    max_width: int = 4,
    seed0: int = 0,
) -> Iterator[tuple[int, OrthoPolygon]]:
    """(seed, polygon) stream cycling slab counts 1..max_slabs."""
    for i in range(count):
        seed = seed0 + i
        yield seed, random_monotone(i % max_slabs + 1, max_height, max_width, seed)
