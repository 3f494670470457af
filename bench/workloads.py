"""Seeded document lists for the three benchmark workloads.

A document is the JSON text a client sends (``{"vertices": [[x, y], ...]}``
in input units) plus what the benchmark needs to check the answer.  Every
list is a pure function of the workload seed: the same seed gives the same
documents, byte for byte.  Set-up builds the list; the timed loop only
receives the texts.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

import polytx

REJECT_REASON = "not-monotone"

# approx_large and exact_enum draw their shapes from fixed pools, because
# solver cost is far more variable between shapes than between runs: among
# eight random 400-slab shapes the greedy took 5.9 to 9.3 s, and one exact
# k=0 shape in forty takes a hundred times the median.  A fresh draw per seed
# would make the seed-to-seed spread of every timing wider than any useful
# bound.  The seed moves each shape instead (translation, flip in y, start
# vertex, winding), which leaves the polygon's optimum unchanged, and it
# shuffles the order of the requests.

# approx_large: (slabs, accepted, rejected) per rung.  The rungs are the
# ROADMAP baseline sizes.  Three hundred 40-slab documents sit between twenty
# below and five above, so the median request is the middle of one rung,
# and the p50 and tail latencies are taken over many shapes even though the
# 160- and 400-slab documents leave time for only two passes in a run.  One
# request in five is a reject, most of them at 40 slabs for the same reason.
APPROX_LADDER = ((10, 20, 5), (40, 300, 75), (160, 4, 1), (400, 1, 1))
APPROX_SMOKE = ((10, 2, 1), (40, 1, 1))

# exact_enum: slabs 14..20 crossed with k = 0, 1, 2, three shapes of each.
# The flip in y reorders the horizontal candidates, so the subsets tried
# before the first cover differ from seed to seed; the optimum does not.
# Every fourth shape is also sent as a reject.
EXACT_POOL = 63
EXACT_SMOKE = (0, 1, 7, 8, 14, 15)

# corpus_compare: the `polytx compare` traffic of acceptance criterion 1,
# fresh random shapes per seed; at 700 cheap documents a pass averages out.
CORPUS_ACCEPTED = 700
CORPUS_REJECTED = 175
CORPUS_SMOKE = (14, 3)


@dataclass(frozen=True)
class Doc:
    """One request: the document text and the facts its answer is checked by."""

    id: str
    text: str
    slabs: int
    k: int | None = None  # exact_enum: the k the request solves for
    reason: str | None = None  # reject requests: the expected error reason


def _text(ring) -> str:
    return json.dumps({"vertices": [list(v) for v in ring]})


def notched(ring) -> list[tuple[int, int]]:
    """The ring scaled by 3, with a rectangular notch cut into its right edge.

    Scaling makes the last slab at least 3 wide and 3 high, so a notch one
    unit deep and one unit in from both ends stays inside that slab without
    touching any other edge.  The polygon stays simple but a vertical line
    through the notch meets it twice, so it is not x-monotone.
    """
    pts = [(3 * x, 3 * y) for x, y in ring]
    x_max = max(x for x, _ in pts)
    n = len(pts)
    for i in range(n):
        (x1, y1), (x2, y2) = pts[i], pts[(i + 1) % n]
        if x1 == x2 == x_max:
            step = 1 if y2 > y1 else -1
            a, b = y1 + step, y2 - step
            notch = [(x_max, a), (x_max - 1, a), (x_max - 1, b), (x_max, b)]
            return pts[: i + 1] + notch + pts[i + 1 :]
    raise ValueError("ring has no vertical edge on its right boundary")


def _moved(ring, rng: random.Random) -> list[tuple[int, int]]:
    """The same shape translated, maybe flipped in y, started at another
    vertex and maybe listed clockwise."""
    sy = rng.choice((1, -1))
    dx, dy = rng.randint(-1000, 1000), rng.randint(-1000, 1000)
    pts = [(x + dx, sy * y + dy) for x, y in ring]
    start = rng.randrange(len(pts))
    pts = pts[start:] + pts[:start]
    if rng.random() < 0.5:
        pts.reverse()
    return pts


def _approx_large(seed: int, smoke: bool) -> list[Doc]:
    docs = []
    for slabs, accepted, rejected in APPROX_SMOKE if smoke else APPROX_LADDER:
        for j in range(accepted + rejected):
            doc_id = f"s{slabs}-a{j}" if j < accepted else f"s{slabs}-r{j - accepted}"
            shape = polytx.random_monotone(slabs, 20, 4, slabs * 1000 + j)
            ring = _moved(shape.input_vertices, random.Random(f"{seed}/{doc_id}"))
            if j < accepted:
                docs.append(Doc(doc_id, _text(ring), slabs))
            else:
                docs.append(Doc(doc_id, _text(notched(ring)), slabs, reason=REJECT_REASON))
    random.Random(seed).shuffle(docs)
    return docs


def _exact_enum(seed: int, smoke: bool) -> list[Doc]:
    docs = []
    for j in EXACT_SMOKE if smoke else range(EXACT_POOL):
        slabs, k = 14 + j % 7, (j // 7) % 3
        shape = polytx.random_monotone(slabs, 8, 4, j)
        ring = _moved(shape.input_vertices, random.Random(f"{seed}/p{j}"))
        docs.append(Doc(f"p{j}", _text(ring), slabs, k=k))
        if j % 4 == 0:
            docs.append(Doc(f"p{j}-r", _text(notched(ring)), slabs, reason=REJECT_REASON))
    random.Random(seed).shuffle(docs)
    return docs


def _corpus_compare(seed: int, smoke: bool) -> list[Doc]:
    accepted, rejected = CORPUS_SMOKE if smoke else (CORPUS_ACCEPTED, CORPUS_REJECTED)
    base = seed * 100_000
    docs = [
        Doc(f"c{i - base}", _text(p.input_vertices), len(p.profile.spans))
        for i, p in polytx.corpus(accepted, seed0=base)
    ]
    for i, p in polytx.corpus(rejected, seed0=base + 50_000):
        docs.append(
            Doc(f"r{i - base - 50_000}", _text(notched(p.input_vertices)),
                len(p.profile.spans), reason=REJECT_REASON)
        )
    random.Random(seed).shuffle(docs)
    return docs


BUILDERS = {
    "approx_large": _approx_large,
    "exact_enum": _exact_enum,
    "corpus_compare": _corpus_compare,
}


def build(workload: str, seed: int, smoke: bool = False) -> list[Doc]:
    """The workload's document list for this seed (a smoke list is a subset)."""
    return BUILDERS[workload](seed, smoke)
