"""SlabProfile names the same fault as its earlier two-pass judgement.

``SlabProfile.__post_init__`` judges each rule once, in a fixed order:
the breakpoint count, breakpoints, heights, then each adjacent pair.
``two_pass_judgement`` below is the judgement it replaced, kept verbatim:
a whole-profile check of all five rules, then, when any failed, a loop
that judged every rule again from the start to name the fault.  On
random small profiles, valid and broken every way, both must accept the
same ones and raise the same message for the rest.  The one place they
part is a NaN coordinate, which no comparison holds for: the second pass
found no fault and accepted the profile, and one pass rejects it.
"""

import random
from collections import Counter
from operator import le, lt, ne

import pytest

from polytx import SlabProfile


def two_pass_judgement(xs, spans) -> None:
    """The earlier SlabProfile.__post_init__, with ``self.`` dropped."""
    if len(xs) != len(spans) + 1 or not spans:
        raise ValueError("profile needs n+1 breakpoints for n >= 1 slabs")
    los, his = [lo for lo, _ in spans], [hi for _, hi in spans]
    # The whole profile at once; the loops below only name the fault.
    # With positive heights, two spans meet iff each starts below the
    # other's end.
    if (
        all(map(lt, xs, xs[1:]))
        and all(map(lt, los, his))
        and all(map(le, los[1:], his))
        and all(map(le, los, his[1:]))
        and all(map(ne, spans, spans[1:]))
    ):
        return
    if any(a >= b for a, b in zip(xs, xs[1:])):
        raise ValueError("breakpoints must increase strictly")
    for lo, hi in spans:
        if lo >= hi:
            raise ValueError("slab span must have positive height")
    for (a, b), (c, d) in zip(spans, spans[1:]):
        if max(a, c) > min(b, d):
            raise ValueError("adjacent slab spans must intersect")
        if (a, b) == (c, d):
            raise ValueError("adjacent slab spans must differ")


def outcome(judge, xs, spans) -> str | None:
    """None when judge accepts the profile, else its ValueError message."""
    try:
        judge(xs, spans)
    except ValueError as exc:
        return str(exc)
    return None


def random_profile(rng: random.Random) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
    """1-6 slabs on a small lattice, so that repeated and falling
    breakpoints, flat and upside-down spans, and disjoint and equal
    neighbours all come up, besides valid profiles."""
    n = rng.randint(1, 6)
    steps = (1, 2, 3) if rng.random() < 0.8 else (-1, 0, 1, 2)
    xs = [rng.randint(-3, 3)]
    for _ in range(rng.choice((n, n, n, n, n, n, n - 1, n + 1))):
        xs.append(xs[-1] + rng.choice(steps))
    spans: list[tuple[int, int]] = []
    for _ in range(n):
        if spans and rng.random() < 0.1:
            spans.append(spans[-1])
            continue
        lo = rng.randint(0, 6)
        height = rng.randint(1, 3) if rng.random() < 0.95 else rng.randint(-2, 0)
        spans.append((lo, lo + height))
    return tuple(xs), tuple(spans)


def test_same_fault_as_the_two_pass_judgement():
    rng = random.Random(20151)
    seen: Counter = Counter()
    for _ in range(100_000):
        xs, spans = random_profile(rng)
        want = outcome(two_pass_judgement, xs, spans)
        assert outcome(SlabProfile, xs, spans) == want, (xs, spans)
        seen[want] += 1
    # every outcome occurs, valid profiles included
    assert set(seen) == {
        None,
        "profile needs n+1 breakpoints for n >= 1 slabs",
        "breakpoints must increase strictly",
        "slab span must have positive height",
        "adjacent slab spans must intersect",
        "adjacent slab spans must differ",
    }
    assert min(seen.values()) >= 1_000, seen


@pytest.mark.parametrize(
    "xs, spans, message",
    [
        ((0, float("nan"), 2), ((0, 1), (0, 2)), "breakpoints must increase strictly"),
        ((0, 1, 2), ((0, float("nan")), (0, 2)), "slab span must have positive height"),
    ],
    ids=["breakpoint", "height"],
)
def test_nan_is_rejected(xs, spans, message):
    assert outcome(two_pass_judgement, xs, spans) is None
    assert outcome(SlabProfile, xs, spans) == message
