"""The index-form edge-aligned family against an independent reference.

``edge_aligned_family`` builds the family as breakpoint and band indices,
and ``member_bits`` reads those indices straight (test_visibility checks it
against vis_region); ``edge_aligned_candidates`` is the family's
Transmitter view.  The reference below builds the family the direct way,
from ``SlabProfile.cross_section`` and ``oracles.runs_at``, so a change to the order
or the contents of the index family shows here.
"""

import pytest

import polytx as px
from polytx.candidates import (
    HORIZONTAL,
    VERTICAL,
    Transmitter,
    edge_aligned_candidates,
    edge_aligned_family,
    member_transmitter,
)

from oracles import runs_at

SHAPES = [
    (slabs, height, 4, seed)
    for slabs in (1, 2, 3, 5, 8, 13, 21, 40, 80)
    for height in (2, 8, 20)
    for seed in range(4)
]


def reference_family(prof: px.SlabProfile) -> list[Transmitter]:
    """The vertical at every breakpoint, then every run at every ordinate."""
    family = [Transmitter(VERTICAL, x, prof.cross_section(x)) for x in prof.xs]
    for y in prof.edge_ordinates:
        family += [Transmitter(HORIZONTAL, y, run) for run in runs_at(prof, y)]
    return family


def profiles():
    yield from (p.profile for _, p in px.corpus(300))
    yield from (px.random_monotone(*shape).profile for shape in SHAPES)


def test_valley_members_in_index_form(polys):
    # xs (0, 2, 4, 6), ordinates (0, 1, 3): the floor at y = 0 is one run,
    # and the two walls' tops at y = 3 are two.
    prof = polys["VALLEY"].profile
    assert edge_aligned_family(prof) == [
        (VERTICAL, 0, 0, 2),
        (VERTICAL, 1, 0, 2),
        (VERTICAL, 2, 0, 2),
        (VERTICAL, 3, 0, 2),
        (HORIZONTAL, 0, 0, 3),
        (HORIZONTAL, 1, 0, 3),
        (HORIZONTAL, 2, 0, 1),
        (HORIZONTAL, 2, 2, 3),
    ]
    assert member_transmitter(prof, (HORIZONTAL, 2, 2, 3)) == Transmitter(HORIZONTAL, 3, (4, 6))


def test_family_matches_the_reference_member_for_member():
    for prof in profiles():
        family = edge_aligned_family(prof)
        view = [member_transmitter(prof, m) for m in family]
        assert view == reference_family(prof)
        assert edge_aligned_candidates(prof) == tuple(view)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_exact_builds_transmitters_only_for_the_witness(monkeypatch, k):
    p = px.random_monotone(20, 8, 4, 0)
    built = []
    check = Transmitter.__post_init__

    def counted(self):
        built.append(self)
        check(self)

    monkeypatch.setattr(Transmitter, "__post_init__", counted)
    sol = px.exact_min_transmitters(p, k)
    assert len(built) == sol.count
    assert tuple(built) == sol.transmitters
