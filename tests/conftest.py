import pytest

import polytx as px

FIXTURE_NAMES = ("RECT", "VALLEY", "STAIR3", "STAIR6", "GAP7")


@pytest.fixture(scope="session")
def polys() -> dict[str, px.OrthoPolygon]:
    return {name: px.fixture(name) for name in FIXTURE_NAMES}


@pytest.fixture(scope="session")
def small_corpus() -> list[px.OrthoPolygon]:
    """Quick mixed bag for module-level invariant checks."""
    return [p for _, p in px.corpus(60, seed0=500)]


@pytest.fixture(scope="session")
def tractable_corpus() -> list[px.OrthoPolygon]:
    """Instances small enough for the dense solver (m <= 10 or so)."""
    return [p for _, p in px.corpus(100, max_slabs=4, max_height=6, max_width=3, seed0=10_000)]


@pytest.fixture
def stalled_finders(monkeypatch):
    """Both greedy finders return a round whose cut stays on the left edge."""

    def stalled(sweep, c):
        # the member of the vertical at the left edge, breakpoint 0
        return px.FinderResult(("v", 0, *sweep.prof.span_bands[0]), None, c)

    monkeypatch.setattr(px.approx, "vh_finder", stalled)
    monkeypatch.setattr(px.approx, "hv_finder", stalled)
