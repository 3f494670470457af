"""The benchmark tracer wraps polytx functions by name; every name must resolve.

bench/spans.py reports a missing target as a null metric rather than an
error, so a refactor that drops a traced call site would otherwise go
unnoticed until someone reads a trace.
"""

import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def wraps():
    sys.path.insert(0, str(BENCH))
    try:
        import spans
    finally:
        sys.path.remove(str(BENCH))
    return spans.WRAPS


def test_every_trace_target_resolves(wraps):
    missing = []
    for module, dotted, _, _ in wraps:
        *outer, attr = dotted.split(".")
        owner = importlib.import_module(module)
        for part in outer:
            owner = getattr(owner, part, None)
        if owner is None or attr not in vars(owner):
            missing.append(f"{module}.{dotted}")
    assert wraps and missing == []
