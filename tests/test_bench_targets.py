"""The benchmark calls and wraps polytx functions; every call must still bind.

bench/spans.py reports a missing target as a null metric rather than an
error, so a refactor that drops a traced call site would otherwise go
unnoticed until someone reads a trace.  bench/run.py's solver calls fail
only when the benchmark runs, which the test suite does not do, and its
size counters come out empty when a helper they call is renamed.
"""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

import polytx as px
from polytx.approx import approximate_2transmitters
from polytx.exact import exact_min_transmitters

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def wraps():
    sys.path.insert(0, str(BENCH))
    try:
        import spans
    finally:
        sys.path.remove(str(BENCH))
    return spans.WRAPS


@pytest.fixture(scope="module")
def bench_run():
    # run.py puts src/ and tests/ in front of sys.path on import.
    saved = list(sys.path)
    sys.path.insert(0, str(BENCH))
    try:
        import run
    finally:
        sys.path[:] = saved
    return run


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


def test_bench_solver_calls_bind():
    # The argument forms bench/run.py uses; a dropped keyword would break
    # only the benchmark run.
    p = px.fixture("RECT")
    inspect.signature(exact_min_transmitters).bind(p, 0, mode="standard", budget=8)
    inspect.signature(approximate_2transmitters).bind(p)


@pytest.mark.parametrize("workload", ["exact_enum", "corpus_compare"])
def test_size_counters_are_filled(bench_run, workload):
    # counters() leaves a counter empty when a helper it calls is renamed.
    doc = next(d for d in bench_run.workloads.build(workload, 0, smoke=True) if d.reason is None)
    c = bench_run.counters(workload, doc, bench_run.serve(workload, doc))
    assert None not in (c["vertices"], c["m"], c["candidates"], c["cells"]), c
