"""End-to-end benchmark for polytx, with an optional per-layer trace.

    python3 bench/run.py --workload approx_large --seed 0 --seconds 25 --trace 0

Each workload is a closed loop: one client in one process and one thread
sends a request, waits for the answer, then sends the next.  A request is
one JSON polygon document; the server side is ``parse_polygon``, the
workload's solver(s) and ``Solution.to_json_dict()``.  Set-up builds the
documents from ``--seed`` (see workloads.py); a run is a whole number of
passes over that fixed list, repeated until ``--seconds`` have elapsed.
After timing, every answer is checked (outside the timed region) and the
last line of output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.

Times are reported at a fixed reference speed: a reference loop is timed
between blocks of requests and around each set-up, and each block's times
are scaled by it (speed.py), because a shared host's speed drifts by more
than any useful bound within a run.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics (spans.py):
self times, call counts and sizes per layer, plus the tracing overhead.
``--smoke`` runs a few documents of each workload, for a check in seconds.
``--write-golden`` freezes the default seed's answers as the golden file
that later runs on that seed must reproduce.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from array import array
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"

sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
try:
    import polytx
    from oracles import covered_area
    from polytx import approx, exact, geometry

    import spans
    import speed
    import workloads
except ImportError as exc:
    sys.exit(f"bench: cannot import polytx and its test oracles from {ROOT}: {exc}")
if not Path(polytx.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"bench: polytx was imported from {polytx.__file__}, not from {ROOT / 'src'}")

DEFAULT_SEED = 0
SETUPS = 3  # documents are built at least this many times; setup_s is the median
SETUP_MIN_S = 1.0  # and until the builds add up to this, so cheap ones are sampled more
ORACLE_MAX_VERTICES = 80  # brute-force coverage check only below this size
EXACT_BUDGET = 8

# (name, unit, better, bound): the metrics of every --trace 0 run.
END_TO_END = (
    ("docs_per_s", "1/s", "higher", 0.25),
    ("doc_ms_p50", "ms", "lower", 0.25),
    ("doc_ms_tail", "ms", "lower", 0.25),
    ("reject_ms_p50", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
)

# (name, unit, better, spans it needs, end-to-end metric it should move).
PER_LAYER = (
    ("geometry.parse_s", "s", "lower", ("geometry.parse",),
     "doc_ms_p50 on approx_large (validate is O(n^2))"),
    ("geometry.reject_s", "s", "lower", ("geometry.parse",),
     "reject_ms_p50 on approx_large"),
    ("geometry.build_grid_s", "s", "lower", ("geometry.build_grid",),
     "docs_per_s on approx_large (a grid per remainder); fixed cost on corpus_compare"),
    ("geometry.build_grid_calls", "count", "lower", ("geometry.build_grid",),
     "docs_per_s on approx_large"),
    ("geometry.cells", "count", "lower", ("geometry.build_grid",),
     "docs_per_s on approx_large"),
    ("geometry.cut_right_calls", "count", "lower", ("geometry.cut_right",),
     "docs_per_s on approx_large"),
    ("candidates.family_s", "s", "lower", ("candidates.family", "candidates.canonical"),
     "docs_per_s on approx_large"),
    ("candidates.family_size", "count", "lower", ("candidates.family",),
     "docs_per_s on approx_large"),
    ("visibility.vis_region_s", "s", "lower", ("visibility.vis_region",),
     "docs_per_s and doc_ms_p50 on approx_large; no change on exact_enum"),
    ("visibility.vis_region_calls", "count", "lower", ("visibility.vis_region",),
     "docs_per_s on approx_large"),
    ("visibility.vis_region_us", "us", "lower", ("visibility.vis_region",),
     "docs_per_s and doc_ms_p50 on approx_large"),
    ("approx.self_s", "s", "lower", ("approx.solve",),
     "docs_per_s on approx_large"),
    ("approx.finder_s", "s", "lower", ("approx.finder",),
     "docs_per_s on approx_large"),
    ("approx.rounds", "count", "lower", (),
     "docs_per_s on approx_large"),
    ("approx.regions_per_round", "count", "lower", ("approx.solve", "visibility.vis_region"),
     "docs_per_s on approx_large (falls only if regions stop being rebuilt; may raise peak_rss_mb)"),
    ("approx.verify_s", "s", "lower", ("approx.verify",),
     "docs_per_s on every workload"),
    ("exact.search_s", "s", "lower", ("exact.solve",),
     "doc_ms_tail and docs_per_s on exact_enum; barely corpus_compare"),
    ("exact.subsets", "count", "lower", (),
     "doc_ms_tail and docs_per_s on exact_enum"),
    ("exact.hit_ratio", "ratio", "higher", (),
     "doc_ms_tail on exact_enum"),
    ("trace.wall_s", "s", "lower", (), "the traced pass; compare with docs_per_s"),
    ("trace.overhead_s", "s", "lower", (), "traced minus untraced pass wall time"),
)


def serve(workload: str, doc: workloads.Doc) -> dict:
    """One request as a client sees it: the answer document or the error reason.

    Functions are looked up on their modules at call time so that a traced
    pass goes through the tracer's wrappers.
    """
    try:
        p = geometry.parse_polygon(doc.text)
    except polytx.InvalidPolygonError as exc:
        return {"error": exc.reason}
    if workload == "approx_large":
        return approx.approximate_2transmitters(p).to_json_dict()
    if workload == "exact_enum":
        return exact.exact_min_transmitters(
            p, doc.k, mode="standard", budget=EXACT_BUDGET
        ).to_json_dict()
    a = approx.approximate_2transmitters(p)
    e = exact.exact_min_transmitters(p, 2, mode="standard", budget=EXACT_BUDGET)
    return {"approx": a.to_json_dict(), "exact": e.to_json_dict(), "ratio": a.count / e.count}


def run_pass(workload, docs, meter, tracer=None) -> tuple[list, list[float], list[dict]]:
    """Send every document once, in order.

    Returns (blocks, latencies, answers).  Requests run in blocks of at
    least speed.BLOCK_S with a speed sample between blocks; a block is
    (start, end, busy seconds, first request, end request).  Latencies and
    busy seconds leave out the time spent sampling; `calibrate` turns them
    into reference seconds once the run is over.
    """
    gc.collect()
    clock = time.perf_counter
    latencies, answers, blocks = [], [], []
    meter.sample()
    block_start, block_paused = clock(), meter.paused
    for rid, doc in enumerate(docs):
        paused, t0 = meter.paused, clock()
        try:
            if tracer is None:
                answer = serve(workload, doc)
            else:
                with tracer.request(rid):
                    answer = serve(workload, doc)
        except Exception:  # a failed request is counted, and the loop goes on
            answer = {"exception": traceback.format_exc(limit=4)}
        t1, p1 = clock(), meter.paused
        latencies.append(t1 - t0 - (p1 - paused))
        answers.append(answer)
        if t1 - block_start >= speed.BLOCK_S or rid == len(docs) - 1:
            first = blocks[-1][4] if blocks else 0
            blocks.append((block_start, t1, t1 - block_start - (p1 - block_paused),
                           first, len(latencies)))
            meter.sample()
            block_start, block_paused = clock(), meter.paused
    return blocks, latencies, answers


def calibrate(meter, blocks, latencies=None) -> float:
    """The pass's time in reference seconds; scales its latencies, if given,
    to reference seconds in place."""
    total = 0.0
    for start, end, busy, first, stop in blocks:
        factor = meter.factor(start, end)
        total += busy * factor
        if latencies is not None:
            for i in range(first, stop):
                latencies[i] *= factor
    return total


def comparable(answer: dict) -> dict:
    """The answer without exact ``iterations``, whose meaning may be redefined."""
    if str(answer.get("solver", "")).startswith("exact"):
        return {k: v for k, v in answer.items() if k != "iterations"}
    if "exact" in answer:
        return {**answer, "exact": comparable(answer["exact"])}
    return answer


def solutions(workload: str, doc, answer: dict) -> list[tuple[dict, int, str]]:
    """(solution document, k, solver) pairs an accepted answer must contain."""
    if workload == "approx_large":
        return [(answer, 2, "approx")]
    if workload == "exact_enum":
        return [(answer, doc.k, "exact")]
    return [(answer["approx"], 2, "approx"), (answer["exact"], 2, "exact")]


def check(workload: str, doc, answer: dict, golden: dict | None) -> str | None:
    """Why the answer is wrong, or None when it passes every check."""
    if doc.reason is not None:
        got = answer.get("error")
        return None if got == doc.reason else f"expected reject {doc.reason!r}, got {answer}"
    if "error" in answer or "exception" in answer:
        return f"request failed: {answer}"
    try:
        sols = solutions(workload, doc, answer)
        for sol, k, solver in sols:
            if (sol["solver"], sol["k"], sol["coverage"]) != (solver, k, "complete"):
                return f"{solver}: wrong header or incomplete coverage: {sol}"
            if sol["count"] != len(sol["transmitters"]) or sol["count"] < 1:
                return f"{solver}: count does not match the transmitters"
        if workload == "corpus_compare":
            a, e = answer["approx"], answer["exact"]
            if not a["count"] <= 2 * e["count"] or answer["ratio"] != a["count"] / e["count"]:
                return f"ratio above 2: approx {a['count']}, exact {e['count']}"
            if not a["iterations"] <= e["count"]:
                return f"approx rounds {a['iterations']} exceed the optimum {e['count']}"
        if len(json.loads(doc.text)["vertices"]) <= ORACLE_MAX_VERTICES:
            p = geometry.parse_polygon(doc.text)
            for sol, k, solver in sols:
                txs = [polytx.Transmitter.from_input(t) for t in sol["transmitters"]]
                if not covered_area(p, txs, k):
                    return f"{solver}: the brute-force oracle finds an uncovered cell"
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed answer ({exc!r}): {answer}"
    if golden is not None and comparable(answer) != golden.get(doc.id):
        return "differs from the golden answer"
    return None


def counters(workload: str, doc, answer: dict) -> dict:
    """Size counters of one document: input, pipeline and solver sizes."""
    c = dict.fromkeys(("vertices", "m", "candidates", "cells", "rounds", "subsets"))
    c["slabs"] = doc.slabs
    if doc.reason is not None:
        c["vertices"] = len(json.loads(doc.text)["vertices"])
        return c
    p = geometry.parse_polygon(doc.text)
    c["vertices"], c["m"] = len(p.vertices), p.m
    try:
        c["candidates"] = len(polytx.candidates.edge_aligned_candidates(p.profile))
        grid = polytx.build_grid(p.profile)
        c["cells"] = grid.nx * grid.ny
    except AttributeError:
        pass  # a renamed helper leaves its counter empty
    for sol, _, solver in solutions(workload, doc, answer):
        c["rounds" if solver == "approx" else "subsets"] = sol["iterations"]
    return c


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with >= 10 samples above;
    the maximum when there are too few samples for that."""
    ordered = sorted(values)
    idx = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    return ordered[idx], 100.0 * (idx + 1) / len(ordered)


class Setup:
    """Builds the workload's documents and times each build.

    The first build happens before timing; the others are spread over the
    run, between passes, so that setup_s samples the machine in the same
    states as the passes do rather than only at process start.
    """

    def __init__(self, workload: str, seed: int, smoke: bool, meter):
        self.args = (workload, seed, smoke)
        self.meter = meter
        self.builds: list[tuple[float, float, float]] = []  # (start, end, busy seconds)
        self.agree = True
        self.docs = self.build()

    def build(self) -> list:
        clock, meter = time.perf_counter, self.meter
        meter.sample()
        paused, t0 = meter.paused, clock()
        docs = workloads.build(*self.args)
        t1 = clock()
        self.builds.append((t0, t1, t1 - t0 - (meter.paused - paused)))
        meter.sample()
        if len(self.builds) > 1:
            self.agree = self.agree and docs == self.docs
        return docs

    def due(self, elapsed: float, seconds: float) -> bool:
        return len(self.builds) < SETUPS and elapsed >= len(self.builds) * seconds / SETUPS

    def seconds(self) -> list[float]:
        """Each build's time in reference seconds (after the meter settled)."""
        return [busy * self.meter.factor(t0, t1) for t0, t1, busy in self.builds]


def layer_metrics(workload, tracer, docs, answers, wall) -> dict:
    """Per-layer values of one traced pass (times in measured seconds of
    that pass).  ``measure`` adds trace.overhead_s once the run is over.
    """
    trace_spans = tracer.spans
    agg = spans.aggregate(trace_spans)
    calls = {name: a[0] for name, a in agg.items()}
    busy = {name: a[1] for name, a in agg.items()}
    size = {name: a[2] for name, a in agg.items()}
    # vis_region calls made by the greedy loop itself, not by Solution.build
    in_rounds = sum(
        1 for s in trace_spans
        if s[spans.NAME] == "visibility.vis_region" and s[spans.PARENT] >= 0
        and trace_spans[s[spans.PARENT]][spans.NAME] == "approx.solve"
    )
    rounds = subsets = exact_solves = 0
    for doc, answer in zip(docs, answers):
        if doc.reason is None and "error" not in answer and "exception" not in answer:
            for sol, _, solver in solutions(workload, doc, answer):
                if solver == "approx":
                    rounds += sol["iterations"]
                else:
                    subsets += sol["iterations"]
                    exact_solves += 1
    vr_calls, vr_s = calls.get("visibility.vis_region", 0), busy.get("visibility.vis_region", 0.0)
    values = {
        "geometry.parse_s": busy.get("geometry.parse", 0.0),
        "geometry.reject_s": busy.get(spans.REJECT_SPAN, 0.0),
        "geometry.build_grid_s": busy.get("geometry.build_grid", 0.0),
        "geometry.build_grid_calls": calls.get("geometry.build_grid", 0),
        "geometry.cells": size.get("geometry.build_grid", 0),
        "geometry.cut_right_calls": calls.get("geometry.cut_right", 0),
        "candidates.family_s": busy.get("candidates.family", 0.0)
        + busy.get("candidates.canonical", 0.0),
        "candidates.family_size": size.get("candidates.family", 0),
        "visibility.vis_region_s": vr_s,
        "visibility.vis_region_calls": vr_calls,
        "visibility.vis_region_us": vr_s / vr_calls * 1e6 if vr_calls else 0.0,
        "approx.self_s": busy.get("approx.solve", 0.0),
        "approx.finder_s": busy.get("approx.finder", 0.0),
        "approx.rounds": rounds,
        "approx.regions_per_round": in_rounds / rounds if rounds else 0.0,
        "approx.verify_s": busy.get("approx.verify", 0.0),
        "exact.search_s": busy.get("exact.solve", 0.0),
        "exact.subsets": subsets,
        "exact.hit_ratio": exact_solves / subsets if subsets else 0.0,
        "trace.wall_s": wall,
    }
    for name, _, _, needs, _ in PER_LAYER:
        if tracer.missing.intersection(needs):
            values[name] = None
    return values


def measure(workload, setup: Setup, seconds, traced, meter) -> dict:
    """Whole passes until `seconds` have elapsed; with `traced`, untraced and
    traced passes alternate.  Traced passes take no speed samples inside
    requests, so that the samples do not show up in their spans.

    Only the first pass's answers are kept.  Each later pass is compared with
    them between passes and dropped, so memory does not grow with the number
    of passes and peak_rss_mb does not depend on how fast the program is.
    """
    runs = {"walls": [], "latencies": [], "answers": None, "differ": set(), "passes": 0,
            "layers": [], "tracer": None}

    def keep(answers):
        runs["passes"] += 1
        if runs["answers"] is None:
            runs["answers"] = answers
        else:
            runs["differ"].update(
                i for i, (a, b) in enumerate(zip(answers, runs["answers"])) if a != b)

    docs = setup.docs
    untraced, traced_blocks = [], []
    start = time.perf_counter()
    while not untraced or time.perf_counter() - start < seconds:
        if setup.due(time.perf_counter() - start, seconds):
            setup.build()
        blocks, latencies, answers = run_pass(workload, docs, meter)
        untraced.append((blocks, array("d", latencies)))
        keep(answers)
        if traced:
            with spans.Tracer() as tracer, meter.quiet():
                blocks, _, answers = run_pass(workload, docs, meter, tracer)
            keep(answers)
            wall = sum(b[2] for b in blocks)
            traced_blocks.append(blocks)
            runs["layers"].append(layer_metrics(workload, tracer, docs, answers, wall))
            runs["tracer"] = (tracer, wall)
    runs["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while len(setup.builds) < SETUPS or sum(b[2] for b in setup.builds) < SETUP_MIN_S:
        setup.build()
    meter.settle()
    for blocks, latencies in untraced:
        runs["walls"].append(calibrate(meter, blocks, latencies))
        runs["latencies"].append(latencies)
    # the overhead of a traced pass is against the untraced pass just before it
    for layers, blocks, untraced_wall in zip(runs["layers"], traced_blocks, runs["walls"]):
        layers["trace.overhead_s"] = calibrate(meter, blocks) - untraced_wall
    if runs["layers"]:
        runs["tracer"] += (runs["layers"][-1]["trace.overhead_s"],)
    return runs


def end_to_end(docs, runs, setup_s) -> tuple[dict, str]:
    """Metric values of the untraced passes, and a note on the tail sample.

    Times are in reference seconds (speed.py), scaled to ms where named so.
    A document's latency is its median over the passes.
    """
    per_doc = [statistics.median(lat[i] for lat in runs["latencies"]) for i in range(len(docs))]
    accepted = [t for d, t in zip(docs, per_doc) if d.reason is None]
    rejected = [t for d, t in zip(docs, per_doc) if d.reason is not None]
    tail_value, tail_pct = tail(accepted)
    values = {
        "docs_per_s": len(docs) * len(runs["walls"]) / sum(runs["walls"]),
        "doc_ms_p50": statistics.median(accepted) * 1e3,
        "doc_ms_tail": tail_value * 1e3,
        "reject_ms_p50": statistics.median(rejected) * 1e3,
        "peak_rss_mb": runs["peak_rss_mb"],
        "setup_s": setup_s,
    }
    note = (f"doc_ms_tail is p{tail_pct:.1f} of {len(accepted)} accepted documents "
            f"(each the median of {len(runs['walls'])} passes)")
    return values, note


def per_layer(runs) -> dict:
    """Median over the traced passes of each per-layer value."""
    out = {}
    for name, *_ in PER_LAYER:
        got = [m[name] for m in runs["layers"] if m[name] is not None]
        out[name] = statistics.median_low(got) if got else None
    return out


def print_layers(workload, docs, counts, runs):
    tracer, wall, overhead = runs["tracer"]
    agg = spans.aggregate(tracer.spans)
    print(f"per-layer self time, last traced pass of {wall:.3f} s "
          f"(tracing overhead {overhead:+.3f} s against the untraced pass before it):")
    print(f"  {'span':<24}{'calls':>10}{'self s':>12}{'share':>9}")
    for name, (calls, self_s, _) in sorted(agg.items(), key=lambda kv: -kv[1][1]):
        print(f"  {name:<24}{calls:>10}{self_s:>12.4f}{self_s / wall:>9.1%}")
    gap = wall - sum(a[1] for a in agg.values())
    print(f"  self times sum to the pass wall time less {gap:.4f} s of loop bookkeeping, "
          f"{'within' if abs(gap) <= abs(overhead) else 'outside'} the tracing overhead")
    if tracer.missing:
        print(f"  absent (target renamed or deleted): {', '.join(sorted(tracer.missing))}")
    if workload == "approx_large":
        print("growth by slab count (medians over the documents of each size):")
        print(f"  {'slabs':>6}{'docs':>6}{'m':>7}{'cands':>7}{'cells':>7}"
              f"{'validate ms':>13}{'all regions ms':>16}{'approx ms':>11}")
        widths = {"slabs": 6, "docs": 6, "m": 7, "candidates": 7, "cells": 7,
                  "validate_ms": 13, "all_regions_ms": 16, "approx_ms": 11}
        for row in spans.growth_view(tracer.spans, docs, counts):
            print("  " + "".join(
                f"{'-' if row[k] is None else round(row[k], 2):>{w}}" for k, w in widths.items()))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="a few documents only")
    ap.add_argument("--write-golden", action="store_true",
                    help="freeze this run's answers (default seed only)")
    args = ap.parse_args(argv)
    if args.write_golden and (args.seed != DEFAULT_SEED or args.smoke):
        ap.error("--write-golden needs the default seed and the full document list")
    workload = args.workload

    with speed.Meter() as meter:
        setup = Setup(workload, args.seed, args.smoke, meter)
        docs = setup.docs
        # Warm up imports and lazy state on the smallest request of each kind.
        for kind in (True, False):
            serve(workload, min((d for d in docs if (d.reason is None) == kind),
                                key=lambda d: len(d.text)))
        runs = measure(workload, setup, args.seconds, args.trace == 1, meter)

    golden_path = BENCH / "golden" / f"{workload}.json"
    golden = None
    if args.seed == DEFAULT_SEED and not args.write_golden:
        golden = json.loads(golden_path.read_text(encoding="utf-8"))
    first = runs["answers"]
    problems: dict[int, str] = {}
    for i, doc in enumerate(docs):
        why = check(workload, doc, first[i], golden)
        if why is None and i in runs["differ"]:
            why = "answers differ between passes"
        if why is not None:
            problems[i] = why
    attempted = len(docs) * runs["passes"]
    failed = len(problems) * runs["passes"]
    counts = [counters(workload, d, a) for d, a in zip(docs, first)]
    digest = hashlib.sha256(json.dumps(counts, sort_keys=True).encode()).hexdigest()[:16]
    correct = not problems and setup.agree

    n_rej = sum(d.reason is not None for d in docs)
    print(f"workload {workload}, seed {args.seed}{' (smoke)' if args.smoke else ''}: "
          f"{len(docs)} documents ({len(docs) - n_rej} accepted, {n_rej} rejects), "
          f"{len(runs['walls'])} untraced and {len(runs['layers'])} traced passes")
    totals = {k: sum(c[k] or 0 for c in counts)
              for k in ("vertices", "m", "slabs", "candidates", "cells", "rounds", "subsets")}
    print("size counters per pass: " + ", ".join(f"{k} {v}" for k, v in totals.items())
          + f"; digest {digest}")
    print(f"checks: {len(docs) - len(problems)}/{len(docs)} documents pass"
          f"{'' if golden is None else ' (golden answers compared)'}"
          f"{'' if setup.agree else '; SET-UPS DISAGREE'}; fail_frac {failed / attempted:.4f}")
    for i, why in list(problems.items())[:10]:
        print(f"  FAIL {docs[i].id}: {why[:300]}")

    if args.trace == 0:
        values, note = end_to_end(docs, runs, statistics.median(setup.seconds()))
        table = {name: (unit, better, "") for name, unit, better, _ in END_TO_END}
        print(note)
    else:
        values = per_layer(runs)
        table = {name: (unit, better, f"  -> {moves}")
                 for name, unit, better, _, moves in PER_LAYER}
        print_layers(workload, docs, counts, runs)
        spans.write_spans(OUT / f"spans-{workload}-seed{args.seed}.jsonl",
                          runs["tracer"][0].spans, docs)
    for name, value in values.items():
        unit, better, moves = table[name]
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"  {name} = {shown} {unit} ({better} is better){moves}")

    if args.write_golden:
        if not correct:
            print("not writing the golden file: the run has failures", file=sys.stderr)
            return 1
        frozen = {d.id: comparable(a) for d, a in zip(docs, first)}
        golden_path.parent.mkdir(exist_ok=True)
        golden_path.write_text(json.dumps(frozen, sort_keys=True, indent=0) + "\n",
                               encoding="utf-8")
        print(f"wrote {golden_path.relative_to(ROOT)}")

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": table[n][0]} for n, v in values.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
