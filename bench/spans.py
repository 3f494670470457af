"""Outside-in tracing: spans around the calls one polytx module makes into another.

The tracer replaces a function by a timing wrapper in the namespace of the
module that calls it (``polytx.approx.vis_region``, not
``polytx.visibility.vis_region``), so each span marks a layer boundary and
nothing inside the program changes.  Spans are kept in memory, one request
id per document, and written out when the run ends.  A target that no
longer exists is reported as missing, and the metrics that need it read
null instead of failing the run.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

# (calling module, attribute, span name, size of the result or None).  A
# dotted attribute reaches a method through its class.
WRAPS = (
    ("polytx.geometry", "parse_polygon", "geometry.parse", None),
    ("polytx.approx", "approximate_2transmitters", "approx.solve", None),
    ("polytx.exact", "exact_min_transmitters", "exact.solve", None),
    ("polytx.approx", "edge_aligned_candidates", "candidates.family", len),
    ("polytx.exact", "edge_aligned_candidates", "candidates.family", len),
    ("polytx.approx", "canonical", "candidates.canonical", None),
    ("polytx.approx", "build_grid", "geometry.build_grid", lambda g: g.nx * g.ny),
    ("polytx.exact", "build_grid", "geometry.build_grid", lambda g: g.nx * g.ny),
    ("polytx.approx", "cut_right", "geometry.cut_right", None),
    ("polytx.approx", "vis_region", "visibility.vis_region", None),
    ("polytx.exact", "vis_region", "visibility.vis_region", None),
    ("polytx.approx", "vh_finder", "approx.finder", None),
    ("polytx.approx", "hv_finder", "approx.finder", None),
    ("polytx.approx", "Solution.build", "approx.verify", None),
)
REJECT_SPAN = "geometry.reject"  # a geometry.parse span that raised
ROOT_SPAN = "bench.request"

# Span record fields, kept as lists for speed while tracing.
RID, NAME, PARENT, START, END, SIZE = range(6)


class Tracer:
    """Installs the wrappers on enter and restores the originals on exit."""

    def __init__(self):
        self.spans: list[list] = []
        self.missing: set[str] = set()
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []
        self.rid = -1

    def __enter__(self) -> "Tracer":
        for module, dotted, name, size in WRAPS:
            *outer, attr = dotted.split(".")
            try:
                owner = importlib.import_module(module)
                for part in outer:
                    owner = getattr(owner, part)
                raw = vars(owner)[attr]
            except (ImportError, AttributeError, KeyError):
                self.missing.add(name)
                continue
            self._saved.append((owner, attr, raw))
            if isinstance(raw, staticmethod):
                setattr(owner, attr, staticmethod(self._wrap(raw.__func__, name, size)))
            else:
                setattr(owner, attr, self._wrap(raw, name, size))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    def _wrap(self, fn, name: str, size):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [self.rid, name, stack[-1], 0.0, 0.0, None]
            spans.append(rec)
            stack.append(len(spans) - 1)
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                if name == "geometry.parse":
                    rec[NAME] = REJECT_SPAN
                raise
            finally:
                rec[END] = clock()
                stack.pop()
            if size is not None:
                try:
                    rec[SIZE] = size(out)
                except (AttributeError, TypeError):
                    pass
            return out

        return traced

    @contextmanager
    def request(self, rid: int):
        """The root span of one request; spans opened inside carry its id."""
        self.rid = rid
        rec = [rid, ROOT_SPAN, -1, time.perf_counter(), 0.0, None]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            rec[END] = time.perf_counter()
            self._stack.pop()


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Children run inside their parent on one thread, so their intervals are
    disjoint and summing them is exact.
    """
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def aggregate(spans: list[list]) -> dict[str, list]:
    """Span name -> [calls, self seconds, summed result size]."""
    out: dict[str, list] = {}
    for s, own in zip(spans, self_times(spans)):
        agg = out.setdefault(s[NAME], [0, 0.0, 0])
        agg[0] += 1
        agg[1] += own
        agg[2] += s[SIZE] or 0
    return out


def growth_view(spans: list[list], docs, counters) -> list[dict]:
    """ROADMAP baseline rows from a traced approx_large pass, by slab count.

    ``validate`` is the parse span of each accepted document, ``all regions``
    the vis_region calls of the first greedy round (before the first
    cut_right), and ``approx`` the whole approximate_2transmitters call.
    Each is the median over the documents of one size.
    """
    per_doc: dict[int, dict] = {}
    for i, s in enumerate(spans):
        d = per_doc.setdefault(s[RID], {"regions": 0.0, "cut": None})
        if s[NAME] == "geometry.parse":
            d["validate"] = s[END] - s[START]
        elif s[NAME] == "approx.solve":
            d["approx"] = s[END] - s[START]
            d["solve_idx"] = i
        elif s[NAME] == "geometry.cut_right" and d["cut"] is None:
            d["cut"] = s[START]
    for s in spans:
        d = per_doc[s[RID]]
        if s[NAME] == "visibility.vis_region" and s[PARENT] == d.get("solve_idx"):
            if d["cut"] is None or s[START] < d["cut"]:
                d["regions"] += s[END] - s[START]
    by_size: dict[int, list] = {}
    for rid, d in per_doc.items():
        if "approx" in d:
            by_size.setdefault(docs[rid].slabs, []).append((d, counters[rid]))
    rows = []
    for slabs in sorted(by_size):
        group = by_size[slabs]
        rows.append({
            "slabs": slabs,
            "docs": len(group),
            "m": med(c["m"] for _, c in group),
            "candidates": med(c["candidates"] for _, c in group),
            "cells": med(c["cells"] for _, c in group),
            "validate_ms": med(d["validate"] * 1e3 for d, _ in group),
            "all_regions_ms": med(d["regions"] * 1e3 for d, _ in group),
            "approx_ms": med(d["approx"] * 1e3 for d, _ in group),
        })
    return rows


def med(values):
    """Median of the values present, or None when every one is absent."""
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def write_spans(path: Path, spans: list[list], docs) -> None:
    """One JSON object per span; ``parent`` indexes the same file's lines."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as out:
        for s in spans:
            out.write(json.dumps({
                "request": s[RID],
                "doc": docs[s[RID]].id,
                "name": s[NAME],
                "parent": s[PARENT],
                "start": s[START],
                "end": s[END],
                "size": s[SIZE],
            }) + "\n")
