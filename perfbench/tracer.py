"""In-memory span tracer for the diskpack benchmark.

The package is not instrumented. Instead the tracer rebinds the public
functions that `diskpack.pipeline`, `diskpack.search`, `diskpack.group` and
`diskpack.render` look up at call time, so every call made through those
names records a span (name, start, end, parent, operation id) and the
counters that drive the layer's cost. `uninstall` restores the originals.

Spans stay in memory until `dump`. `summarize` turns the spans and counters
of one operation into per-layer metrics: self time (span duration minus the
time covered by its child spans), call counts and ratios.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from collections import defaultdict

# Modules whose global names are rebound. A function imported into several
# of them (`candidates` lives in search and is imported by pipeline) gets the
# same wrapper in each.
NAMESPACES = (
    "diskpack.pipeline",
    "diskpack.search",
    "diskpack.group",
    "diskpack.render",
)


def _count_distances(t, args, result):
    t.count("tess.distances.count", len(result.values))


def _count_pairings(t, args, result):
    t.count("domain.pairings.count", len(result))


def _count_candidates(t, args, result):
    t.count("search.candidates.count", len(result))


def _count_cells(t, args, result):
    points, L = args[0], args[1]
    t.count("search.compatibility_matrix.cells", len(points) * len(L))


def _count_filtering(t, args, result):
    L = args[2]
    record_filtering(
        t, [(it["covered"], it["is_center"], len(it["Lc"])) for it in result], len(L)
    )


def _count_completion(t, args, result):
    t.count("search.complete_pairing.lc_total", len(args[0]))
    t.count("search.complete_pairing.solutions", len(result))


def _count_certificate(t, args, result):
    t.count("group.certificate.passed", int(bool(result["passed"])))


def _count_reduction(t, args, result):
    t.count(f"group.reduce_to_domain.{result.strategy}")


def _count_json_bytes(t, args, result):
    t.count("pipeline.write_json.bytes", os.path.getsize(args[0]))


def _count_svg_bytes(t, args, result):
    t.count("render.render_svg.bytes", len(result.encode("utf-8")))


# (span name, defining module, function name, counter hook or None)
LAYERS = (
    ("tess.admissible_distances", "diskpack.tess", "admissible_distances", _count_distances),
    ("domain.build_domain", "diskpack.domain", "build_domain", None),
    ("domain.enumerate_pairings", "diskpack.domain", "enumerate_pairings", _count_pairings),
    ("search.candidates", "diskpack.search", "candidates", _count_candidates),
    ("search.compatibility_matrix", "diskpack.search", "compatibility_matrix", _count_cells),
    ("search.edge_coverage", "diskpack.search", "edge_coverage", None),
    ("pipeline.filter_candidates", "diskpack.pipeline", "filter_candidates", _count_filtering),
    ("search.complete_pairing", "diskpack.search", "complete_pairing", _count_completion),
    ("search.verify_topology", "diskpack.search", "verify_topology", None),
    ("group.second_packing_certificate", "diskpack.group", "second_packing_certificate", _count_certificate),
    ("group.reduce_to_domain", "diskpack.group", "reduce_to_domain", _count_reduction),
    ("pipeline.write_json", "diskpack.pipeline", "write_json", _count_json_bytes),
    ("render.render_svg", "diskpack.render", "render_svg", _count_svg_bytes),
    ("pipeline.run_pipeline", "diskpack.pipeline", "run_pipeline", None),
)

# Per-layer metrics reported by a traced run: name -> unit. Every name is
# printed on every workload; a layer a workload never enters reads 0.
PER_LAYER = {
    "tess.admissible_distances.s": "s",
    "tess.distances.count": "count",
    "domain.build_domain.s": "s",
    "domain.enumerate_pairings.s": "s",
    "domain.pairings.count": "count",
    "search.candidates.s": "s",
    "search.candidates.count": "count",
    "search.compatibility_matrix.s": "s",
    "search.compatibility_matrix.cells": "count",
    "search.edge_coverage.s": "s",
    "search.filtering.survivors": "count",
    "search.filtering.survivor_ratio": "ratio",
    "search.filtering.full_lc": "count",
    "pipeline.filter_candidates.s": "s",
    "search.complete_pairing.s": "s",
    "search.complete_pairing.calls": "count",
    "search.complete_pairing.lc_total": "count",
    "search.complete_pairing.solutions": "count",
    "search.verify_topology.s": "s",
    "search.verify_topology.calls": "count",
    "group.second_packing_certificate.s": "s",
    "group.certificate.attempts": "count",
    "group.certificate.passed": "count",
    "group.certificate.pass_ratio": "ratio",
    "group.reduce_to_domain.calls": "count",
    "group.reduce_to_domain.s": "s",
    "group.reduce_to_domain.immediate": "count",
    "group.reduce_to_domain.greedy": "count",
    "group.reduce_to_domain.bfs": "count",
    "pipeline.write_json.s": "s",
    "pipeline.write_json.bytes": "B",
    "render.render_svg.s": "s",
    "render.render_svg.bytes": "B",
    "pipeline.out_dir.bytes": "B",
    "pipeline.self.s": "s",
    "trace.overhead_s": "s",
}

# Call counts are read off the number of spans with the given name.
CALL_COUNTS = {
    "search.complete_pairing.calls": "search.complete_pairing",
    "search.verify_topology.calls": "search.verify_topology",
    "group.certificate.attempts": "group.second_packing_certificate",
    "group.reduce_to_domain.calls": "group.reduce_to_domain",
}


def filtering_counts(items, n_pairings: int) -> tuple[int, int, int]:
    """(candidates, survivors, full_lc) from (covered, is_center, |L_c|) per
    candidate.

    A survivor is a candidate whose L_c covers every boundary edge; `full_lc`
    counts the non-center survivors whose L_c is all of L.
    """
    return (
        len(items),
        sum(1 for cov, _, _ in items if cov),
        sum(1 for cov, center, n in items if cov and not center and n == n_pairings),
    )


def record_filtering(t, items, n_pairings: int) -> None:
    counts = filtering_counts(items, n_pairings)
    for name, value in zip(("candidates", "survivors", "full_lc"), counts):
        t.count(f"search.filtering.{name}", value)


class Tracer:
    """Collects spans and counters; one instance per traced process."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.op = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def count(self, name: str, value: float = 1) -> None:
        self.counts[self.op][name] += value

    def _wrap(self, name, fn, hook):
        tracer = self

        def traced(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append((name, 0.0, 0.0, parent, tracer.op))
            tracer._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[index] = (name, start, end, parent, tracer.op)
            if hook is not None:
                hook(tracer, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, only: tuple[str, ...] | None = None) -> None:
        """Rebind every layer function (or just the spans named in `only`)."""
        namespaces = [importlib.import_module(m) for m in NAMESPACES]
        for name, module, attr, hook in LAYERS:
            if only is not None and name not in only:
                continue
            original = getattr(importlib.import_module(module), attr, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original, hook)
            for ns in namespaces:
                if getattr(ns, attr, None) is original:
                    self._saved.append((ns, attr, original))
                    setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._saved):
            setattr(ns, attr, original)
        self._saved.clear()

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def dump(self, path: str, **extra) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "spans": self.spans,
                    "counts": {str(op): dict(c) for op, c in self.counts.items()},
                    **extra,
                },
                fh,
            )


def load(path: str) -> tuple[Tracer, dict]:
    """The tracer written by `dump`, and the whole object with its extras."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    t = Tracer()
    t.spans = [tuple(s) for s in data["spans"]]
    for op, c in data["counts"].items():
        t.counts[int(op)].update(c)
    return t, data


def summarize(t: Tracer) -> dict[int, dict[str, float]]:
    """Per-operation layer metrics: self time per span name, counters, ratios."""
    child_time = [0.0] * len(t.spans)
    for name, start, end, parent, _ in t.spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for i, (name, start, end, _, op) in enumerate(t.spans):
        m = out[op]
        m[f"{name}.s"] += (end - start) - child_time[i]
        m[f"{name}.n"] += 1
    for op, counts in t.counts.items():
        out[op].update(counts)
    for m in out.values():
        for metric, span in CALL_COUNTS.items():
            if f"{span}.n" in m:
                m[metric] = m[f"{span}.n"]
        if m.get("search.filtering.candidates"):
            m["search.filtering.survivor_ratio"] = (
                m["search.filtering.survivors"] / m["search.filtering.candidates"]
            )
        if "group.reduce_to_domain.n" in m:
            for strategy in ("immediate", "greedy", "bfs"):
                m.setdefault(f"group.reduce_to_domain.{strategy}", 0.0)
        if m.get("group.certificate.attempts"):
            m["group.certificate.pass_ratio"] = (
                m.get("group.certificate.passed", 0.0) / m["group.certificate.attempts"]
            )
        if "pipeline.run_pipeline.s" in m:
            m["pipeline.self.s"] = m["pipeline.run_pipeline.s"]
    return out
