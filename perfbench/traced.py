"""Traced in-process run of one CLI command, for per-layer numbers.

    python3 perfbench/traced.py --out TRACE.json --memory-outdir DIR -- CLI-ARGV...

Imports ``coauthnet.cli`` inside a span, then wraps the public functions of
``ingest``, ``graph``, ``centrality``, ``evolve`` and ``stats`` (and the
CLI's render/write helpers) wherever a coauthnet module refers to them, and
calls ``coauthnet.cli.main`` with the workload's argv. The handler thus
calls the same functions in the same order as the untraced command, and a
composition such as ``slice_report`` shows up as its parts
(``largest_component``, ``mean_distance``) because those are looked up
through the patched module globals. The program itself is not changed.

Spans (id, name, parent, start, end) are kept in memory and written at the
end. Counts are taken from the wrapped calls' arguments and results inside
``trace.count`` spans, which are left out of every layer's self time.
Afterwards the PageRank iteration count is found by bisecting ``max_iter``,
and a second pass of the same command under ``tracemalloc`` gives the
``*_peak_mb`` values; timings come from the first pass only.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import sys
import time
import tracemalloc
from collections import Counter, defaultdict

SPAN_OF = {
    "coauthnet.ingest": {
        "parse_records": "ingest.parse",
        "filter_documents": "ingest.filter",
        "normalize_records": "ingest.normalize",
        "apply_merge_map": "ingest.merge",
        "author_citations": "ingest.citations",
    },
    "coauthnet.graph": {
        "build_graph": "graph.build",
        "connected_components": "graph.components",
        "largest_component": "graph.largest",
        "mean_distance": "graph.mean_distance",
    },
    "coauthnet.centrality": {
        "degree_centrality": "centrality.degree",
        "closeness_centrality": "centrality.closeness",
        "betweenness_centrality": "centrality.betweenness",
        "pagerank": "centrality.pagerank",
    },
    "coauthnet.evolve": {
        "cumulative_slices": "evolve.slices",
        "slice_report": "evolve.slice_report",
        "growth_series": "evolve.growth",
    },
    "coauthnet.stats": {
        "correlation_matrix": "stats.correlation",
        "ranking_profile": "stats.profile",
        "degree_distribution": "stats.degree_dist",
        "power_fit": "stats.power_fit",
    },
}
PEAK_SPANS = ("graph.build", "centrality.betweenness", "evolve.slices")
COUNT_SPAN = "trace.count"


class Tracer:
    """Span recorder; in memory mode it records tracemalloc peaks instead."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[list] = []  # [id, name, parent, start, end]
        self.stack: list[list] = []  # open frames: [span id, base bytes, running peak]
        self.peaks: dict[str, int] = {}
        self.counting = False  # inside a count hook: wrapped calls record no span

    def begin(self, name: str) -> None:
        sid = len(self.spans)
        parent = self.stack[-1][0] if self.stack else None
        frame = [sid, 0, 0]
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if self.stack:
                self.stack[-1][2] = max(self.stack[-1][2], peak)
            tracemalloc.reset_peak()
            frame[1] = frame[2] = current
        self.stack.append(frame)
        self.spans.append([sid, name, parent, time.perf_counter(), None])

    def end(self) -> None:
        sid, base, running = self.stack.pop()
        span = self.spans[sid]
        span[4] = time.perf_counter()
        if self.memory:
            peak = max(running, tracemalloc.get_traced_memory()[1])
            if self.stack:
                self.stack[-1][2] = max(self.stack[-1][2], peak)
            self.peaks[span[1]] = max(self.peaks.get(span[1], 0), peak - base)


class Counts:
    """Exact work counts, taken from the arguments and results of wrapped calls."""

    def __init__(self, originals: dict[str, object]):
        self.originals = originals
        self.values: Counter = Counter()
        self.pagerank_call = None

    def _max(self, key: str, value: int) -> None:
        self.values[key] = max(self.values[key], value)

    def observe(self, span: str, args: tuple, kwargs: dict, result) -> None:
        v = self.values
        if span == "ingest.parse":
            v["ingest.records_in"] += len(result)
        elif span == "ingest.filter":
            v["ingest.records_kept"] += len(result)
        elif span in ("ingest.normalize", "ingest.merge") and isinstance(result, list):
            v["ingest.authorships"] = sum(len(r.authors) for r in result)
            if span == "ingest.merge":
                entries = args[1].entries
                v["ingest.merge_rewrites"] += sum(a in entries for r in args[0] for a in r.authors)
        elif span == "graph.build":
            self._max("graph.vertices", len(result))
            self._max("graph.edges", result.edge_count())
        elif span == "graph.largest":
            self._max("graph.lcc_vertices", len(result[0]))
            self._max("graph.lcc_edges", result[0].edge_count())
        elif span == "graph.mean_distance":
            lcc, _ = self.originals["largest_component"](args[0])
            v["graph.bfs_sources"] += len(lcc)
            v["graph.arcs_scanned"] += len(lcc) * 2 * lcc.edge_count()
        elif span in ("centrality.closeness", "centrality.betweenness"):
            g = args[0]
            v["centrality.arcs_scanned"] += len(g) * 2 * g.edge_count()
        elif span == "centrality.pagerank":
            self.pagerank_call = (args, kwargs)
        elif span == "evolve.slices":
            v["evolve.slice_vertices"] += sum(len(ts.graph) for ts in result)


def _wrap(fn, span: str, tracer: Tracer, counts: Counts | None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if tracer.counting:
            return fn(*args, **kwargs)
        tracer.begin(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end()
        if counts is not None:
            tracer.begin(COUNT_SPAN)
            tracer.counting = True
            try:
                counts.observe(span, args, kwargs, result)
            finally:
                tracer.counting = False
                tracer.end()
        return result

    return traced


class Patch:
    """Swap wrapped versions of the traced functions into every coauthnet
    module namespace that refers to them; ``restore`` undoes it."""

    def __init__(self):
        self.targets: dict[int, tuple[object, str]] = {}
        self.originals: dict[str, object] = {}
        self.missing: list[str] = []
        for modname, spans in SPAN_OF.items():
            module = importlib.import_module(modname)
            for attr, span in spans.items():
                fn = getattr(module, attr, None)
                if fn is None:
                    self.missing.append(f"{modname}.{attr}")
                    continue
                self.targets[id(fn)] = (fn, span)
                self.originals[attr] = fn
        cli = importlib.import_module("coauthnet.cli")
        for attr, fn in vars(cli).items():
            if callable(fn) and (attr.startswith("render_") or attr == "_write_atomic"):
                self.targets.setdefault(id(fn), (fn, "cli.render"))
        self.merge_map_cls = getattr(importlib.import_module("coauthnet.ingest"), "AuthorMergeMap", None)
        self.saved: list[tuple[object, str, object]] = []

    def apply(self, tracer: Tracer, counts: Counts | None) -> None:
        wrappers = {key: _wrap(fn, span, tracer, counts) for key, (fn, span) in self.targets.items()}
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "coauthnet" or modname.startswith("coauthnet.")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and self.targets[id(value)][0] is value:
                    self.saved.append((module, attr, value))
                    setattr(module, attr, wrapper)
        cls = self.merge_map_cls
        if cls is not None and isinstance(cls.__dict__.get("from_csv"), classmethod):
            original = cls.__dict__["from_csv"]
            self.saved.append((cls, "from_csv", original))
            setattr(cls, "from_csv", classmethod(_wrap(original.__func__, "ingest.merge", tracer, None)))

    def restore(self) -> None:
        for owner, attr, value in reversed(self.saved):
            setattr(owner, attr, value)
        self.saved.clear()


def _pagerank_iterations(pagerank, call) -> int:
    """Smallest max_iter at which pagerank stops raising ConvergenceError."""
    from coauthnet.errors import ConvergenceError

    args, kwargs = call

    def converges(k: int) -> bool:
        try:
            pagerank(*args, **{**kwargs, "max_iter": k})
        except ConvergenceError:
            return False
        return True

    lo, hi = 1, kwargs.get("max_iter", 1000)
    if not converges(hi):
        return 0
    while lo < hi:
        mid = (lo + hi) // 2
        if converges(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def _with_outdir(argv: list[str], outdir: str) -> list[str]:
    argv = list(argv)
    argv[argv.index("--output-dir") + 1] = outdir
    return argv


def trace_command(argv: list[str], memory_outdir: str) -> dict:
    tracer = Tracer()
    tracer.begin("cli.import")
    import coauthnet.cli
    tracer.end()
    patch = Patch()
    counts = Counts(patch.originals)
    patch.apply(tracer, counts)
    try:
        tracer.begin("cli.main")
        try:
            exit_code = coauthnet.cli.main(argv)
        finally:
            tracer.end()
    finally:
        patch.restore()
    iterations = 0
    if counts.pagerank_call is not None:
        iterations = _pagerank_iterations(patch.originals["pagerank"], counts.pagerank_call)
    mem = Tracer(memory=True)
    patch.apply(mem, None)
    tracemalloc.start()
    try:
        mem_exit = coauthnet.cli.main(_with_outdir(argv, memory_outdir))
    finally:
        tracemalloc.stop()
        patch.restore()
    return {
        "exit_code": exit_code,
        "memory_exit_code": mem_exit,
        "spans": tracer.spans,
        "counts": dict(counts.values),
        "pagerank_iters": iterations,
        "peaks_mb": {name: mem.peaks[name] / 2**20 for name in PEAK_SPANS if name in mem.peaks},
        "missing": patch.missing,
    }


def layer_metrics(doc: dict) -> dict[str, float]:
    """Per-layer self times, counts and peaks from one trace document."""
    spans = doc["spans"]
    covered: defaultdict[int, float] = defaultdict(float)
    for _, _, parent, start, end in spans:
        if parent is not None:
            covered[parent] += end - start
    metrics: defaultdict[str, float] = defaultdict(float)
    counted = 0.0
    main_total = 0.0
    for sid, name, _, start, end in spans:
        if name == COUNT_SPAN:
            counted += end - start
            continue
        metrics[f"{name}_s"] += end - start - covered[sid]
        if name == "cli.main":
            main_total += end - start
    counts = dict(doc["counts"])
    arcs = counts.pop("centrality.arcs_scanned", 0)
    metrics.update(counts)
    busy = metrics["centrality.closeness_s"] + metrics["centrality.betweenness_s"]
    metrics["centrality.arcs_per_s"] = arcs / busy if busy > 0 else 0.0
    metrics["centrality.pagerank_iters"] = doc["pagerank_iters"]
    for name, mb in doc["peaks_mb"].items():
        metrics[f"{name}_peak_mb"] = mb
    metrics["trace.total_s"] = main_total - counted
    return dict(metrics)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--memory-outdir", required=True)
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    ns = parser.parse_args()
    argv = ns.argv[1:] if ns.argv[:1] == ["--"] else ns.argv
    doc = trace_command(argv, ns.memory_outdir)
    with open(ns.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return 0 if doc["exit_code"] == 0 and doc["memory_exit_code"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
