"""Outside-in layer tracing for the benchmark's traced mode.

The traced mode replaces public ``repro`` functions with timing
wrappers *where their callers look them up*: every attribute of every
loaded ``repro`` module that is bound to the original function object
(so ``from x import f`` bindings and package re-exports are covered),
or the class attribute for methods.  Nothing under ``src/`` changes;
:meth:`Tracer.uninstall` restores every binding.

Each wrapped call records one span ``[name, start, end, parent, rid]``
in memory.  Spans nest per thread; a span's *self time* is its
duration minus the part of that interval its child spans cover, so the
self times of all spans under a root add up to the root's duration.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from harness import nearest_rank

#: (span name, module, attribute) of every wrapped layer function.
#: Several functions may share a span name: the span name is the layer
#: the per-layer metrics are keyed by.
LAYER_FUNCTIONS: Tuple[Tuple[str, str, str], ...] = (
    ("workloads.benchmark", "repro.workloads.nas", "benchmark"),
    ("model.clique_analysis", "repro.model.cliques", "CliqueAnalysis.of"),
    ("synthesis.portfolio", "repro.synthesis.portfolio", "synthesize_portfolio"),
    ("synthesis.generate", "repro.synthesis.generator", "generate_network"),
    ("synthesis.partition", "repro.synthesis.partition", "Partitioner.run"),
    ("synthesis.degree_repair", "repro.synthesis.reroute", "reduce_degree_violations"),
    ("synthesis.best_route", "repro.synthesis.best_route", "best_route"),
    ("synthesis.moves", "repro.synthesis.moves", "best_processor_move"),
    ("synthesis.moves", "repro.synthesis.moves", "annealed_moves"),
    ("synthesis.moves", "repro.synthesis.reroute", "global_processor_moves"),
    ("synthesis.coloring", "repro.synthesis.fast_color", "fast_color_directional"),
    ("synthesis.coloring", "repro.synthesis.coloring", "exact_coloring"),
    ("verify.certify", "repro.verify.verify", "certify"),
    ("floorplan.place", "repro.floorplan.place", "place"),
    ("simulator.replay", "repro.simulator.simulation", "simulate"),
    ("simulator.openloop", "repro.simulator.openloop", "run_open_loop"),
    ("sweeps.driver", "repro.sweeps.driver", "run_sweep"),
    ("eval.run_cells", "repro.eval.parallel", "run_cells"),
    ("eval.cache_read", "repro.eval.parallel", "ResultCache.get_result"),
    ("eval.cache_read", "repro.eval.parallel", "ResultCache.get_bundle"),
    ("eval.cache_read", "repro.eval.parallel", "ResultCache.get_setup"),
    ("eval.cache_write", "repro.eval.parallel", "ResultCache.put_result"),
    ("eval.cache_write", "repro.eval.parallel", "ResultCache.put_bundle"),
    ("eval.cache_write", "repro.eval.parallel", "ResultCache.put_setup"),
    ("eval.serialize", "repro.eval.serialize", "design_to_dict"),
    ("eval.serialize", "repro.eval.serialize", "design_from_dict"),
    ("eval.serialize", "repro.eval.serialize", "canonical_json"),
    ("service.canonicalize", "repro.service.spec", "canonicalize_spec"),
    ("service.canonicalize", "repro.service.spec", "job_key"),
    ("service.execute", "repro.service.spec", "execute_spec"),
)

Hook = Callable[["Tracer", tuple, dict, Any], None]


class Tracer:
    """In-memory spans, counters and samples of one traced process."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: List[Tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, rid: Any = None) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if rid is None and parent is not None:
            rid = self.spans[parent][4]
        record = [name, time.perf_counter(), None, parent, rid]
        with self._lock:
            self.spans.append(record)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def span(self, name: str, rid: Any = None) -> Iterator[int]:
        index = self.begin(name, rid)
        try:
            yield index
        finally:
            self.end(index)

    @contextmanager
    def paused(self) -> Iterator[None]:
        """Call wrapped functions untraced on this thread (the
        benchmark's own output checks must not count toward a layer)."""
        self._local.paused = True
        try:
            yield
        finally:
            self._local.paused = False

    def count(self, key: str, n: float = 1) -> None:
        with self._lock:
            self.counts[key] += n

    def sample(self, key: str, value: float) -> None:
        with self._lock:
            self.samples[key].append(value)

    # -- wrapping ------------------------------------------------------

    def wrap(self, name: Optional[str], fn: Callable, hook: Optional[Hook] = None) -> Callable:
        """``fn`` inside a span ``name`` (no span when ``name`` is None),
        counting calls and raised exceptions and running ``hook`` on
        the result."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if getattr(tracer._local, "paused", False):
                return fn(*args, **kwargs)
            key = name or fn.__qualname__
            index = tracer.begin(name) if name is not None else None
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.count(f"{key}.errors")
                raise
            finally:
                if index is not None:
                    tracer.end(index)
                tracer.count(f"{key}.calls")
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return traced

    def install(
        self,
        name: Optional[str],
        module_name: str,
        attr: str,
        hook: Optional[Hook] = None,
    ) -> None:
        """Wrap ``module_name.attr`` everywhere callers look it up."""
        module = importlib.import_module(module_name)
        owner_name, _, leaf = attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            raw = owner.__dict__[leaf]
            if isinstance(raw, classmethod):
                replacement: Any = classmethod(self.wrap(name, raw.__func__, hook))
            else:
                replacement = self.wrap(name, raw, hook)
            setattr(owner, leaf, replacement)
            self._undo.append((owner, leaf, raw))
            return
        original = getattr(module, leaf)
        traced = self.wrap(name, original, hook)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)
                    self._undo.append((mod, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # -- export --------------------------------------------------------

    def export(self) -> dict:
        with self._lock:
            return {
                "spans": [list(s) for s in self.spans],
                "counts": dict(self.counts),
                "samples": {k: list(v) for k, v in self.samples.items()},
            }

    def write_jsonl(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, rid) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": i, "name": name, "start": start, "end": end,
                         "parent": parent, "rid": rid}
                    )
                    + "\n"
                )


# ---------------------------------------------------------------------------
# Engine and job hooks (counts the layer spans cannot see)
# ---------------------------------------------------------------------------


def _engines(tracer: Tracer) -> list:
    engines = getattr(tracer._local, "engines", None)
    if engines is None:
        engines = tracer._local.engines = []
    return engines


def _register_engine(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    _engines(tracer).append(args[0])


def _harvest_engines(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    engines = _engines(tracer)
    for engine in engines:
        tracer.count("simulator.flit_hops", engine.flit_hops)
        tracer.count("simulator.cycles_simulated", engine.cycles_simulated)
    engines.clear()


def _count_cells(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    from repro.eval.parallel import resolve_jobs

    hits = sum(1 for outcome in result if outcome.cache_hit)
    tracer.count("eval.cells", len(result))
    tracer.count("eval.cell_hits", hits)
    jobs = kwargs.get("jobs", args[1] if len(args) > 1 else None)
    if resolve_jobs(jobs) is not None and len(result) > 1 and hits == len(result):
        tracer.count("eval.pool_calls_all_hit")


def _count_points(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.count("sweeps.load_points", len(result.points))


_HOOKS: Dict[str, Hook] = {
    "simulator.replay": _harvest_engines,
    "simulator.openloop": _harvest_engines,
    "eval.run_cells": _count_cells,
    "sweeps.driver": _count_points,
}


def install_layers(tracer: Tracer) -> None:
    """Wrap every layer function plus the engine's counting hooks."""
    for name, module_name, attr in LAYER_FUNCTIONS:
        tracer.install(name, module_name, attr, _HOOKS.get(name))
    tracer.install(None, "repro.simulator.engine", "Engine.__init__", _register_engine)
    tracer.install(None, "repro.simulator.engine", "Engine.step")


def _queue_wait(tracer: Tracer, record: Any) -> None:
    tracer.sample("service.queue_wait_ms", (time.time() - record.created_s) * 1e3)


def install_service(tracer: Tracer) -> None:
    """Server-side extras: queue wait of each executed job, measured
    when a worker thread picks the job up."""
    from repro.service.manager import JobManager

    run = JobManager.__dict__["_run"]

    @functools.wraps(run)
    def timed_run(self: Any, record: Any) -> None:
        _queue_wait(tracer, record)
        with tracer.span("service.job", rid=record.job_id):
            run(self, record)

    JobManager._run = timed_run  # type: ignore[method-assign]
    tracer._undo.append((JobManager, "_run", run))


# ---------------------------------------------------------------------------
# Self times and per-layer metrics
# ---------------------------------------------------------------------------


def _covered(intervals: Sequence[Tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: Iterable[Sequence[Any]]) -> Dict[str, float]:
    """Total self time per span name over a list of span records."""
    spans = list(spans)
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, _rid in spans:
        if parent is not None and end is not None:
            children[parent].append((start, end))
    out: Dict[str, float] = defaultdict(float)
    for i, (name, start, end, _parent, _rid) in enumerate(spans):
        if end is None:
            continue
        out[name] += (end - start) - _covered(children.get(i, ()), start, end)
    return dict(out)


def durations(spans: Iterable[Sequence[Any]], name: str) -> List[float]:
    return [end - start for n, start, end, _p, _r in spans if n == name and end is not None]


def root_coverage(spans: Sequence[Sequence[Any]], root: str) -> float:
    """Share of the ``root`` spans' time covered by their descendants."""
    total = sum(durations(spans, root))
    if not total:
        return 0.0
    return 1.0 - self_times(spans).get(root, 0.0) / total


def _p50(values: Sequence[float]) -> float:
    return nearest_rank(values, 0.5) if values else 0.0


def layer_metrics(exports: Sequence[dict], service_stats: Optional[dict] = None) -> Dict[str, float]:
    """Per-layer values from one or more :meth:`Tracer.export` documents
    (the benchmark process plus, for the service, the server).

    Every ``_s`` value is self time summed over the traced run; a layer
    the workload never entered reads 0.
    """
    st: Dict[str, float] = defaultdict(float)
    counts: Counter = Counter()
    samples: Dict[str, List[float]] = defaultdict(list)
    post: List[float] = []
    result: List[float] = []
    for doc in exports:
        for name, value in self_times(doc["spans"]).items():
            st[name] += value
        counts.update(doc["counts"])
        for key, values in doc["samples"].items():
            samples[key].extend(values)
        post += durations(doc["spans"], "service.http_post")
        result += durations(doc["spans"], "service.http_result")

    def calls(name: str) -> float:
        return counts.get(f"{name}.calls", 0)

    sim_s = st["simulator.replay"] + st["simulator.openloop"]
    hops = counts.get("simulator.flit_hops", 0)
    visited = calls("Engine.step")
    partitions = calls("synthesis.partition")
    cells = counts.get("eval.cells", 0)
    stats = (service_stats or {}).get("jobs", {})
    return {
        "workloads.benchmark_s": st["workloads.benchmark"],
        "model.clique_analysis_s": st["model.clique_analysis"],
        "synthesis.degree_repair_s": st["synthesis.degree_repair"],
        "synthesis.degree_repair_calls": calls("synthesis.degree_repair"),
        "synthesis.best_route_s": st["synthesis.best_route"],
        "synthesis.best_route_calls": calls("synthesis.best_route"),
        "synthesis.moves_s": st["synthesis.moves"],
        "synthesis.coloring_s": st["synthesis.coloring"],
        "synthesis.coloring_calls": calls("synthesis.coloring"),
        "synthesis.partition_self_s": st["synthesis.partition"],
        "synthesis.driver_self_s": st["synthesis.generate"] + st["synthesis.portfolio"],
        "synthesis.seeds_ok_ratio": (
            (partitions - counts.get("synthesis.partition.errors", 0)) / partitions
            if partitions else 0.0
        ),
        "verify.certify_s": st["verify.certify"],
        "floorplan.place_s": st["floorplan.place"],
        "simulator.replay_s": st["simulator.replay"],
        "simulator.openloop_s": st["simulator.openloop"],
        "simulator.flit_hops": hops,
        "simulator.cycles_simulated": counts.get("simulator.cycles_simulated", 0),
        "simulator.visited_cycles": visited,
        "simulator.ns_per_flit_hop": sim_s / hops * 1e9 if hops else 0.0,
        "simulator.ns_per_visited_cycle": sim_s / visited * 1e9 if visited else 0.0,
        "sweeps.driver_self_s": st["sweeps.driver"],
        "sweeps.load_points": counts.get("sweeps.load_points", 0),
        "eval.run_cells_self_s": st["eval.run_cells"],
        "eval.cell_hit_ratio": counts.get("eval.cell_hits", 0) / cells if cells else 0.0,
        "eval.pool_calls_all_hit": counts.get("eval.pool_calls_all_hit", 0),
        "eval.cache_read_s": st["eval.cache_read"],
        "eval.cache_write_s": st["eval.cache_write"],
        "eval.serialize_s": st["eval.serialize"],
        "service.canonicalize_s": st["service.canonicalize"],
        "service.http_post_ms": _p50(post) * 1e3,
        "service.http_result_ms": _p50(result) * 1e3,
        "service.execute_s": st["service.execute"],
        "service.queue_wait_ms": _p50(samples.get("service.queue_wait_ms", [])),
        "service.dedupe_completed": stats.get("deduped_completed", 0),
        "service.dedupe_inflight": stats.get("deduped_inflight", 0),
        "service.bundle_hits": stats.get("bundle_hits", 0),
        "service.executed": stats.get("executed", 0),
    }
