"""Layer timings traced from outside the program.

:func:`install` replaces each layer's public function at the place the
caller looks it up (a module global or a class attribute) with a wrapper
that records a span: name, start, end, parent span, operation id, thread,
and any counts the layer's arguments or result give.  Nothing under
``src/`` changes.  Spans stay in memory; the process writes them out when it
ends, and :func:`layer_metrics` turns them into per-layer self times and
counts.

A layer's self time is its span's duration minus the part of that interval
its child spans cover (children on other threads included).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import statistics
import threading
import time
from collections import defaultdict, namedtuple
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

#: one recorded call: ids are per process, times are ``time.perf_counter``
Span = namedtuple("Span", "id name start end parent op thread counts")


class Tracer:
    """In-memory span recorder shared by every wrapper of one process."""

    def __init__(self, op_source: Optional[Callable[[], Optional[str]]] = None):
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        #: operation id for spans opened while no *op_source* binding exists
        self.op: Optional[str] = None
        self._op_source = op_source
        #: wrappers call straight through while this is False
        self.enabled = True

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_op(self) -> Optional[str]:
        if self._op_source is not None:
            bound = self._op_source()
            if bound is not None:
                return bound
        return self.op

    def current_span(self) -> Optional[int]:
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def span(self, name: str, parent: Optional[int] = None, counts: Optional[Dict] = None):
        """Record one span; *parent* defaults to the thread's open span."""
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        span_id = next(self._ids)
        record = dict(counts or {})
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield record
        finally:
            end = time.perf_counter()
            stack.pop()
            # list.append is atomic under the GIL: no lock on the hot path
            self.spans.append(Span(span_id, name, start, end, parent, self.current_op(),
                                   threading.get_ident(), record or None))

    def wrap(self, name: str, fn: Callable, count: Optional[Callable] = None) -> Callable:
        """*fn* recording a *name* span per call; *count(args, result)* adds counts."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            with tracer.span(name) as record:
                result = fn(*args, **kwargs)
                if count is not None:
                    record.update(count(args, result))
            return result

        return traced


# --------------------------------------------------------------------------- #
# lookup sites
def _nbytes(_args, result) -> Dict:
    return {"bytes": int(getattr(result, "nbytes", 0))}


def _stack_bytes(_args, result) -> Dict:
    return {"bytes": int(result.images.nbytes)}


def _payload_bytes(_args, result) -> Dict:
    return {"bytes": int(result[0].data.nbytes)}


def _written_bytes(args, _result) -> Dict:
    return {"bytes": int(os.path.getsize(args[0]))}


def _cache_probe(_args, result) -> Dict:
    return {"hits": 0 if result is None else 1, "misses": 1 if result is None else 0}


def _kernel_bytes(args, _result) -> Dict:
    # computed from array shapes (slab read + output cube), not measured traffic
    ctx, out = args[0], args[1]
    return {"bytes_computed": int(ctx.images.nbytes + out.nbytes)}


def _overlap_evals(args, result) -> Dict:
    return {"evals": int(result.size)}


def _atomic_values(args, _result) -> Dict:
    return {"values": int(getattr(args[2], "size", 1))}


def _active_elements(_args, result) -> Dict:
    return {"active_elements": int(result[1].n_active_pixels)}


#: (owner, attribute, span name, counter): owner is a module or
#: ``module:Class``; each entry is where the program looks the name up
SITES = [
    ("repro.core.backends.vectorized", "depth_resolve_chunk_fused", "kernels.fused", _kernel_bytes),
    ("repro.core.kernels", "trapezoid_bin_overlaps", "trapezoid.overlaps", _overlap_evals),
    ("repro.core.kernels", "atomic_add", "atomic.scatter", _atomic_values),
    ("repro.core.session", "engine_execute", "engine.execute", _active_elements),
    ("repro.core.engine", "count_active_elements_in_slab", "engine.activity", None),
    ("repro.core.engine", "build_chunk_context", "engine.chunk", None),
    ("repro.core.engine", "compute_stack_background", "engine.background", None),
    ("repro.core.histogram:DepthHistogram", "merge_partial", "engine.merge", None),
    ("repro.io.image_stack", "load_wire_scan", "io.load", _stack_bytes),
    ("repro.io.image_stack", "load_run_payload", "io.load", _payload_bytes),
    ("repro.io.streaming:StreamingWireScanSource", "load_rows", "io.load", _nbytes),
    ("repro.io.streaming:StreamingWireScanSource", "position_image", "io.load", _nbytes),
    ("repro.io.image_stack", "save_depth_resolved", "io.save", _written_bytes),
    ("repro.io.h5lite", "header_digest", "io.fingerprint", None),
    ("repro.core.cache:ResultCache", "get", "cache.get", _cache_probe),
    ("repro.core.cache:ResultCache", "put", "cache.put", None),
    ("repro.core.session:Session", "run", "session.run", None),
]


def _owner(spec: str):
    module_name, _, class_name = spec.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


def _wrap_run_batch_jobs(tracer: Tracer, fn: Callable) -> Callable:
    """Batch scheduler wrapper: items on pool threads become child spans."""

    @functools.wraps(fn)
    def traced(jobs, run_one, max_workers):
        if not tracer.enabled:
            return fn(jobs, run_one, max_workers)
        with tracer.span("pipeline.run_batch_jobs", counts={"workers": int(max_workers)}):
            parent = tracer.current_span()

            def item(job):
                with tracer.span("pipeline.item", parent=parent):
                    return run_one(job)

            return fn(jobs, item, max_workers)

    return traced


def install(tracer: Tracer) -> List[str]:
    """Wrap every lookup site the program still has; returns those wrapped.

    A site the program no longer has is skipped: its layer then never fires
    and is reported ``absent``.
    """
    installed = []
    for owner_spec, attribute, name, count in SITES:
        owner = _owner(owner_spec)
        original = getattr(owner, attribute, None)
        if original is None:
            continue
        setattr(owner, attribute, tracer.wrap(name, original, count))
        installed.append(f"{owner_spec}.{attribute}")
    pipeline = importlib.import_module("repro.core.pipeline")
    pipeline.run_batch_jobs = _wrap_run_batch_jobs(tracer, pipeline.run_batch_jobs)
    installed.append("repro.core.pipeline.run_batch_jobs")
    return installed


# --------------------------------------------------------------------------- #
# aggregation
def _covered(intervals: List[tuple], lo: float, hi: float) -> float:
    """Length of the union of *intervals* clipped to ``[lo, hi]``."""
    total, cursor = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: List[Span]) -> Dict[int, float]:
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {span.id: (span.end - span.start) - _covered(children[span.id], span.start, span.end)
            for span in spans}


#: per-layer time metrics: metric -> the span name whose self time it sums
TIME_METRICS = {
    "kernels.fused_s": "kernels.fused",
    "trapezoid.overlaps_s": "trapezoid.overlaps",
    "atomic.scatter_s": "atomic.scatter",
    "engine.activity_s": "engine.activity",
    "engine.merge_s": "engine.merge",
    "engine.background_s": "engine.background",
    "io.load_s": "io.load",
    "io.save_s": "io.save",
    "io.fingerprint_s": "io.fingerprint",
    "cache.get_s": "cache.get",
    "cache.put_s": "cache.put",
    "session.run_s": "session.run",
}

#: per-layer count metrics: metric -> (span name, count key or None for calls)
COUNT_METRICS = {
    "kernels.active_elements": ("engine.execute", "active_elements"),
    "kernels.bytes_computed": ("kernels.fused", "bytes_computed"),
    "trapezoid.overlap_evals": ("trapezoid.overlaps", "evals"),
    "atomic.values": ("atomic.scatter", "values"),
    "engine.chunks": ("engine.chunk", None),
    "io.bytes_read": ("io.load", "bytes"),
    "io.bytes_written": ("io.save", "bytes"),
    "cache.hits": ("cache.get", "hits"),
    "cache.misses": ("cache.get", "misses"),
}

#: derived metrics: the whole kernel call (fused body, overlaps, scatter) and
#: the cache plus I/O layers as shares of all traced self time
SHARES = {
    "kernels.self_share": ("kernels.fused", "trapezoid.overlaps", "atomic.scatter"),
    "cache_io.self_share": ("cache.get", "cache.put", "io.load", "io.save", "io.fingerprint"),
}


#: how the less obvious figures are made (copied into each traced record)
NOTES = {
    "kernels.bytes_computed": "computed from array shapes (input slab plus output cube "
                              "bytes per kernel call), not measured memory traffic",
    "kernels.active_elements": "the engine's own count (ReconstructionReport.n_active_pixels)",
    "trapezoid.overlap_evals": "elements x depth bins passed to trapezoid_bin_overlaps; exact",
    "kernels.self_share": "self time of the fused kernel, trapezoid overlaps and atomic "
                          "scatter over all traced self time",
    "cache_io.self_share": "self time of cache get/put and io load/save/fingerprint over "
                           "all traced self time",
    "absent": "a layer whose wrapper never fired; 0 in the result line",
}


def layer_metrics(spans: List[Span]) -> Dict[str, Dict]:
    """Per-layer figures from one phase's spans.

    Times and counts are medians over operations (spans grouped by op id;
    a span with no op id is its own group) of the per-operation total,
    taken over the operations in which the layer fired; ``n`` is that
    sample count.  A layer that never fired is ``absent``.
    """
    own = self_times(spans)
    per_op = defaultdict(lambda: defaultdict(float))  # (name, key) -> group -> total
    totals = defaultdict(float)  # (name, key) -> total over the phase
    for span in spans:
        group = span.op if span.op is not None else f"span-{span.id}"
        figures = {"self_s": own[span.id], None: 1, **(span.counts or {})}
        for key, value in figures.items():
            per_op[(span.name, key)][group] += value
            totals[(span.name, key)] += value

    def median_of(groups: Dict) -> Dict:
        if not groups:
            return {"absent": True, "n": 0}
        return {"value": statistics.median(groups.values()), "n": len(groups)}

    def ratio(numerator: float, denominator: float, n: int) -> Dict:
        if denominator <= 0:
            return {"absent": True, "n": 0}
        return {"value": numerator / denominator, "n": n}

    out = {metric: median_of(per_op[(name, "self_s")]) for metric, name in TIME_METRICS.items()}
    out.update({metric: median_of(per_op[(name, key)])
                for metric, (name, key) in COUNT_METRICS.items()})
    kernel_s = sum(span.end - span.start for span in spans if span.name == "kernels.fused")
    out["kernels.elements_per_s"] = ratio(
        totals[("engine.execute", "active_elements")], kernel_s,
        int(totals[("kernels.fused", None)]))
    probes = totals[("cache.get", "hits")] + totals[("cache.get", "misses")]
    out["cache.hit_ratio"] = ratio(totals[("cache.get", "hits")], probes, int(probes))
    all_self = sum(own.values())
    for metric, names in SHARES.items():
        share = sum(totals[(name, "self_s")] for name in names)
        out[metric] = {"value": share / all_self if all_self else 0.0, "n": len(spans)}
    return out


def worker_busy_ratio(spans: List[Span], op_walls: Dict[str, float]) -> Dict:
    """Median over batch passes of sum(item wall) / (workers * pass wall)."""
    items = defaultdict(float)
    workers = {}
    for span in spans:
        if span.name == "pipeline.item":
            items[span.op] += span.end - span.start
        elif span.name == "pipeline.run_batch_jobs":
            workers[span.op] = span.counts["workers"]
    ratios = [items[op] / (workers[op] * op_walls[op])
              for op in items if op in workers and op_walls.get(op)]
    if not ratios:
        return {"absent": True, "n": 0}
    return {"value": statistics.median(ratios), "n": len(ratios)}
