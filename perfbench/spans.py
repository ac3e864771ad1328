"""Span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own files: :class:`Instrumentation`
wraps the public entry points of each layer of ``repro`` (methods and
module functions) for the duration of a traced phase, and restores the
originals afterwards. Nothing inside ``src/`` knows it is being traced.

Each :class:`Span` carries its name, start, end (``time.perf_counter``
seconds), the index of its parent span on the same thread, the request
id current on that thread, and a small ``info`` dict filled by the
wrapper (rows scored, moves scored, strategy name, ...). Spans are kept
in memory and turned into per-layer metrics by :func:`layer_metrics`
when the run ends.

A span's *self time* is its duration minus the part of its interval that
its direct child spans cover (:func:`self_times`); overlapping children
are merged first, so the arithmetic holds for any synthetic tree.
"""

from __future__ import annotations

import bisect
import functools
import os
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Strategy registry names reported by ``strategy.<name>.*`` metrics.
STRATEGIES = ("rs", "ga", "r-pbla", "sa", "tabu")

#: Span name -> layer. A layer's busy time sums its *outermost* spans
#: (those with no ancestor of the same layer), so nested entry points of
#: one layer (``evaluate_batch`` -> ``submit_batch`` -> ``result``) are
#: never counted twice.
LAYER_OF = {
    "dse.run": "dse",
    "noc.all_paths": "noc",
    "noc.all_paths_routed": "noc",
    "models.for_network": "models",
    "models.save_cached": "models",
    "models.load_cached": "models",
    "evaluator.evaluate": "evaluator",
    "evaluator.evaluate_batch": "evaluator",
    "evaluator.submit_batch": "evaluator",
    "evaluator.request_submit": "evaluator",
    "evaluator.collect": "evaluator",
    "delta.reset": "delta",
    "delta.score_moves": "delta",
    "delta.commit": "delta",
    "pool.get_pool": "pool",
    "pool.wait": "pool",
    "service.parse": "service",
    "service.handle": "service",
    "service.coalesce_submit": "service",
    "service.client": "client",
}
for _name in STRATEGIES:
    LAYER_OF[f"strategy.{_name}"] = "strategy"


class Span:
    """One timed call into a layer (slotted: a traced run keeps ~1e5)."""

    __slots__ = ("name", "start", "end", "parent", "rid", "info")

    def __init__(self, name, start, end=0.0, parent=None, rid=None, info=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.rid = rid
        self.info = {} if info is None else info

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered_length(intervals: Sequence[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(lo, a), min(hi, b)) for a, b in intervals if min(hi, b) > max(lo, a)
    )
    total, cur_a, cur_b = 0.0, None, None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Per-span self time: duration minus the union of its children."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [
        span.duration - covered_length(children.get(index, ()), span.start, span.end)
        for index, span in enumerate(spans)
    ]


def outermost(spans: Sequence[Span], index: int) -> bool:
    """Whether no ancestor of span ``index`` belongs to the same layer."""
    layer = LAYER_OF.get(spans[index].name)
    parent = spans[index].parent
    while parent is not None:
        if LAYER_OF.get(spans[parent].name) == layer:
            return False
        parent = spans[parent].parent
    return True


class NullRecorder:
    """Stands in for :class:`Recorder` in untraced phases: records nothing."""

    request_id = None
    paused = False

    def begin(self, name: str) -> int:
        return -1

    def end(self, index: int) -> None:
        pass


class Recorder:
    """Thread-aware in-memory span store.

    The parent of a new span is the innermost open span of the calling
    thread; the request id is whatever :attr:`request_id` holds on that
    thread (``None`` for background threads such as the coalescer).
    While :attr:`paused` is set on a thread, its calls record nothing.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def request_id(self) -> Optional[int]:
        return getattr(self._local, "rid", None)

    @request_id.setter
    def request_id(self, rid: Optional[int]) -> None:
        self._local.rid = rid

    @property
    def paused(self) -> bool:
        return getattr(self._local, "paused", False)

    @paused.setter
    def paused(self, value: bool) -> None:
        self._local.paused = value

    def begin(self, name: str) -> int:
        if self.paused:
            return -1
        stack = self._stack()
        span = Span(
            name,
            time.perf_counter(),
            parent=stack[-1] if stack else None,
            rid=self.request_id,
        )
        # Request, handler and coalescer threads record at once: the
        # append and the index read must not interleave with another's.
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        if index < 0:
            return
        self.spans[index].end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()


def _wrap(recorder: Recorder, name, func: Callable, annotate=None, enter=None) -> Callable:
    """``func`` timed as a span.

    ``name`` is the span name, or a callable of the call's positional
    arguments that returns it (``None``: leave this call untraced).
    ``enter(span, args)`` runs as the span opens and returns the
    positional arguments to call with; ``annotate(span, args, result)``
    adds info before it closes. Both run inside the span, so their cost
    is traced too; ``span`` is ``None`` on a paused thread.
    """

    @functools.wraps(func)
    def traced(*args, **kwargs):
        label = name(args) if callable(name) else name
        if label is None:
            return func(*args, **kwargs)
        index = recorder.begin(label)
        span = recorder.spans[index] if index >= 0 else None
        try:
            if enter is not None:
                args = enter(span, args)
            result = func(*args, **kwargs)
            if annotate is not None and span is not None:
                annotate(span, args, result)
            return result
        finally:
            recorder.end(index)

    return traced


class Instrumentation:
    """Installs span wrappers on the layers' entry points, and removes them."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._saved: List[Tuple[object, str, object]] = []

    def _patch(self, owner, attr: str, name, annotate=None, enter=None) -> None:
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        if isinstance(original, classmethod):
            traced = _wrap(self.recorder, name, original.__func__, annotate, enter)
            setattr(owner, attr, classmethod(traced))
        else:
            setattr(owner, attr, _wrap(self.recorder, name, original, annotate, enter))

    def install(self) -> None:
        from repro.core import dse, evaluator, pool
        from repro.core.delta import DeltaEvaluator
        from repro.core.strategy import MappingStrategy
        from repro.models import coupling
        from repro.models.coupling import CouplingModel
        from repro.noc.network import PhotonicNoC
        from repro.service import coalesce, core, schema

        rec = self.recorder

        def rows(span, args, result):
            span.info["rows"] = int(len(args[1]))
            span.info["evaluator"] = id(args[0])

        def moves(span, args, result):
            span.info["moves"] = int(len(result))

        def count_builds(span, args):
            if span is not None:
                span.info["builds"] = coupling.BUILD_COUNT
            return args

        def resolved(span, args, result):
            # Only the size is kept: a reference would hold every model
            # (and its network) alive until the run ends.
            span.info["built"] = coupling.BUILD_COUNT > span.info.pop("builds")
            span.info["nbytes"] = model_nbytes(result)

        def loaded(span, args, result):
            span.info["hit"] = result is not None

        def saved(span, args, result):
            if result:
                span.info["bytes"] = sum(
                    entry.stat().st_size for entry in os.scandir(result)
                )

        def coalesce_submit(span, args, result):
            span.info["evaluator"] = id(args[0].evaluator)

        def new_pool(span, args, result):
            span.info["pool"] = id(result)

        def strategy_evals(span, args, result):
            span.info["evals"] = int(result.evaluations)

        def take_trace_id(span, args):
            # The client tags a traced request with its id; the daemon
            # must not see the extra field.
            payload = args[1]
            if isinstance(payload, dict) and "trace_id" in payload:
                payload = dict(payload)
                rec.request_id = payload.pop("trace_id")
                if span is not None:
                    span.rid = rec.request_id
                args = (args[0], payload, *args[2:])
            return args

        patch = self._patch
        patch(dse.DesignSpaceExplorer, "run", "dse.run")
        patch(MappingStrategy, "optimize", lambda args: f"strategy.{args[0].name}", strategy_evals)
        patch(evaluator.MappingEvaluator, "evaluate", "evaluator.evaluate")
        patch(evaluator.MappingEvaluator, "evaluate_batch", "evaluator.evaluate_batch")
        patch(evaluator.MappingEvaluator, "submit_batch", "evaluator.submit_batch", rows)
        patch(evaluator.PendingBatch, "result", "evaluator.collect")
        # Only sharded batches wait on the pool.
        patch(
            evaluator.PendingBatch,
            "tables",
            lambda args: None if args[0]._futures is None else "pool.wait",
        )
        patch(coalesce.CoalescingEvaluator, "submit_batch", "evaluator.request_submit")
        patch(coalesce.CoalescedBatch, "result", "evaluator.collect")
        patch(DeltaEvaluator, "reset", "delta.reset")
        patch(DeltaEvaluator, "score_moves", "delta.score_moves", moves)
        patch(DeltaEvaluator, "commit", "delta.commit")
        patch(PhotonicNoC, "all_paths", "noc.all_paths")
        patch(PhotonicNoC, "all_paths_routed", "noc.all_paths_routed")
        patch(CouplingModel, "for_network", "models.for_network", resolved, count_builds)
        patch(CouplingModel, "save_cached", "models.save_cached", saved)
        patch(CouplingModel, "load_cached", "models.load_cached", loaded)
        # parse_request is imported by name into the service core.
        patch(schema, "parse_request", "service.parse")
        patch(core, "parse_request", "service.parse")
        patch(core.ServiceCore, "handle", "service.handle", enter=take_trace_id)
        patch(coalesce.BatchCoalescer, "submit", "service.coalesce_submit", coalesce_submit)
        patch(pool, "get_pool", "pool.get_pool", new_pool)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


# -- per-layer metrics --------------------------------------------------------------


def model_nbytes(model) -> int:
    """Bytes of one coupling model's persisted arrays."""
    return sum(
        getattr(model, name).nbytes
        for name in ("signal_linear", "insertion_loss_db", "coupling_linear")
    )


def cached_model_bytes() -> int:
    """Bytes of the coupling models in the process model cache."""
    from repro.models import coupling

    return sum(model_nbytes(m) for m in getattr(coupling, "_CACHE", {}).values())


def _per(total: float, n: int) -> float:
    return total / n if n else 0.0


def layer_metrics(
    spans: Sequence[Span],
    n_requests: int,
    counters: Dict[str, float],
    setup_spans: Sequence[Span] = (),
    resident_model_bytes: int = 0,
) -> Dict[str, Tuple[float, str]]:
    """The per-layer metrics of one traced phase, as ``name -> (value, unit)``.

    Times and counts are per completed request of the phase unless the
    name says otherwise; ``counters`` carries the deltas read from the
    program's own counters over the phase (model builds, pool tasks and
    retries, coalescer flights and batches, rejected requests).
    """
    selfs = self_times(spans)
    ms = 1e3
    n = n_requests
    busy: Dict[str, float] = {}
    count: Dict[str, int] = {}
    for index, span in enumerate(spans):
        if outermost(spans, index):
            layer = LAYER_OF.get(span.name, span.name)
            busy[layer] = busy.get(layer, 0.0) + span.duration
        count[span.name] = count.get(span.name, 0) + 1

    def total(name: str, use_self: bool = False) -> float:
        return sum(
            (selfs[i] if use_self else s.duration)
            for i, s in enumerate(spans)
            if s.name == name
        )

    def info_sum(name: str, key: str) -> float:
        return sum(s.info.get(key, 0) for s in spans if s.name == name)

    out: Dict[str, Tuple[float, str]] = {}
    out["noc.paths_ms"] = (_per(busy.get("noc", 0.0), n) * ms, "ms")

    # A model is resolved fresh when its for_network call built it or
    # read it from disk; process-cache hits hold no new memory.
    disk_hits = {
        s.parent for s in spans if s.name == "models.load_cached" and s.info.get("hit")
    }
    fresh_bytes = sum(
        s.info.get("nbytes", 0)
        for i, s in enumerate(spans)
        if s.name == "models.for_network" and (s.info.get("built") or i in disk_hits)
    )
    build_s = sum(
        own for s, own in zip(spans, selfs) if s.name == "models.for_network" and s.info.get("built")
    )
    out["models.build_ms"] = (_per(build_s, n) * ms, "ms")
    out["models.builds"] = (_per(counters.get("model_builds", 0), n), "count")
    out["models.save_ms"] = (_per(total("models.save_cached"), n) * ms, "ms")
    out["models.bytes_written"] = (_per(info_sum("models.save_cached", "bytes"), n), "bytes")
    out["models.load_ms"] = (_per(total("models.load_cached"), n) * ms, "ms")
    # Models held for serving: those cached when set-up ended, plus those
    # each request resolves for itself.
    out["models.nbytes"] = (
        resident_model_bytes + _per(fresh_bytes, n),
        "bytes",
    )

    # Blocking batch time on request threads (waits on coalesced flights
    # and pool shards included); rows and calls where rows are scored.
    batch_names = (
        "evaluator.evaluate_batch",
        "evaluator.submit_batch",
        "evaluator.request_submit",
        "evaluator.collect",
    )
    batch_s = sum(
        s.duration
        for i, s in enumerate(spans)
        if s.name in batch_names and s.rid is not None and outermost(spans, i)
    )
    scored_rows = info_sum("evaluator.submit_batch", "rows")
    out["evaluator.batch_calls"] = (_per(count.get("evaluator.submit_batch", 0), n), "count")
    out["evaluator.rows"] = (_per(scored_rows, n), "count")
    out["evaluator.batch_ms"] = (_per(batch_s, n) * ms, "ms")
    out["evaluator.us_per_row"] = (batch_s * 1e6 / scored_rows if scored_rows else 0.0, "us")
    out["evaluator.single_calls"] = (_per(count.get("evaluator.evaluate", 0), n), "count")
    out["evaluator.single_ms"] = (_per(total("evaluator.evaluate"), n) * ms, "ms")

    n_moves = info_sum("delta.score_moves", "moves")
    out["delta.resets"] = (_per(count.get("delta.reset", 0), n), "count")
    out["delta.moves"] = (_per(n_moves, n), "count")
    out["delta.score_ms"] = (_per(busy.get("delta", 0.0), n) * ms, "ms")
    out["delta.us_per_move"] = (
        total("delta.score_moves") * 1e6 / n_moves if n_moves else 0.0,
        "us",
    )
    out["delta.commits"] = (_per(count.get("delta.commit", 0), n), "count")

    for name in STRATEGIES:
        key = f"strategy.{name}"
        runs = [i for i, s in enumerate(spans) if s.name == key]
        calls = len(runs)
        out[f"{key}.run_ms"] = (_per(sum(spans[i].duration for i in runs), calls) * ms, "ms")
        out[f"{key}.self_ms"] = (_per(sum(selfs[i] for i in runs), calls) * ms, "ms")
        out[f"{key}.evals"] = (_per(sum(spans[i].info.get("evals", 0) for i in runs), calls), "count")

    all_spans = list(setup_spans) + list(spans)
    seen, start_s = set(), 0.0
    for s in all_spans:
        if s.name == "pool.get_pool" and s.info.get("pool") not in seen:
            seen.add(s.info.get("pool"))
            start_s += s.duration
    out["pool.start_ms"] = (start_s * ms, "ms")
    out["pool.tasks"] = (_per(counters.get("pool_tasks", 0), n), "count")
    out["pool.wait_ms"] = (_per(total("pool.wait"), n) * ms, "ms")
    out["pool.retries"] = (float(counters.get("pool_retries", 0)), "count")

    out["service.parse_ms"] = (_per(total("service.parse"), n) * ms, "ms")
    out["service.handle_self_ms"] = (_per(total("service.handle", use_self=True), n) * ms, "ms")
    handled = {s.rid: s.duration for s in spans if s.name == "service.handle"}
    transport = [
        s.duration - handled[s.rid]
        for s in spans
        if s.name == "service.client" and s.rid in handled
    ]
    out["service.transport_ms"] = (_per(sum(transport), len(transport)) * ms, "ms")
    out["service.queue_wait_ms"] = (_per(_coalescer_wait(spans), n) * ms, "ms")
    flights = counters.get("flights", 0)
    out["service.flights"] = (_per(flights, n), "count")
    out["service.batches_per_flight"] = (
        counters.get("batches", 0) / flights if flights else 0.0,
        "count",
    )
    out["service.rejected"] = (float(counters.get("rejected", 0)), "count")
    return out


def _coalescer_wait(spans: Sequence[Span]) -> float:
    """Total time submissions waited in a coalescer before their flight.

    A submission rides the first flight of its coalescer that starts
    after the submission returned: flights of one coalescer are serial
    and take pending rows first-in first-out. Flights are the
    ``submit_batch`` spans of the coalescer's shared evaluator, recorded
    on the coalescer thread (they have no request id).
    """
    flights: Dict[int, List[float]] = {}
    for s in spans:
        if s.name == "evaluator.submit_batch" and s.rid is None and "evaluator" in s.info:
            flights.setdefault(s.info["evaluator"], []).append(s.start)
    for starts in flights.values():
        starts.sort()
    waited = 0.0
    for s in spans:
        if s.name != "service.coalesce_submit":
            continue
        starts = flights.get(s.info.get("evaluator"), [])
        at = bisect.bisect_left(starts, s.end)
        if at < len(starts):
            waited += starts[at] - s.end
    return waited


def dominant_layers(spans: Sequence[Span], n_requests: int) -> List[Tuple[str, float]]:
    """Self time per request by layer (ms, summed over threads), largest first.

    The client span is left out: it covers the whole request, so its self
    time is the transport plus everything the daemon did.
    """
    by_layer: Dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        layer = LAYER_OF.get(span.name, span.name)
        if layer != "client":
            by_layer[layer] = by_layer.get(layer, 0.0) + own
    ranked = sorted(by_layer.items(), key=lambda item: -item[1])
    return [(layer, _per(total, n_requests) * 1e3) for layer, total in ranked]
