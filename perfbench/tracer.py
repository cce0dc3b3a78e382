"""Spans around the calls into each ``repro`` layer, recorded from outside.

The traced run wraps layer entry points on the classes their callers
actually use (several modules bind functions with ``from ... import``,
so patching a module attribute could miss callers), registers two
``OpInterceptor``s through the public ``dispatch.core`` registry (one
for eager ops, one for graph nodes), and reads the program's own
counters.  Nothing under ``src/`` changes.

A span is ``[name, start, end, parent, step, child_time]`` in a
per-thread list: ``parent`` indexes the same thread's list (-1 for a
root), ``step`` is the step or request id current when it began, and
``child_time`` accumulates the durations of its direct children, so a
span's self time is ``end - start - child_time``.  Spans nest per
thread; graph call nodes nesting their callee's nodes are handled by
the same rule.  Spans stay in memory and can be written as Chrome
trace-event JSON.
"""

from __future__ import annotations

import json
import threading
import time

from repro.core.function import Function
from repro.core.pipeline import CompilationPipeline
from repro.core.saved_function import LoadedFunction
from repro.core.tape import GradientTape
from repro.graph import fusion
from repro.graph.executor import GraphRunner
from repro.runtime import dispatch, lazy, stream
from repro.runtime.context import Context
from repro.runtime.executor import AsyncPolicy, LazyPolicy, SyncPolicy
from repro.serving.server import ServedModel
from repro.xla import compiler, tpu

_now = time.perf_counter


class Tracer:
    """Per-thread span lists plus the counters kept beside them."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.threads: dict[int, list] = {}  # thread id -> span list
        self.step = None  # the step / request id new spans are tagged with
        self.main_thread = threading.get_ident()
        self.counts = {
            "tape_records": 0,
            "fuse_nodes_before": 0,
            "fuse_nodes_fused": 0,
            "fuse_regions": 0,
            "nodes_traced": 0,
            "nodes_optimized": 0,
        }
        self.served_rows: list = []  # (start, end, rows) per served call
        self._patches: list = []
        self._interceptors: list = []

    # -- span primitives ----------------------------------------------------
    def _state(self):
        local = self._local
        spans = getattr(local, "spans", None)
        if spans is None:
            spans = local.spans = []
            local.stack = []
            with self._lock:
                self.threads[threading.get_ident()] = spans
        return spans, local.stack

    def begin(self, name: str) -> int:
        spans, stack = self._state()
        index = len(spans)
        spans.append([name, _now(), 0.0, stack[-1] if stack else -1, self.step, 0.0])
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        now = _now()
        spans, stack = self._state()
        span = spans[index]
        span[2] = now
        stack.pop()
        if span[3] >= 0:
            spans[span[3]][5] += now - span[1]

    def span_lists(self) -> dict:
        """Thread id -> that thread's span list (a snapshot of the mapping)."""
        with self._lock:
            return dict(self.threads)

    # -- installation ---------------------------------------------------------
    def _patch(self, owner, attr: str, wrapper_factory) -> None:
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper_factory(original))

    def _span(self, owner, attr: str, name: str) -> None:
        begin, end = self.begin, self.end

        def factory(original):
            def wrapper(*args, **kwargs):
                index = begin(name)
                try:
                    return original(*args, **kwargs)
                finally:
                    end(index)

            return wrapper

        self._patch(owner, attr, factory)

    def install(self) -> None:
        if self._patches:
            return
        tracer = self
        begin, end, counts = self.begin, self.end, self.counts

        for policy in (SyncPolicy, AsyncPolicy, LazyPolicy):
            self._span(policy, "submit", "executor.submit")
        self._span(dispatch.DispatchCore, "dispatch_async", "dispatch.async")
        self._span(GradientTape, "gradient", "tape.gradient")
        self._span(lazy.LazyTrace, "record", "lazy.record")
        self._span(CompilationPipeline, "compile_segment", "lazy.compile")
        self._span(stream.ExecutionStream, "enqueue", "stream.enqueue")
        self._span(stream.PendingHandle, "wait", "stream.wait")
        self._span(Context, "sync", "context.sync")
        self._span(Function, "__call__", "function.call")
        self._span(GraphRunner, "run", "graph.run")
        self._span(GraphRunner, "__init__", "pipeline.plan")
        self._span(compiler.CompiledExecutable, "execute", "xla.execute")
        self._span(ServedModel, "submit", "serving.submit")

        def dispatch_factory(original):
            def wrapper(self, op_name, inputs, attrs, device=None,
                        explicit_device=None, mode=dispatch.EAGER):
                index = begin(
                    "dispatch.eager" if mode == dispatch.EAGER else "dispatch.graph"
                )
                try:
                    return original(self, op_name, inputs, attrs, device,
                                    explicit_device, mode)
                finally:
                    end(index)

            return wrapper

        self._patch(dispatch.DispatchCore, "dispatch", dispatch_factory)

        def record_factory(original):
            def wrapper(self, *args, **kwargs):
                before = len(self._records)
                original(self, *args, **kwargs)
                counts["tape_records"] += len(self._records) - before

            return wrapper

        self._patch(GradientTape, "record", record_factory)

        def flush_factory(original):
            def wrapper(self):
                # Only an open trace with recorded ops executes a segment;
                # other calls are idempotent no-ops.
                real = not self.closed and bool(self.records)
                index = begin("lazy.flush" if real else "lazy.flush.noop")
                try:
                    return original(self)
                finally:
                    end(index)

            return wrapper

        self._patch(lazy.LazyTrace, "flush", flush_factory)

        def trace_factory(original):
            def wrapper(self, *args, **kwargs):
                index = begin("pipeline.trace")
                try:
                    result = original(self, *args, **kwargs)
                finally:
                    end(index)
                counts["nodes_traced"] += len(result[0].nodes)
                return result

            return wrapper

        self._patch(CompilationPipeline, "trace", trace_factory)

        def optimize_factory(original):
            def wrapper(self, fn):
                index = begin("pipeline.optimize")
                try:
                    return original(self, fn)
                finally:
                    end(index)
                    counts["nodes_optimized"] += len(fn.graph.nodes)

            return wrapper

        self._patch(CompilationPipeline, "optimize", optimize_factory)

        def fuse_factory(original):
            def wrapper(fn):
                before = len(fn.graph.nodes)
                index = begin("pipeline.fuse")
                try:
                    regions = original(fn)
                finally:
                    end(index)
                # Each region node replaces its member ops.
                counts["fuse_nodes_before"] += before
                counts["fuse_nodes_fused"] += before - len(fn.graph.nodes) + regions
                counts["fuse_regions"] += regions
                return regions

            return wrapper

        self._patch(fusion, "fuse_function", fuse_factory)

        def compile_factory(original):
            def wrapper(*args, **kwargs):
                index = begin("xla.compile")
                try:
                    return original(*args, **kwargs)
                finally:
                    end(index)

            return wrapper

        # ``tpu`` binds compile_function at import: patch where it is called.
        self._patch(tpu, "compile_function", compile_factory)

        def served_factory(original):
            def wrapper(self, *args):
                index = begin("serving.execute")
                start = _now()
                try:
                    return original(self, *args)
                finally:
                    end(index)
                    tracer.served_rows.append((start, _now(), args[0].shape[0]))

            return wrapper

        self._patch(LoadedFunction, "__call__", served_factory)

        class _Interceptor(dispatch.OpInterceptor):
            def __init__(self, name, mode, span):
                self.name = name
                self.modes = (mode,)
                self._span = span

            def on_start(self, op_name, attrs, inputs, device):
                return begin(self._span)

            def on_complete(self, op_name, attrs, inputs, outputs, device, token):
                end(token)

            def on_error(self, op_name, attrs, inputs, device, token, exc):
                end(token)

        for name, mode, span in (
            ("perfbench-eager", dispatch.EAGER, "kernel"),
            ("perfbench-graph", dispatch.GRAPH, "graph.node"),
        ):
            interceptor = _Interceptor(name, mode, span)
            dispatch.core.register_interceptor(interceptor)
            self._interceptors.append(interceptor)

    def uninstall(self) -> None:
        for interceptor in self._interceptors:
            dispatch.core.unregister_interceptor(interceptor)
        self._interceptors.clear()
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- export ---------------------------------------------------------------
    def write_chrome_trace(self, path: str, steps) -> int:
        """Write the spans of ``steps`` (plus untagged set-up spans) as JSON.

        Returns the number of events written.
        """
        keep = set(steps)
        events = []
        origin = None
        for tid, spans in self.span_lists().items():
            for index, span in enumerate(spans):
                if span[4] is not None and span[4] not in keep:
                    continue
                name, start, stop, parent, step, _ = span
                origin = start if origin is None else min(origin, start)
                events.append((tid, index, name, start, stop, parent, step))
        origin = origin or 0.0
        out = [
            {
                "name": name,
                "cat": name.split(".")[0],
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": max(stop - start, 0.0) * 1e6,
                "pid": 0,
                "tid": tid,
                "args": {"step": step, "parent": parent, "index": index},
            }
            for tid, index, name, start, stop, parent, step in events
        ]
        with open(path, "w") as f:
            json.dump({"traceEvents": out, "displayTimeUnit": "ms"}, f)
        return len(out)
