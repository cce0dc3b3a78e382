"""Per-layer metrics from the traced run, and the span-count checks.

Each metric is read from the traced steps of the mode whose layer it
belongs to (see NOTES.md for the table): eager dispatch, kernels and the
tape from sync steps; graph execution and ``function`` from staged
steps; lazy recording from lazy steps; the stream from async steps;
XLA from TPU steps; serving from the traced nominal-rate window.  Set-up
costs (trace, optimize, fuse, plan, segment and XLA compiles) are
process totals.  A layer a workload never reaches reports 0.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

import numpy as np

from repro.runtime import lazy
from repro.runtime.context import context
from repro.xla import tpu

import serve
from programs import MODES


class Recorder:
    """Snapshots of the program's own counters around each traced step."""

    def __init__(self, tracer) -> None:
        self.steps: list = []  # (mode, step_id, seconds, before, after)
        self._tracer = tracer
        self._tpu = context.get_device("/tpu:0")

    def snapshot(self, runner) -> dict:
        cpu = context.cpu_device().memory_stats()
        tpu_dev = self._tpu.memory_stats()
        snap = {
            "lazy": lazy.lazy_stats(),
            "cpu_alloc": cpu["num_allocations"],
            "cpu_launch": cpu["kernel_launches"],
            "tpu_sim_us": self._tpu.simulated_time_us,
            "tpu_launch": tpu_dev["kernel_launches"],
            "xla": tpu.compile_cache_stats(),
            "tape": self._tracer.counts["tape_records"],
        }
        fn = getattr(runner, "function", None)
        if fn is not None:
            snap["fn"] = fn.cache_stats()
        return snap


def first_steps(recorder: Recorder) -> list:
    """What the Chrome trace keeps: each mode's first step (set-up and
    timed) and the first ten traced requests."""
    keep = [f"setup:{mode}" for mode in MODES] + [f"req:{i}" for i in range(10)]
    seen = set()
    for mode, step_id, *_ in recorder.steps:
        if mode not in seen:
            seen.add(mode)
            keep.append(step_id)
    return keep


class _Index:
    """Spans grouped by step, with helpers for self time and nesting."""

    def __init__(self, tracer) -> None:
        self.by_step = defaultdict(list)
        self.by_name = defaultdict(list)
        self.lists = tracer.span_lists()
        for tid, spans in self.lists.items():
            for index, span in enumerate(spans):
                entry = (tid, index, span)
                self.by_step[span[4]].append(entry)
                self.by_name[span[0]].append(entry)

    def _has_ancestor(self, tid, span, name) -> bool:
        spans = self.lists[tid]
        parent = span[3]
        while parent >= 0:
            if spans[parent][0] == name:
                return True
            parent = spans[parent][3]
        return False

    def select(self, steps, name, outermost=False):
        out = []
        for step in steps:
            for tid, _, span in self.by_step.get(step, ()):
                if span[0] != name:
                    continue
                if outermost and self._has_ancestor(tid, span, name):
                    continue
                out.append((tid, span))
        return out


def _dur(spans) -> float:
    return sum(s[2] - s[1] for _, s in spans)


def _self(spans) -> float:
    return sum(s[2] - s[1] - s[5] for _, s in spans)


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def _delta(steps, pick) -> float:
    return sum(pick(after) - pick(before) for *_, before, after in steps)


def per_layer(tracer, recorder: Recorder, times, traced, serving, state):
    """Returns ``(metrics, checks, detail)``.

    ``metrics`` maps name -> (value, unit); ``checks`` holds
    ``(name, passed, detail)`` span-count checks; ``detail`` the
    per-mode tracing diagnostics.
    """
    idx = _Index(tracer)
    by_mode = defaultdict(list)
    for entry in recorder.steps:
        by_mode[entry[0]].append(entry)
    ids = {m: [e[1] for e in by_mode[m]] for m in MODES}
    n = {m: len(by_mode[m]) for m in MODES}
    wall = {m: sum(e[2] for e in by_mode[m]) for m in MODES}
    metrics = {}
    checks = []

    def put(name, value, unit):
        metrics[name] = (float(value), unit)

    # -- sync steps: executor, eager dispatch, kernels, tape, device ---------
    s = by_mode["sync"]
    submits = idx.select(ids["sync"], "executor.submit")
    eager = idx.select(ids["sync"], "dispatch.eager")
    kernels = idx.select(ids["sync"], "kernel")
    put("executor.eager_ops_per_step", _ratio(len(submits), n["sync"]), "ops")
    put("executor.submit_us_per_op", _ratio(_dur(submits), len(submits)) * 1e6, "us")
    put("dispatch.eager_ops_per_step", _ratio(len(eager), n["sync"]), "ops")
    put("dispatch.self_us_per_op", _ratio(_self(eager), len(eager)) * 1e6, "us")
    put("kernel.s_per_step", _ratio(_self(kernels), n["sync"]), "s")
    put("kernel.share", _ratio(_self(kernels), wall["sync"]), "ratio")
    put("tape.records_per_step",
        _ratio(_delta(s, lambda c: c["tape"]), n["sync"]), "records")
    put("tape.gradient_s_per_step",
        _ratio(_dur(idx.select(ids["sync"], "tape.gradient", outermost=True)),
               n["sync"]), "s")
    put("device.allocations_per_step",
        _ratio(_delta(s, lambda c: c["cpu_alloc"]), n["sync"]), "count")
    launches = _delta(s, lambda c: c["cpu_launch"])
    put("device.launches_per_step", _ratio(launches, n["sync"]), "count")
    checks.append(("eager_kernel_spans_eq_cpu_launches", len(kernels) == launches,
                   f"{len(kernels)} spans vs {launches} launches"))

    # -- staged steps: graph nodes, function, graph executor ----------------
    s = by_mode["staged"]
    nodes = idx.select(ids["staged"], "graph.node")
    node_dispatch = idx.select(ids["staged"], "dispatch.graph")
    calls = idx.select(ids["staged"], "function.call", outermost=True)
    all_calls = idx.select(ids["staged"], "function.call")
    runs = idx.select(ids["staged"], "graph.run")
    outer_runs = idx.select(ids["staged"], "graph.run", outermost=True)
    put("dispatch.graph_nodes_per_step", _ratio(len(nodes), n["staged"]), "nodes")
    put("function.calls_per_step", _ratio(len(all_calls), n["staged"]), "calls")
    put("function.call_overhead_us", _ratio(_self(calls), len(calls)) * 1e6, "us")
    hits = _delta(s, lambda c: c["fn"]["hits"])
    misses = _delta(s, lambda c: c["fn"]["misses"])
    put("function.cache_hit_ratio", _ratio(hits, hits + misses), "ratio")
    staged_fn = state["runners"]["staged"].function
    put("function.traces", staged_fn.cache_stats()["traces"], "count")
    put("graph.runs_per_step", _ratio(len(runs), n["staged"]), "runs")
    put("graph.run_s_per_step", _ratio(_dur(outer_runs), n["staged"]), "s")
    put("graph.self_us_per_node", _ratio(_self(runs), len(nodes)) * 1e6, "us")
    peak = 0
    for trace in staged_fn.execution_stats()["traces"]:
        peak = max(peak, trace.get("peak_live_bytes", 0))
    put("graph.peak_live_bytes", peak, "bytes")
    staged_launches = _delta(s, lambda c: c["cpu_launch"])
    staged_eager = len(idx.select(ids["staged"], "kernel"))
    checks.append(("graph_node_spans_eq_graph_dispatches",
                   len(nodes) == len(node_dispatch),
                   f"{len(nodes)} interceptor spans vs {len(node_dispatch)} dispatches"))
    checks.append(("graph_and_eager_spans_eq_cpu_launches",
                   len(nodes) + staged_eager == staged_launches,
                   f"{len(nodes)} node + {staged_eager} eager spans vs "
                   f"{staged_launches} launches"))
    checks.append(("function_call_spans_eq_cache_lookups",
                   len(all_calls) == hits + misses,
                   f"{len(all_calls)} spans vs {hits + misses} lookups"))

    # -- lazy steps ------------------------------------------------------------
    s = by_mode["lazy"]
    records = idx.select(ids["lazy"], "lazy.record")
    flushes = idx.select(ids["lazy"], "lazy.flush")
    outer_flushes = idx.select(ids["lazy"], "lazy.flush", outermost=True)
    d = {k: _delta(s, lambda c, k=k: c["lazy"][k]) for k in (
        "recorded_ops", "fallback_ops", "flushes", "flushed_ops",
        "cache_hits", "cache_misses")}
    put("lazy.recorded_ops_per_step", _ratio(len(records), n["lazy"]), "ops")
    put("lazy.record_us_per_op", _ratio(_dur(records), len(records)) * 1e6, "us")
    put("lazy.fallback_share",
        _ratio(d["fallback_ops"], d["fallback_ops"] + d["recorded_ops"]), "ratio")
    put("lazy.flushes_per_step", _ratio(d["flushes"], n["lazy"]), "flushes")
    put("lazy.ops_per_flush", _ratio(d["flushed_ops"], d["flushes"]), "ops")
    put("lazy.flush_s_per_step", _ratio(_dur(outer_flushes), n["lazy"]), "s")
    put("lazy.segment_hit_ratio",
        _ratio(d["cache_hits"], d["cache_hits"] + d["cache_misses"]), "ratio")
    put("lazy.segment_compile_s", _dur(_all(idx, "lazy.compile")), "s")
    checks.append(("lazy_record_spans_eq_recorded_ops",
                   len(records) == d["recorded_ops"],
                   f"{len(records)} spans vs {d['recorded_ops']} recorded"))
    checks.append(("lazy_flush_spans_eq_flushes", len(flushes) == d["flushes"],
                   f"{len(flushes)} spans vs {d['flushes']} flushes"))

    # -- async steps: the stream -------------------------------------------------
    enqueues = idx.select(ids["async"], "stream.enqueue")
    main_tid = tracer.main_thread
    waits = [
        (tid, sp) for tid, sp in idx.select(ids["async"], "context.sync", outermost=True)
        + idx.select(ids["async"], "stream.wait", outermost=True)
        if tid == main_tid and not idx._has_ancestor(tid, sp, "context.sync")
    ]
    worker_kernels = [
        (tid, sp) for tid, sp in idx.select(ids["async"], "kernel") if tid != main_tid
    ]
    put("stream.enqueued_per_step", _ratio(len(enqueues), n["async"]), "ops")
    put("stream.sync_wait_s_per_step", _ratio(_dur(waits), n["async"]), "s")
    checks.append(("stream_enqueue_spans_eq_worker_kernels",
                   len(enqueues) == len(worker_kernels),
                   f"{len(enqueues)} enqueued vs {len(worker_kernels)} run"))

    # -- TPU steps: XLA ------------------------------------------------------------
    s = by_mode["tpu"]
    executes = idx.select(ids["tpu"], "xla.execute")
    xla_launches = _delta(s, lambda c: c["xla"]["launches"])
    put("xla.compile_s", _dur(_all(idx, "xla.compile")), "s")
    # The TPU's simulated clock, not the wall clock: deterministic for a
    # fixed program and shapes, hence its own unit.
    put("xla.sim_step_ms",
        _ratio(_delta(s, lambda c: c["tpu_sim_us"]), n["tpu"]) / 1e3, "sim-ms")
    put("xla.launches_per_step", _ratio(xla_launches, n["tpu"]), "launches")
    checks.append(("xla_execute_spans_eq_launches", len(executes) == xla_launches,
                   f"{len(executes)} spans vs {xla_launches} launches"))

    # -- process totals: the staging pipeline -----------------------------------
    counts = tracer.counts
    optimize = _dur(_all(idx, "pipeline.optimize"))
    fuse = _dur(_all(idx, "pipeline.fuse"))
    put("pipeline.trace_s", _dur(_all(idx, "pipeline.trace")), "s")
    put("pipeline.optimize_s", optimize - fuse, "s")
    put("pipeline.fuse_s", fuse, "s")
    put("pipeline.plan_s", _dur(_all(idx, "pipeline.plan")), "s")
    put("pipeline.nodes_traced", counts["nodes_traced"], "nodes")
    put("pipeline.nodes_optimized", counts["nodes_optimized"], "nodes")
    put("fusion.regions", counts["fuse_regions"], "regions")
    put("fusion.fused_node_share",
        _ratio(counts["fuse_nodes_fused"], counts["fuse_nodes_before"]), "ratio")

    # -- serving (traced nominal-rate window) -------------------------------------
    window, before, after, rows_before = serving["traced_window"]
    served = tracer.served_rows[rows_before:]
    waits_ms, mapped = _queue_waits(window, state, served)
    submitted = (after["submitted"] - before["submitted"]
                 + after["rejected"] - before["rejected"])
    batches = after["batches"] - before["batches"]
    completed = after["completed"] - before["completed"]
    submit_spans = [sp for _, _, sp in idx.by_name["serving.submit"]
                    if isinstance(sp[4], str) and sp[4].startswith("req:")]
    put("serving.queue_wait_p50_ms",
        np.percentile(waits_ms, 50) if waits_ms else 0.0, "ms")
    put("serving.queue_wait_p99_ms",
        np.percentile(waits_ms, 99) if waits_ms else 0.0, "ms")
    put("serving.mean_batch_size", _ratio(completed, batches), "requests")
    put("serving.execute_ms_per_batch",
        _ratio(sum(e - b for b, e, _ in served), len(served)) * 1e3, "ms")
    put("serving.rejected_share",
        _ratio(after["rejected"] - before["rejected"], submitted), "ratio")
    put("serving.generator_late_ms", float(np.percentile(window.late_ms(), 99)), "ms")
    checks.append(("serving_submit_spans_eq_submitted",
                   len(submit_spans) == submitted,
                   f"{len(submit_spans)} spans vs {submitted} submitted"))
    checks.append(("serving_batches_map_to_requests", mapped, ""))

    # -- tracing itself -----------------------------------------------------------
    shares = []
    attributed = []
    per_mode_attr = {}
    overhead = {}
    for mode in MODES:
        if times[mode] and traced[mode]:
            shares.append(1.0 - statistics.median(times[mode])
                          / statistics.median(traced[mode]))
            overhead[mode] = shares[-1]
        steps = idx.select(ids[mode], "step")
        covered = 0.0
        total = 0.0
        for tid, sp in steps:
            total += sp[2] - sp[1]
            covered += sp[5]
        attributed.append(_ratio(covered, total))
        per_mode_attr[mode] = _ratio(covered, total)
    plain = serving["plain_window"].latencies_ms()
    lat = window.latencies_ms()
    if len(plain) and len(lat):
        shares.append(1.0 - np.median(plain) / np.median(lat))
        overhead["serving"] = shares[-1]
    put("trace.overhead_share", np.mean(shares), "ratio")
    put("trace.attributed_share", np.mean(attributed), "ratio")
    detail = {"attributed_share": per_mode_attr, "overhead_share": overhead}
    return metrics, checks, detail


def _all(idx, name):
    return [(tid, sp) for tid, _, sp in idx.by_name[name]]


def _queue_waits(window, state, served) -> tuple:
    """Map each served call to the requests it carried (FIFO by rows).

    Returns the per-request queue waits (send to execution start, ms)
    and whether every call's rows matched whole requests.
    """
    pool, order = state["pool"], state["order"]
    sent = [
        (window.sent[i], pool[order[i % len(order)]][0].shape[0])
        for i in range(window.count)
        if window.outcome[i] != serve.REJECTED
    ]
    waits = []
    cursor = 0
    for start, _, rows in served:
        remaining = rows
        while remaining > 0 and cursor < len(sent):
            t_sent, size = sent[cursor]
            waits.append((start - t_sent) * 1e3)
            remaining -= size
            cursor += 1
        if remaining != 0:
            return waits, False
    return waits, cursor == len(sent)
