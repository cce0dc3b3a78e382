"""The TPU execution path.

The simulated TPU "expects" compiled programs only, so this module
bridges the runtime to the compiler:

* **Per-operation execution** — "It is possible to run single
  operations on a TPU using TensorFlow Eager ... but the overhead of
  compiling operations for TPU and dispatching the generated code is
  significant" (paper §4.4).  Each distinct (op, signature) compiles
  once into a one-op program, held in a
  :class:`~repro.core.trace_cache.TraceCache` (LRU-bounded by
  ``context.trace_cache_size``), but *every execution* pays the
  program-launch overhead — the mechanism behind Table 1's slow
  imperative rows.

* **Whole-function execution** — a ``PartitionedCall`` landing on the
  TPU compiles the callee into a single program; one launch then covers
  the entire training step ("when amortized over a large graph
  function, this overhead becomes negligible").  The program is cached
  on the callee itself through the compilation pipeline, one per
  concrete input shape, so a shape-relaxed trace specializes per shape
  exactly as under ``jit_compile``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.pipeline import CompilationPipeline
from repro.core.trace_cache import TraceCache
from repro.framework import dtypes
from repro.framework.errors import UnimplementedError
from repro.ops import registry
from repro.runtime import dispatch
from repro.runtime.device import Device
from repro.tensor import Tensor, TensorSpec
from repro.graph.function import GraphFunction
from repro.xla.compiler import CompiledExecutable, compile_function

__all__ = ["install", "uninstall", "compile_cache_stats"]

_op_programs = TraceCache()
_pipeline = CompilationPipeline()
_stats = {"op_compiles": 0, "fn_compiles": 0, "launches": 0}


def compile_cache_stats() -> dict:
    return dict(_stats)


def _signature(inputs) -> tuple:
    return tuple((t.dtype, t.shape.as_tuple()) for t in inputs)


def _attr_cache_key(attrs: dict) -> tuple:
    items = []
    for k in sorted(attrs):
        v = attrs[k]
        if isinstance(v, np.ndarray):
            items.append((k, ("ndarray", v.shape, str(v.dtype), v.tobytes())))
        elif callable(v) or hasattr(v, "graph"):
            items.append((k, ("object", id(v))))
        else:
            items.append((k, repr(v)))
    return tuple(items)


def _single_op_program(op_name: str, inputs, attrs: dict) -> CompiledExecutable:
    """Build (or fetch) the one-op program for an eager TPU dispatch."""
    key = (op_name, _signature(inputs), _attr_cache_key(attrs))
    prog, _ = _op_programs.lookup(key)
    if prog is not None:
        return prog
    from repro.core.tracing import FuncGraph
    from repro.runtime.executor import execute

    graph = FuncGraph(name=f"tpu_{op_name}")
    with graph.as_default():
        phs = [
            graph.add_input(TensorSpec(t.shape, t.dtype), name=f"arg_{i}")
            for i, t in enumerate(inputs)
        ]
        outputs = execute(op_name, phs, attrs)
    if not isinstance(outputs, tuple):
        outputs = (outputs,) if outputs is not None else ()
    fn = GraphFunction(f"tpu_{op_name}", graph, inputs=phs, outputs=list(outputs))
    prog = compile_function(fn)
    with _op_programs.lock:
        _op_programs.insert(key, prog)
        _stats["op_compiles"] += 1
    return prog


def _compile_callee(fn: GraphFunction) -> CompiledExecutable:
    with _op_programs.lock:  # also guards the counters
        _stats["fn_compiles"] += 1
    return compile_function(fn)


def run_op_on_tpu(device: Device, op_name: str, inputs: Sequence, attrs: dict) -> list:
    """The compiled-op runner installed into the eager executor."""
    inputs = list(inputs)
    if op_name == "PartitionedCall":
        fn = attrs["f"]
        prog = _pipeline.compile(fn, inputs, compiler=_compile_callee)
        out_specs = fn.output_specs
    else:
        if not registry.has_kernel(op_name, "CPU"):
            raise UnimplementedError(
                f"Operation {op_name!r} has no compilable kernel"
            )
        prog = _single_op_program(op_name, inputs, attrs)
        out_specs = None

    arrays = []
    for t in inputs:
        if t.dtype in (dtypes.resource, dtypes.variant):
            arrays.append(t._array)
        elif t.device_object is not device:
            arrays.append(device.allocate(np.asarray(t.numpy())))
        else:
            arrays.append(t._array)
    results = prog.execute(arrays, device)
    _stats["launches"] += 1

    outputs = []
    for i, arr in enumerate(results):
        arr = np.asarray(arr)
        if out_specs is not None and out_specs[i].dtype in (
            dtypes.resource,
            dtypes.variant,
        ):
            outputs.append(Tensor._from_buffer(arr, out_specs[i].dtype, device))
            continue
        buf = device.allocate(arr)
        outputs.append(Tensor._from_buffer(buf, dtypes.as_dtype(arr.dtype), device))
    return outputs


def install() -> None:
    """Register the TPU bridge as the op runner of every compilation
    device — the device-level hook both executors reach through the
    uniform :meth:`Device.dispatch` protocol."""
    dispatch.core.install_compilation_runner(run_op_on_tpu)


def uninstall() -> None:
    dispatch.core.install_compilation_runner(None)


def reset_caches() -> None:
    """Drop the per-op programs and zero the counters (callee programs
    live on their graph functions)."""
    with _op_programs.lock:
        _op_programs.clear()
        _stats.update({"op_compiles": 0, "fn_compiles": 0, "launches": 0})
