"""Compilation of graph functions to executable accelerator programs.

A :class:`CompiledExecutable` is the analogue of an XLA executable: a
flat schedule of (fused) instructions with all graph analysis done at
compile time.  Executing one:

* computes real values with NumPy on the host (our "accelerator" is
  simulated), and
* charges the owning device's **simulated clock** one program-launch
  overhead plus the program's modelled compute time
  (``max(flops/throughput, bytes/bandwidth)`` per instruction — a
  roofline model).

Per the paper's methodology (§6), compilation itself is a one-time cost
"usually amortized over a number of runs"; it is tracked on the
executable (``compile_time_us``) but never charged to the clock.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

import numpy as np

from repro.framework import dtypes
from repro.framework.errors import UnimplementedError
from repro.runtime.device import Device
from repro.tensor import Tensor
from repro.graph.function import GraphFunction
from repro.xla import fusion as fusion_pass
from repro.xla import hlo

__all__ = ["CompiledExecutable", "compile_function"]


class CompiledExecutable:
    """An executable program for a simulated accelerator."""

    def __init__(self, computation: hlo.HloComputation, compile_time_us: float) -> None:
        self.computation = computation
        self.compile_time_us = compile_time_us
        self._schedule = [
            i for i in computation.instructions if i.opcode != "Parameter"
        ]
        self._param_slots = {
            i.attrs["parameter_number"]: i.index
            for i in computation.instructions
            if i.opcode == "Parameter"
        }
        self.num_launch_instructions = len(self._schedule)

        # Last-use analysis: free each intermediate buffer right after
        # its final consumer (the buffer-reuse benefit of §4.1, same as
        # the graph executor).  Root values are never freed.
        roots = set(computation.roots)
        last_use: dict[tuple[int, int], int] = {}
        for pos, instr in enumerate(self._schedule):
            for operand in instr.operands:
                last_use[operand] = pos
        self._dies_at: list[tuple[tuple[int, int], ...]] = [
            () for _ in self._schedule
        ]
        for operand, pos in last_use.items():
            if operand not in roots:
                self._dies_at[pos] = self._dies_at[pos] + (operand,)

    @property
    def name(self) -> str:
        return self.computation.name

    def simulated_run_time_us(self, device: Device) -> float:
        """Modelled execution time for one launch (excl. launch overhead)."""
        cm = device.cost_model
        return sum(
            cm.program_cost_us(i.flops, i.bytes_accessed) for i in self._schedule
        )

    def execute(self, arrays: Sequence[np.ndarray], device: Device) -> list[np.ndarray]:
        """Run the program; charges one launch on the device's clock."""
        env: dict[tuple[int, int], np.ndarray] = {}
        for pnum, index in self._param_slots.items():
            env[(index, 0)] = arrays[pnum]
        cm = device.cost_model
        elapsed = cm.launch_overhead_us
        for pos, instr in enumerate(self._schedule):
            args = [env[op] for op in instr.operands]
            results = instr.kernel(args, device)
            if results is None:
                results = []
            elif isinstance(results, (np.ndarray, Tensor)) or np.isscalar(results):
                results = [results]
            for slot, r in enumerate(results):
                env[(instr.index, slot)] = (
                    r._array if isinstance(r, Tensor) else np.asarray(r)
                )
            elapsed += cm.program_cost_us(instr.flops, instr.bytes_accessed)
            for dead in self._dies_at[pos]:
                env.pop(dead, None)
        device.charge_simulated_time(elapsed)
        device.count_kernel_launch()
        return [env[root] for root in self.computation.roots]

    def release(self) -> None:
        """Trace-cache eviction hook: an executable owns no derived state."""

    def __repr__(self) -> str:
        return (
            f"<CompiledExecutable {self.name!r}: "
            f"{self.num_launch_instructions} instructions, "
            f"{self.computation.total_flops:.0f} flops>"
        )


def compile_function(
    fn: GraphFunction,
    fuse: bool = True,
    name: Optional[str] = None,
) -> CompiledExecutable:
    """Compile a graph function into an accelerator executable.

    Compilation is *shape-monomorphic*: the roofline cost model and the
    fusion heuristics consume per-instruction flop/byte counts, which
    require every dimension to be known.  A symbolic (relaxed) trace
    must be specialized to concrete input shapes first —
    :meth:`repro.core.pipeline.CompilationPipeline.compile` does this
    and caches one executable per shape on the graph function.
    """
    for spec in fn.input_specs:
        if not spec.is_fully_defined:
            raise UnimplementedError(
                f"Cannot compile {fn.name!r}: input {spec} has unknown "
                "dimensions. XLA requires static shapes; specialize the "
                "function to concrete shapes first (see "
                "CompilationPipeline.compile(fn, input_specs=...))."
            )
    start = time.perf_counter()
    computation = hlo.lower(fn, name=name)
    if fuse:
        computation = fusion_pass.fuse_elementwise(computation)
    compile_time_us = (time.perf_counter() - start) * 1e6
    return CompiledExecutable(computation, compile_time_us=compile_time_us)
