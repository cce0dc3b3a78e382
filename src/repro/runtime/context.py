"""The global runtime context.

"During program startup, the runtime detects the devices that are
available to the machine, and makes it possible to both execute
operations on them and store data on them" (paper §4.4).

The :class:`Context` singleton owns:

* the device registry (one CPU, plus simulated GPUs and TPUs),
* the thread-local *device stack* pushed by the ``device(...)``
  context manager,
* the thread-local *graph-building stack* used by the tracer (§4.6) —
  when non-empty, operations are staged into the innermost graph
  instead of executed,
* per-device random number generators with a global seed, and
* a resolver hook through which the distribution layer
  (:mod:`repro.distribute`) exposes remote devices by name.
"""

from __future__ import annotations

import os
import sys
import threading
from typing import Callable, Iterable, Optional

import numpy as np

from repro.framework.errors import InvalidArgumentError, NotFoundError
from repro.runtime.device import Device, DeviceSpec, local_device_spec

__all__ = [
    "Context",
    "context",
    "device",
    "executing_eagerly",
    "execution_mode",
    "list_devices",
    "set_random_seed",
    "sync",
]


class _ThreadLocalStacks(threading.local):
    def __init__(self) -> None:
        self.device_stack: list[str] = []
        self.graph_stack: list = []  # innermost graph builder last
        # Graph-stack depths at each active init_scope entry: graphs
        # pushed *after* entering the scope are still visible.
        self.init_scope_marks: list[int] = []


def _dispatch_core():
    """The dispatch core, if its module has finished importing.

    Lazy (and bootstrap-safe): :mod:`repro.runtime.dispatch` imports this
    module, so we must not import it back at module level.
    """
    mod = sys.modules.get("repro.runtime.dispatch")
    return getattr(mod, "core", None)


class Context:
    """Process-global runtime state.  Use the :data:`context` singleton."""

    def __init__(self, num_gpus: int = 1, num_tpus: int = 1) -> None:
        self._devices: dict[str, Device] = {}
        self._local = _ThreadLocalStacks()
        self._seed: Optional[int] = None
        self._rngs: dict[str, np.random.Generator] = {}
        self._rng_lock = threading.Lock()
        self._remote_resolver: Optional[Callable[[str], Optional[Device]]] = None
        self._uid_lock = threading.Lock()
        self._uid = 0
        self._soft_device_placement = True
        self._inter_op_threads = self._threads_from_env()
        self._rpc_deadline_ms = self._rpc_deadline_from_env()
        self._executor_mode = self._executor_mode_from_env()
        self._relax_shapes = self._relax_shapes_from_env()
        self._relax_retraces = self._relax_retraces_from_env()
        self._trace_cache_size = self._trace_cache_size_from_env()
        self._graph_fusion = self._graph_fusion_from_env()
        self._autograph = self._autograph_from_env()
        self._recompute = self._recompute_from_env()
        self._serving_max_batch = self._serving_max_batch_from_env()
        self._serving_queue_depth = self._serving_queue_depth_from_env()
        self._serving_timeout_ms = self._serving_timeout_from_env()
        self._kernel_backend = self._kernel_backend_from_env()
        self._array_backend_obj = None  # resolved lazily (import order)
        self._process_devices = self._process_devices_from_env()
        self._initialize_local_devices(num_gpus=num_gpus, num_tpus=num_tpus)

    @staticmethod
    def _threads_from_env() -> int:
        raw = os.environ.get("REPRO_INTER_OP_THREADS", "8")
        try:
            value = int(raw)
        except ValueError:
            raise InvalidArgumentError(
                f"REPRO_INTER_OP_THREADS must be an integer, got {raw!r}"
            ) from None
        if value < 1:
            raise InvalidArgumentError(
                f"REPRO_INTER_OP_THREADS must be >= 1, got {value}"
            )
        return value

    @staticmethod
    def _rpc_deadline_from_env() -> Optional[float]:
        raw = os.environ.get("REPRO_RPC_DEADLINE_MS", "30000")
        try:
            value = float(raw)
        except ValueError:
            raise InvalidArgumentError(
                f"REPRO_RPC_DEADLINE_MS must be a number, got {raw!r}"
            ) from None
        return value if value > 0 else None

    @staticmethod
    def _async_from_env() -> bool:
        raw = os.environ.get("REPRO_ASYNC_EAGER", "0").strip().lower()
        return raw in ("1", "true", "yes", "on")

    @staticmethod
    def _lazy_from_env() -> bool:
        raw = os.environ.get("REPRO_LAZY_EAGER", "0").strip().lower()
        return raw in ("1", "true", "yes", "on")

    @staticmethod
    def _executor_mode_from_env() -> str:
        """Submission policy selected by the environment.

        ``REPRO_LAZY_EAGER`` wins over ``REPRO_ASYNC_EAGER`` — lazy mode
        subsumes async pipelining (the flush itself may enqueue on
        streams) so setting both means "lazy".
        """
        if Context._lazy_from_env():
            return "lazy"
        if Context._async_from_env():
            return "async"
        return "sync"

    @staticmethod
    def _relax_shapes_from_env() -> bool:
        raw = os.environ.get("REPRO_RELAX_SHAPES", "0").strip().lower()
        return raw in ("1", "true", "yes", "on")

    @staticmethod
    def _relax_retraces_from_env() -> int:
        raw = os.environ.get("REPRO_RELAX_RETRACES", "1")
        try:
            value = int(raw)
        except ValueError:
            raise InvalidArgumentError(
                f"REPRO_RELAX_RETRACES must be an integer, got {raw!r}"
            ) from None
        if value < 1:
            raise InvalidArgumentError(
                f"REPRO_RELAX_RETRACES must be >= 1, got {value}"
            )
        return value

    @staticmethod
    def _graph_fusion_from_env() -> bool:
        # Default ON since the fusion pass graduated from the gated
        # tier1-fusion lane; REPRO_GRAPH_FUSION=0 is the opt-out.
        raw = os.environ.get("REPRO_GRAPH_FUSION", "1").strip().lower()
        return raw in ("1", "true", "yes", "on")

    @staticmethod
    def _autograph_from_env() -> bool:
        # Default ON: every `function` lowers tensor-dependent Python
        # control flow at trace time; REPRO_AUTOGRAPH=0 is the opt-out.
        raw = os.environ.get("REPRO_AUTOGRAPH", "1").strip().lower()
        return raw in ("1", "true", "yes", "on")

    @staticmethod
    def _recompute_from_env() -> bool:
        # Default ON: `recompute_grad` honors its wrapping.  Flipping
        # REPRO_RECOMPUTE=0 turns every wrapper into a no-op, the cheap
        # A/B switch for the memory/compute trade.
        raw = os.environ.get("REPRO_RECOMPUTE", "1").strip().lower()
        return raw in ("1", "true", "yes", "on")

    @staticmethod
    def _trace_cache_size_from_env() -> int:
        raw = os.environ.get("REPRO_TRACE_CACHE_SIZE", "256")
        try:
            value = int(raw)
        except ValueError:
            raise InvalidArgumentError(
                f"REPRO_TRACE_CACHE_SIZE must be an integer, got {raw!r}"
            ) from None
        if value < 1:
            raise InvalidArgumentError(
                f"REPRO_TRACE_CACHE_SIZE must be >= 1, got {value}"
            )
        return value

    @staticmethod
    def _serving_max_batch_from_env() -> int:
        raw = os.environ.get("REPRO_SERVING_MAX_BATCH", "32")
        try:
            value = int(raw)
        except ValueError:
            raise InvalidArgumentError(
                f"REPRO_SERVING_MAX_BATCH must be an integer, got {raw!r}"
            ) from None
        if value < 1:
            raise InvalidArgumentError(
                f"REPRO_SERVING_MAX_BATCH must be >= 1, got {value}"
            )
        return value

    @staticmethod
    def _serving_queue_depth_from_env() -> int:
        raw = os.environ.get("REPRO_SERVING_QUEUE_DEPTH", "128")
        try:
            value = int(raw)
        except ValueError:
            raise InvalidArgumentError(
                f"REPRO_SERVING_QUEUE_DEPTH must be an integer, got {raw!r}"
            ) from None
        if value < 1:
            raise InvalidArgumentError(
                f"REPRO_SERVING_QUEUE_DEPTH must be >= 1, got {value}"
            )
        return value

    @staticmethod
    def _serving_timeout_from_env() -> Optional[float]:
        raw = os.environ.get("REPRO_SERVING_TIMEOUT_MS", "1000")
        try:
            value = float(raw)
        except ValueError:
            raise InvalidArgumentError(
                f"REPRO_SERVING_TIMEOUT_MS must be a number, got {raw!r}"
            ) from None
        return value if value > 0 else None

    @staticmethod
    def _kernel_backend_from_env() -> str:
        # Validated lazily (against the backend registry) on first use:
        # the registry package imports after the context exists.
        return os.environ.get("REPRO_KERNEL_BACKEND", "numpy").strip() or "numpy"

    @staticmethod
    def _process_devices_from_env() -> bool:
        raw = os.environ.get("REPRO_PROCESS_DEVICES", "0").strip().lower()
        return raw in ("1", "true", "yes", "on")

    # -- placement / execution knobs --------------------------------------
    @property
    def async_eager(self) -> bool:
        """Whether eager ops enqueue on execution streams (read-only view)."""
        return self._executor_mode == "async"

    @property
    def lazy_eager(self) -> bool:
        """Whether eager ops are recorded into a pending lazy trace."""
        return self._executor_mode == "lazy"

    @property
    def executor_mode(self) -> str:
        """``"sync"``, ``"async"``, or ``"lazy"`` eager execution.

        The three submission policies behind ``execute()`` (paper §4.1,
        §4.4 plus the LazyTensor-style implicit staging mode):

        * ``"sync"`` — dispatch each op's kernel before returning.
        * ``"async"`` — enqueue on the device's
          :class:`~repro.runtime.stream.ExecutionStream` and return a
          pending :class:`~repro.tensor.AsyncTensor` immediately; the
          Python thread only waits when a value is observed.
        * ``"lazy"`` — *record* each op into a pending
          :class:`~repro.runtime.lazy.LazyTrace` and return pending
          :class:`~repro.tensor.LazyTensor` outputs; observing a value
          flushes the recorded segment through the compilation
          pipeline (optimize → fuse → plan → execute) with a
          trace-hash cache, so steady-state loops run compiled
          artifacts.

        Initialised from ``REPRO_LAZY_EAGER`` / ``REPRO_ASYNC_EAGER``
        (default ``"sync"``).  The mode is process-global, like TF's
        ``executor``: switch it between training phases, not per-thread.
        """
        return self._executor_mode

    @executor_mode.setter
    def executor_mode(self, mode: str) -> None:
        if mode not in ("sync", "async", "lazy"):
            raise InvalidArgumentError(
                f'executor_mode must be "sync", "async", or "lazy", got {mode!r}'
            )
        if mode == self._executor_mode:
            return
        if self._executor_mode != "sync":
            # Leaving a deferred mode is itself a synchronization point:
            # flush recorded segments / drain in-flight ops (raising any
            # deferred error) so the new mode starts from a quiescent
            # runtime.
            self.sync()
        self._executor_mode = mode

    def sync(self) -> None:
        """Block until all deferred-submitted ops have finished.

        Flushes any pending lazy traces, then waits for every execution
        stream; re-raises the first undelivered deferred error, with the
        op name attached.  A no-op in sync mode with nothing in flight.
        """
        lazy_mod = sys.modules.get("repro.runtime.lazy")
        if lazy_mod is not None:
            lazy_mod.sync_lazy()
        stream_mod = sys.modules.get("repro.runtime.stream")
        if stream_mod is None:
            return  # nothing was ever executed asynchronously
        stream_mod.sync_all_streams()

    @property
    def relax_shapes(self) -> bool:
        """Process-wide default for trace-cache shape relaxation (§4.6).

        When on, a ``Function`` that keeps retracing on shape-only
        signature changes generalizes the varying dimensions to ``None``
        and traces one symbolic graph instead (see
        :mod:`repro.core.function`).  Initialised from
        ``REPRO_RELAX_SHAPES`` (default off); per-function
        ``experimental_relax_shapes`` overrides it either way.
        """
        return self._relax_shapes

    @relax_shapes.setter
    def relax_shapes(self, value: bool) -> None:
        self._relax_shapes = bool(value)

    @property
    def relax_retraces(self) -> int:
        """How many shape-only retraces trigger relaxation (default 1).

        With the default, the *second* distinct shape of the same
        rank/dtype pattern already traces symbolically.  Initialised
        from ``REPRO_RELAX_RETRACES``.
        """
        return self._relax_retraces

    @relax_retraces.setter
    def relax_retraces(self, value: int) -> None:
        value = int(value)
        if value < 1:
            raise InvalidArgumentError(
                f"relax_retraces must be >= 1, got {value}"
            )
        self._relax_retraces = value

    @property
    def graph_fusion(self) -> bool:
        """Whether the default graph pipeline fuses elementwise regions.

        When on, the optimizer's ``fuse`` pass collapses chains/DAGs of
        elementwise ops into single ``FusedElementwise`` nodes evaluated
        by one precompiled kernel dispatch, and the graph executor's
        static memory plan additionally enables in-place buffer donation
        (an op may write into a dying input buffer).  Initialised from
        ``REPRO_GRAPH_FUSION`` (default **on**; set ``0`` to opt out).
        Applies to traces and
        execution plans built afterwards; already-planned functions keep
        the plan they were built with.
        """
        return self._graph_fusion

    @graph_fusion.setter
    def graph_fusion(self, value: bool) -> None:
        self._graph_fusion = bool(value)

    @property
    def autograph(self) -> bool:
        """Whether ``function`` rewrites Python control flow at trace time.

        When on, the Python function handed to ``repro.function`` is
        passed through :func:`repro.autograph.convert` before tracing:
        tensor-dependent ``if``/``while``/``for``/``break``/``continue``
        /early-``return`` lower onto the staged ``cond``/``while_loop``
        ops, and everything else keeps ordinary Python semantics.
        Initialised from ``REPRO_AUTOGRAPH`` (default **on**; set ``0``
        to opt out).  Per-function ``autograph=`` overrides it either
        way.  Applies to traces started afterwards; already-converted
        functions keep their conversion.
        """
        return self._autograph

    @autograph.setter
    def autograph(self, value: bool) -> None:
        self._autograph = bool(value)

    @property
    def recompute(self) -> bool:
        """Whether ``recompute_grad`` wrappers actually checkpoint.

        When on (the default), a wrapped segment saves only its
        boundary for the backward pass and rematerializes its
        intermediates.  Initialised from ``REPRO_RECOMPUTE`` (default
        **on**; set ``0`` to opt out) — with it off every wrapper is an
        identity, so one env flip A/Bs the memory/compute trade on an
        unmodified model.  Applies to calls made afterwards; a staged
        trace keeps whatever the knob said when it was traced.
        """
        return self._recompute

    @recompute.setter
    def recompute(self, value: bool) -> None:
        self._recompute = bool(value)

    @property
    def trace_cache_size(self) -> int:
        """Bound on the exact level of every trace cache.

        Each ``Function``, the lazy segment cache and the TPU one-op
        program cache is a :class:`~repro.core.trace_cache.TraceCache`,
        LRU-bounded so shape-diverse traffic cannot grow it (and the
        compiled artifacts hanging off each entry) without limit.  Initialised from
        ``REPRO_TRACE_CACHE_SIZE`` (default 256).  Applies to caches
        created afterwards and to existing caches on their next insert.
        """
        return self._trace_cache_size

    @trace_cache_size.setter
    def trace_cache_size(self, value: int) -> None:
        value = int(value)
        if value < 1:
            raise InvalidArgumentError(
                f"trace_cache_size must be >= 1, got {value}"
            )
        self._trace_cache_size = value

    @property
    def soft_device_placement(self) -> bool:
        """Fall back to CPU kernels for ops without an accelerator kernel."""
        return self._soft_device_placement

    @soft_device_placement.setter
    def soft_device_placement(self, value: bool) -> None:
        value = bool(value)
        if value != self._soft_device_placement:
            self._soft_device_placement = value
            core = _dispatch_core()
            if core is not None:
                # Cached kernel resolutions embed the placement policy.
                core.clear_kernel_cache()

    @property
    def kernel_backend(self) -> str:
        """The active array backend for kernel resolution.

        Kernels are registered per ``(op, device type, backend)``
        (:mod:`repro.backend`); the active backend's kernels win and
        anything it doesn't implement falls back to the NumPy kernels.
        Initialised from ``REPRO_KERNEL_BACKEND`` (default ``"numpy"``).
        Applies to ops dispatched afterwards; fused regions and
        execution plans built earlier keep the kernels they bound.
        """
        return self._kernel_backend

    @kernel_backend.setter
    def kernel_backend(self, name: str) -> None:
        from repro.backend import base

        backend = base.get_backend(str(name))  # validates the name
        self._kernel_backend = backend.name
        self._array_backend_obj = backend
        # No cache clear needed: the dispatch core's per-signature cache
        # keys include the backend name.

    def array_backend(self):
        """The active :class:`~repro.backend.ArrayBackend` object."""
        obj = self._array_backend_obj
        if obj is None or obj.name != self._kernel_backend:
            from repro.backend import base

            obj = self._array_backend_obj = base.get_backend(self._kernel_backend)
        return obj

    @property
    def process_devices(self) -> bool:
        """Whether simulated GPU devices run kernels in worker processes.

        When on, each local GPU device's kernel loop runs in a forked
        worker process (:mod:`repro.runtime.worker_pool`): tensors are
        marshalled over shared memory, the Python thread blocks on IPC
        with the GIL released, and the parallel graph scheduler / async
        eager streams overlap real compute on multi-core hosts.
        Initialised from ``REPRO_PROCESS_DEVICES`` (default off).
        Turning it off shuts the workers down.
        """
        return self._process_devices

    @process_devices.setter
    def process_devices(self, value: bool) -> None:
        value = bool(value)
        if value == self._process_devices:
            return
        self._process_devices = value
        mod = sys.modules.get("repro.runtime.worker_pool")
        if mod is None and value:
            from repro.runtime import worker_pool as mod
        if mod is not None:
            mod.apply_process_devices(value)

    @property
    def inter_op_parallelism_threads(self) -> int:
        """Thread-pool size for the parallel graph executor.

        Initialised from ``REPRO_INTER_OP_THREADS`` (default 8).  Takes
        effect for pools created afterwards; call
        :func:`repro.graph.executor.shutdown_thread_pool` to force the
        next parallel run to pick up a new value.
        """
        return self._inter_op_threads

    @inter_op_parallelism_threads.setter
    def inter_op_parallelism_threads(self, value: int) -> None:
        value = int(value)
        if value < 1:
            raise InvalidArgumentError(
                f"inter_op_parallelism_threads must be >= 1, got {value}"
            )
        self._inter_op_threads = value

    @property
    def rpc_deadline_ms(self) -> Optional[float]:
        """Default per-request deadline for remote-worker operations.

        Initialised from ``REPRO_RPC_DEADLINE_MS`` (default 30000).
        ``None`` disables deadlines: remote requests wait forever, the
        pre-fault-tolerance behaviour.  Individual requests can override
        it via the ``deadline_ms`` argument of ``WorkerServer.run_op``.
        """
        return self._rpc_deadline_ms

    @rpc_deadline_ms.setter
    def rpc_deadline_ms(self, value: Optional[float]) -> None:
        if value is not None:
            value = float(value)
            if value <= 0:
                raise InvalidArgumentError(
                    f"rpc_deadline_ms must be positive or None, got {value}"
                )
        self._rpc_deadline_ms = value

    @property
    def serving_max_batch(self) -> int:
        """Largest coalesced batch a serving worker assembles per call.

        Initialised from ``REPRO_SERVING_MAX_BATCH`` (default 32).
        """
        return self._serving_max_batch

    @serving_max_batch.setter
    def serving_max_batch(self, value: int) -> None:
        value = int(value)
        if value < 1:
            raise InvalidArgumentError(
                f"serving_max_batch must be >= 1, got {value}"
            )
        self._serving_max_batch = value

    @property
    def serving_queue_depth(self) -> int:
        """Bound on each served model's pending-request queue.

        Initialised from ``REPRO_SERVING_QUEUE_DEPTH`` (default 128).
        Submissions past the bound are rejected with
        :class:`~repro.framework.errors.ResourceExhaustedError` —
        admission control rather than unbounded memory growth.
        """
        return self._serving_queue_depth

    @serving_queue_depth.setter
    def serving_queue_depth(self, value: int) -> None:
        value = int(value)
        if value < 1:
            raise InvalidArgumentError(
                f"serving_queue_depth must be >= 1, got {value}"
            )
        self._serving_queue_depth = value

    @property
    def serving_timeout_ms(self) -> Optional[float]:
        """Per-request serving deadline, queue wait included.

        Initialised from ``REPRO_SERVING_TIMEOUT_MS`` (default 1000).
        ``None`` (or a non-positive env value) disables deadlines.
        """
        return self._serving_timeout_ms

    @serving_timeout_ms.setter
    def serving_timeout_ms(self, value: Optional[float]) -> None:
        if value is not None:
            value = float(value)
            if value <= 0:
                raise InvalidArgumentError(
                    f"serving_timeout_ms must be positive or None, got {value}"
                )
        self._serving_timeout_ms = value

    # -- devices -----------------------------------------------------------
    def _initialize_local_devices(self, num_gpus: int, num_tpus: int) -> None:
        self.add_device(Device(local_device_spec("CPU", 0)))
        for i in range(num_gpus):
            self.add_device(Device(local_device_spec("GPU", i)))
        for i in range(num_tpus):
            self.add_device(Device(local_device_spec("TPU", i)))

    def add_device(self, dev: Device) -> None:
        self._devices[dev.name] = dev
        if dev.requires_compilation and dev.op_runner is None:
            core = _dispatch_core()
            if core is not None and core.compilation_runner is not None:
                dev.set_op_runner(core.compilation_runner)
        if self._process_devices:
            mod = sys.modules.get("repro.runtime.worker_pool")
            if mod is not None:
                mod.maybe_install_runner(dev)

    def list_devices(self) -> list[str]:
        """Names of all devices the runtime is aware of (paper §4.4)."""
        return sorted(self._devices)

    def devices(self) -> list[Device]:
        """All Device objects the runtime is aware of."""
        return list(self._devices.values())

    def set_remote_device_resolver(
        self, resolver: Optional[Callable[[str], Optional[Device]]]
    ) -> None:
        """Installed by the distribution layer to resolve remote names."""
        self._remote_resolver = resolver

    def get_device(self, name: str) -> Device:
        """Resolve a (possibly partial) device name to a Device."""
        spec = DeviceSpec.from_string(name) if isinstance(name, str) else name
        merged = spec.make_merged_spec(self.default_device_spec())
        full = merged.to_string()
        if full in self._devices:
            return self._devices[full]
        if self._remote_resolver is not None:
            dev = self._remote_resolver(full)
            if dev is not None:
                return dev
        raise NotFoundError(f"Unknown device: {name!r} (resolved to {full!r})")

    def default_device_spec(self) -> DeviceSpec:
        return local_device_spec("CPU", 0)

    def cpu_device(self) -> Device:
        cached = self.__dict__.get("_cpu_device")
        if cached is None:
            cached = self._devices[local_device_spec("CPU", 0).to_string()]
            self.__dict__["_cpu_device"] = cached
        return cached

    # -- device stack ----------------------------------------------------
    def current_device_name(self) -> Optional[str]:
        """Innermost explicitly-requested device name, if any."""
        stack = self._local.device_stack
        return stack[-1] if stack else None

    def push_device(self, name: Optional[str]) -> None:
        self._local.device_stack.append(name)  # type: ignore[arg-type]

    def pop_device(self) -> None:
        self._local.device_stack.pop()

    # -- graph-building stack ---------------------------------------------
    def current_graph(self):
        """Innermost graph builder, or None when executing eagerly.

        An active ``init_scope`` (paper §4.7) pauses the traces that
        were active when it was entered; graph-building contexts opened
        *inside* the scope still apply.
        """
        stack = self._local.graph_stack
        if not stack:
            return None
        marks = self._local.init_scope_marks
        if marks and len(stack) <= marks[-1]:
            return None
        return stack[-1]

    def graph_stack(self) -> list:
        return self._local.graph_stack

    def push_graph(self, graph) -> None:
        self._local.graph_stack.append(graph)

    def pop_graph(self) -> None:
        self._local.graph_stack.pop()

    def executing_eagerly(self) -> bool:
        return self.current_graph() is None

    def enter_init_scope(self) -> None:
        self._local.init_scope_marks.append(len(self._local.graph_stack))

    def exit_init_scope(self) -> None:
        self._local.init_scope_marks.pop()

    @property
    def in_init_scope(self) -> bool:
        return bool(self._local.init_scope_marks)

    # -- randomness -------------------------------------------------------
    def set_random_seed(self, seed: Optional[int]) -> None:
        """Set the global seed; resets every device's generator."""
        self._seed = seed
        with self._rng_lock:
            self._rngs.clear()

    def rng_for_device(self, device_name: str) -> np.random.Generator:
        with self._rng_lock:
            if device_name not in self._rngs:
                if self._seed is None:
                    self._rngs[device_name] = np.random.default_rng()
                else:
                    # Derive a distinct, deterministic stream per device.
                    self._rngs[device_name] = np.random.default_rng(
                        np.random.SeedSequence(
                            entropy=self._seed,
                            spawn_key=(hash(device_name) & 0xFFFFFFFF,),
                        )
                    )
            return self._rngs[device_name]

    # -- misc ---------------------------------------------------------------
    def unique_id(self) -> int:
        with self._uid_lock:
            self._uid += 1
            return self._uid


context = Context()


class device:
    """Context manager pinning operations to a device (Listing 5).

    Accepts shorthand (``"/gpu:0"``) or full names, including remote
    names like ``"/job:training/task:2/device:GPU:0"`` (§4.5).  ``None``
    pushes an "unspecified" frame that re-enables automatic placement
    inside an outer pinned block.
    """

    def __init__(self, name: Optional[str]) -> None:
        if name is not None:
            # Validate eagerly so typos fail at the `with` statement.
            DeviceSpec.from_string(name)
        self._name = name

    def __enter__(self) -> "device":
        context.push_device(self._name)
        graph = context.current_graph()
        if graph is not None and hasattr(graph, "push_device"):
            graph.push_device(self._name)
        return self

    def __exit__(self, *exc_info) -> None:
        graph = context.current_graph()
        if graph is not None and hasattr(graph, "pop_device"):
            graph.pop_device()
        context.pop_device()


def executing_eagerly() -> bool:
    """True when ops run immediately rather than being staged."""
    return context.executing_eagerly()


def list_devices() -> list[str]:
    """List the names of all devices known to the runtime (§4.4)."""
    return context.list_devices()


def set_random_seed(seed: Optional[int]) -> None:
    """Set the global random seed for all stateful random operations."""
    context.set_random_seed(seed)


def sync() -> None:
    """Wait for all asynchronously dispatched operations to finish.

    The explicit synchronization point of async eager mode: blocks
    until every per-device execution stream (and every in-flight remote
    op) has completed, re-raising the first deferred kernel error.
    """
    context.sync()


class execution_mode:
    """Context manager running a block under one of the eager policies.

    ::

        with execution_mode("async"):
            y = model(x)          # ops overlap with Python dispatch
        with execution_mode("lazy"):
            y = model(x)          # ops are recorded; flushed when observed
        # exiting restores the previous mode (flushing/draining if
        # leaving a deferred mode)

    The underlying knob is process-global (see
    :attr:`Context.executor_mode`); use this from the coordinating
    thread only.
    """

    def __init__(self, mode: str) -> None:
        if mode not in ("sync", "async", "lazy"):
            raise InvalidArgumentError(
                f'execution_mode must be "sync", "async", or "lazy", got {mode!r}'
            )
        self._mode = mode
        self._previous: Optional[str] = None

    def __enter__(self) -> "execution_mode":
        self._previous = context.executor_mode
        context.executor_mode = self._mode
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            context.executor_mode = self._previous
            if self._mode != "sync" and self._previous == self._mode:
                # Restoring an identical deferred mode makes the setter
                # a no-op, but leaving the block is still a
                # synchronization point: flush/drain here too.
                context.sync()
        except BaseException:
            if exc_type is None:
                raise
            # An error is already propagating out of the block; the
            # drain-on-exit deferred error must not mask it.
