"""The unified dispatch core: shared placement, kernel cache, interceptors."""

import sys

import numpy as np
import pytest

import repro
from repro.framework.errors import AlreadyExistsError, NotFoundError
from repro.graph.executor import GraphRunner, shutdown_thread_pool
from repro.graph.function import placeholder
from repro.graph.graph import Graph
from repro.ops import registry
from repro.runtime import dispatch
from repro.runtime.context import context


class _Tracing(dispatch.OpInterceptor):
    """Records every hook invocation into a shared event list."""

    def __init__(self, name, events, modes=(dispatch.EAGER, dispatch.GRAPH)):
        self.name = name
        self.modes = modes
        self.events = events

    def on_start(self, op_name, attrs, inputs, device):
        self.events.append((self.name, "start", op_name))
        return f"{self.name}-token"

    def on_complete(self, op_name, attrs, inputs, outputs, device, token):
        assert token == f"{self.name}-token"
        self.events.append((self.name, "complete", op_name))

    def on_error(self, op_name, attrs, inputs, device, token, exc):
        self.events.append((self.name, "error", op_name))


@pytest.fixture
def registered(request):
    """Register interceptors for the test body, always unregistering."""

    def _register(*interceptors):
        for it in interceptors:
            dispatch.core.register_interceptor(it)
            request.addfinalizer(
                lambda it=it: dispatch.core.unregister_interceptor(it)
            )

    return _register


@pytest.fixture
def eager_dispatch_mode():
    """Pin a mode whose ops reach the eager dispatch core.

    The kernel cache and the eager interceptor stack belong to the
    sync/async submission paths; lazy mode routes pure ops through the
    graph executor instead, so tests of those internals run in sync
    mode when the suite-wide default is lazy.
    """
    mode = "sync" if context.lazy_eager else context.executor_mode
    with repro.execution_mode(mode):
        yield


class TestSharedDeviceResolution:
    def test_eager_and_graph_place_mixed_device_op_identically(self):
        """The collapsed resolver: first non-CPU input wins in both modes."""
        cpu_t = repro.constant([1.0, 2.0])
        gpu_t = repro.constant([3.0, 4.0]).gpu()

        eager_out = repro.add(cpu_t, gpu_t)

        g = Graph("mixed")
        a = placeholder(g, repro.float32, [2], name="a")
        b = placeholder(g, repro.float32, [2], name="b")
        with g.as_default():
            c = a + b
        (graph_out,) = GraphRunner(g, [c]).run([(a, cpu_t), (b, gpu_t)])

        assert eager_out.device == graph_out.device
        assert "GPU" in eager_out.device
        np.testing.assert_allclose(eager_out.numpy(), graph_out.numpy())

    def test_eager_and_graph_honor_explicit_placement_identically(self):
        x = repro.constant([1.0, 2.0])

        with repro.device("/gpu:0"):
            eager_out = repro.multiply(x, x)

        g = Graph("pinned")
        a = placeholder(g, repro.float32, [2], name="a")
        with g.as_default(), repro.device("/gpu:0"):
            c = a * a
        (graph_out,) = GraphRunner(g, [c]).run([(a, x)])

        assert eager_out.device == graph_out.device
        assert "GPU" in graph_out.device

    def test_all_cpu_inputs_stay_on_cpu_in_both_modes(self):
        x = repro.constant([1.0])
        eager_out = repro.add(x, x)
        g = Graph("cpu")
        a = placeholder(g, repro.float32, [1], name="a")
        with g.as_default():
            c = a + a
        (graph_out,) = GraphRunner(g, [c]).run([(a, x)])
        assert eager_out.device == graph_out.device
        assert "CPU" in eager_out.device


@pytest.mark.usefixtures("eager_dispatch_mode")
class TestKernelCache:
    def test_dispatch_populates_cache(self):
        dispatch.core.clear_kernel_cache()
        x = repro.constant(1.0)
        repro.add(x, x)
        repro.sync()  # async mode resolves the kernel on the stream worker
        key = ("Add", "CPU", (repro.float32, repro.float32), "numpy")
        assert key in dispatch.core._kernel_cache
        assert dispatch.core._kernel_cache[key] is registry.get_kernel("Add", "CPU")

    def test_kernel_registration_invalidates_cache(self):
        x = repro.constant(1.0)
        repro.add(x, x)
        assert dispatch.core.kernel_cache_size() > 0
        registry.register_op("TestDispatchCacheOp", infer_fn=lambda specs, attrs: specs)
        registry.register_kernel("TestDispatchCacheOp", ("CPU",))(
            lambda arrays, attrs, device: arrays[0]
        )
        assert dispatch.core.kernel_cache_size() == 0

    def test_soft_placement_toggle_invalidates_cache(self):
        x = repro.constant(1.0)
        repro.add(x, x)
        assert dispatch.core.kernel_cache_size() > 0
        try:
            context.soft_device_placement = False
            assert dispatch.core.kernel_cache_size() == 0
        finally:
            context.soft_device_placement = True

    def test_registry_resolve_kernel_soft_placement(self):
        # GPU has the shared NumPy kernel; TPU has none and soft-places.
        assert registry.resolve_kernel("Add", "TPU") is registry.get_kernel(
            "Add", "CPU"
        )
        with pytest.raises(NotFoundError):
            registry.resolve_kernel("Add", "TPU", allow_soft_placement=False)


class TestInterceptors:
    def test_inactive_stack_is_empty(self):
        """No tape, no profiler: ops take the token-free path, with
        nothing to complete."""
        assert dispatch.core.eager_interceptors == ()
        assert dispatch.core.graph_interceptors == ()
        assert dispatch.core.stage_interceptors == ()
        assert dispatch.core._eager_stack == ((), ())

    def test_ordering_start_in_order_complete_in_reverse(self, registered):
        events = []
        registered(_Tracing("a", events), _Tracing("b", events))
        x = repro.constant(1.0)
        y = repro.add(x, x)
        repro.sync()  # async: hooks run on the worker; lazy: at the flush
        del y
        assert events == [
            ("a", "start", "Add"),
            ("b", "start", "Add"),
            ("b", "complete", "Add"),
            ("a", "complete", "Add"),
        ]

    def test_graph_mode_interceptor_sees_nodes(self, registered):
        events = []
        registered(_Tracing("g", events, modes=(dispatch.GRAPH,)))

        @repro.function
        def f(v):
            return repro.exp(v) * v

        x = repro.constant([1.0, 2.0])
        f(x)  # trace (staging is not graph-mode execution)
        events.clear()
        f(x)
        ops = {op for (_, kind, op) in events if kind == "complete"}
        from repro.runtime.context import context

        if context.graph_fusion:
            # The fuse pass collapsed the Exp*Mul chain: interceptors
            # observe one dispatch for the whole region.
            assert "FusedElementwise" in ops
        else:
            assert "Exp" in ops and "Mul" in ops

    def test_profiler_and_records_active_simultaneously_eager(self):
        v = repro.Variable([2.0, 3.0])
        with repro.profiler.Profile() as prof:
            with repro.GradientTape() as tape:
                y = repro.reduce_sum(v * v)
            grad = tape.gradient(y, v)
        # Both interceptors observed the same dispatches.
        assert prof.ops["Mul"].count >= 1
        assert prof.ops["Sum"].count >= 1
        np.testing.assert_allclose(grad.numpy(), [4.0, 6.0])

    def test_profiler_and_records_active_simultaneously_staged(self):
        v = repro.Variable([2.0, 3.0])

        @repro.function
        def loss():
            return repro.reduce_sum(v * v)

        loss()  # trace outside the profiled region
        with repro.profiler.Profile() as prof:
            with repro.GradientTape() as tape:
                y = loss()
            grad = tape.gradient(y, v)
        assert "Mul" in prof.ops  # inner graph nodes are visible
        np.testing.assert_allclose(grad.numpy(), [4.0, 6.0])

    def test_interceptor_names_reflect_activity(self):
        assert dispatch.core.interceptor_names() == []
        with repro.profiler.Profile():
            assert "profiler" in dispatch.core.interceptor_names("graph")
            with repro.GradientTape():
                assert dispatch.core.interceptor_names("eager") == [
                    "profiler",
                    "records",
                ]
                assert dispatch.core.interceptor_names("stage") == ["records"]
            assert "records" not in dispatch.core.interceptor_names()
        assert dispatch.core.interceptor_names() == []

    def test_duplicate_registration_rejected(self, registered):
        it = _Tracing("dup", [])
        registered(it)
        with pytest.raises(AlreadyExistsError):
            dispatch.core.register_interceptor(it)

    def test_unregister_unknown_rejected(self):
        with pytest.raises(NotFoundError):
            dispatch.core.unregister_interceptor(_Tracing("ghost", []))


class _RaisingInterceptor(dispatch.OpInterceptor):
    name = "boom"
    modes = (dispatch.EAGER, dispatch.GRAPH)

    def on_start(self, op_name, attrs, inputs, device):
        raise RuntimeError("interceptor exploded")


class TestInterceptorErrorPaths:
    @pytest.mark.usefixtures("eager_dispatch_mode")
    def test_raising_interceptor_does_not_corrupt_kernel_cache(self, registered):
        dispatch.core.clear_kernel_cache()
        x = repro.constant(1.0)
        repro.add(x, x)  # warm the cache
        repro.sync()  # async mode: the worker populates the cache
        size_before = dispatch.core.kernel_cache_size()

        boom = _RaisingInterceptor()
        dispatch.core.register_interceptor(boom)
        try:
            with pytest.raises(RuntimeError, match="interceptor exploded"):
                repro.add(x, x)
                repro.sync()  # async mode defers the error to the sync point
        finally:
            dispatch.core.unregister_interceptor(boom)

        assert dispatch.core.kernel_cache_size() == size_before
        assert float(repro.add(x, x)) == 2.0  # dispatch fully recovers

    def test_kernel_error_reaches_on_error_hook(self, registered):
        events = []
        registered(_Tracing("w", events))
        a = repro.constant([[1.0, 2.0]])
        with pytest.raises(ValueError):
            repro.matmul(a, a)  # incompatible shapes
        assert ("w", "error", "MatMul") in events
        assert ("w", "complete", "MatMul") not in events

    def test_profiler_survives_failing_op(self):
        x = repro.constant([[1.0, 2.0]])
        with repro.profiler.Profile() as prof:
            with pytest.raises(ValueError):
                repro.matmul(x, x)
            y = repro.add(repro.constant(1.0), repro.constant(1.0))
            repro.sync()  # async/lazy modes: run the kernel in-profile
        del y
        assert prof.ops["Add"].count == 1
        assert dispatch.core.interceptor_names() == []


class _Completions(dispatch.OpInterceptor):
    """Overrides only on_complete: runs on the token-free path."""

    name = "completions"

    def __init__(self):
        self.seen = []

    def on_complete(self, op_name, attrs, inputs, outputs, device, token):
        assert token is None
        self.seen.append(op_name)


@pytest.mark.usefixtures("sync_mode")
class TestThinEagerPath:
    """Conformance of the one-pass, token-free sync eager path."""

    @pytest.fixture
    def sync_mode(self):
        with repro.execution_mode("sync"):
            yield

    def test_interceptor_registered_between_ops_sees_second_op(self, registered):
        x = repro.constant(1.0)
        repro.add(x, x)
        seen = _Completions()
        registered(seen)
        assert dispatch.core._eager_stack[1] == (seen,)  # token-free
        repro.multiply(x, x)
        assert seen.seen == ["Mul"]

    def test_on_start_override_gets_token_and_on_error(self, registered):
        events = []
        registered(_Tracing("t", events))
        assert dispatch.core._eager_stack[1] is None  # token path
        a = repro.constant([[1.0, 2.0]])
        with repro.GradientTape() as tape:  # records rides the token path
            tape.watch(a)
            repro.add(a, a)
            with pytest.raises(ValueError):
                repro.matmul(a, a)  # incompatible shapes
        assert events == [
            ("t", "start", "Add"),
            ("t", "complete", "Add"),
            ("t", "start", "MatMul"),
            ("t", "error", "MatMul"),
        ]

    def test_on_error_only_override_takes_token_path(self, registered):
        class ErrorsOnly(dispatch.OpInterceptor):
            name = "errors-only"

            def __init__(self):
                self.errors = []

            def on_error(self, op_name, attrs, inputs, device, token, exc):
                self.errors.append((op_name, type(exc)))

        it = ErrorsOnly()
        registered(it)
        assert dispatch.core._eager_stack[1] is None
        a = repro.constant([[1.0, 2.0]])
        with pytest.raises(ValueError):
            repro.matmul(a, a)
        assert it.errors == [("MatMul", ValueError)]

    def test_raising_kernel_still_counts_its_launch(self):
        cpu = context.cpu_device()
        a = repro.constant([[1.0, 2.0]])
        before = cpu.memory_stats()
        with pytest.raises(ValueError):
            repro.matmul(a, a)
        after = cpu.memory_stats()
        assert after["kernel_launches"] - before["kernel_launches"] == 1
        assert after["num_allocations"] == before["num_allocations"]

    @pytest.fixture
    def in_process_gpu(self):
        """GPU kernels in this process (process devices keep their own stats)."""
        enabled = context.process_devices
        context.process_devices = False
        yield
        context.process_devices = enabled

    @pytest.mark.usefixtures("in_process_gpu")
    def test_memory_stats_for_fixed_op_sequence(self):
        from repro.framework import dtypes
        from repro.runtime.executor import execute

        cpu = context.get_device("/cpu:0")
        gpu = context.get_device("/gpu:0")
        a = repro.constant(np.float32(1.5))
        m = repro.constant(np.arange(6, dtype=np.float32).reshape(3, 2))
        var = repro.Variable([1.0, 2.0])
        for d in (cpu, gpu):
            d.reset_stats()
        keep = [repro.add(a, a)]  # 0-d NumPy scalar kernel result
        assert keep[0].shape.as_list() == [] and keep[0].dtype is repro.float32
        keep += list(repro.unstack(m))  # multi-output kernel result
        keep.append(  # resource-producing op: the kernel returns a Tensor
            execute("HandleConst", [], {"handle": var.handle, "dtype": dtypes.resource})
        )
        with repro.device("/gpu:0"):
            keep.append(repro.multiply(m, m))  # two cross-device input copies
            keep.append(var.read_value())  # the handle passes by reference
        # Values of the dispatch path before it was thinned, unchanged.
        assert cpu.memory_stats() == {
            "bytes_in_use": 28,
            "peak_bytes": 28,
            "num_allocations": 4,
            "kernel_launches": 3,
        }
        assert gpu.memory_stats() == {
            "bytes_in_use": 80,
            "peak_bytes": 80,
            "num_allocations": 4,
            "kernel_launches": 2,
        }

    def test_launch_and_allocation_stats_exact_under_threads(self):
        # wrap_output updates four counters under one lock: a lost
        # update between threads would break these totals.
        import threading

        cpu = context.cpu_device()
        x = repro.constant(np.float32(1.0))
        n_threads, n_ops = 8, 200
        before = cpu.memory_stats()

        def worker():
            for _ in range(n_ops):
                repro.add(x, x)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        after = cpu.memory_stats()
        total = n_threads * n_ops
        assert after["kernel_launches"] - before["kernel_launches"] == total
        assert after["num_allocations"] - before["num_allocations"] == total
        assert after["bytes_in_use"] - before["bytes_in_use"] == 4 * total

    def test_symbolic_input_rejected_with_unchanged_message(self):
        from repro.framework.errors import FailedPreconditionError

        g = Graph("leak")
        sym = placeholder(g, repro.float32, [], name="s")
        x = repro.constant(1.0)
        for submit in (dispatch.core.dispatch, dispatch.core.dispatch_async):
            with pytest.raises(FailedPreconditionError) as info:
                submit("Add", [x, sym], {})
            assert str(info.value) == (
                f"Operation 'Add' received the symbolic tensor {sym!r} "
                "outside of its graph-building context. Symbolic tensors "
                "are only usable inside the function being traced."
            )

    def test_non_tensor_input_rejected_with_unchanged_message(self):
        from repro.framework.errors import InternalError

        x = repro.constant(1.0)
        for submit in (dispatch.core.dispatch, dispatch.core.dispatch_async):
            with pytest.raises(InternalError) as info:
                submit("Add", [x, 2.0], {})
            assert str(info.value) == (
                "Operation 'Add' received non-tensor input 2.0; "
                "API functions must convert inputs before calling execute()"
            )

    def test_kernel_backend_flip_re_resolves_kernel(self):
        from repro.backend.tracked import TRACKED_BACKEND

        x = repro.constant(np.ones(3, dtype=np.float32))
        assert repro.add(x, x).backend == "numpy"
        try:
            context.kernel_backend = "tracked"
            TRACKED_BACKEND.reset_stats()
            out = repro.add(x, x)
            assert out.backend == "tracked"
            assert TRACKED_BACKEND.primitive_calls["Add"] == 1
        finally:
            context.kernel_backend = "numpy"
        assert repro.add(x, x).backend == "numpy"
        assert TRACKED_BACKEND.primitive_calls["Add"] == 1


def _profile_events(fn) -> int:
    """``call`` plus ``c_call`` profiler events of one ``fn()``."""
    count = 0

    def profiler(frame, event, arg):
        nonlocal count
        if event in ("call", "c_call"):
            count += 1

    sys.setprofile(profiler)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return count - 1  # the sys.setprofile(None) call itself


@pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
    reason="Python-call budgets are pinned for CPython 3.11, the CI version",
)
class TestCallBudget:
    """A deterministic guard on the thin eager path: Python-level calls
    for one warm sync scalar ``Add`` (58 and 79 before thinning)."""

    def _add_events(self, x) -> int:
        add = repro.add
        add(x, x)  # warm the kernel cache
        return _profile_events(lambda: add(x, x)) - 1  # minus the lambda

    def test_untaped_scalar_add(self):
        x = repro.constant(np.float32(1.0))
        with repro.execution_mode("sync"):
            assert self._add_events(x) <= 35

    def test_taped_scalar_add(self):
        x = repro.constant(np.float32(1.0))
        with repro.execution_mode("sync"), repro.GradientTape() as tape:
            tape.watch(x)
            assert self._add_events(x) <= 50


class TestDeviceDispatchProtocol:
    def test_cpu_device_has_no_special_dispatch(self):
        cpu = context.cpu_device()
        assert cpu.op_runner is None
        assert not cpu._special_dispatch
        assert cpu.dispatch("Add", [], {}) is None

    def test_tpu_without_compiler_raises_through_protocol(self):
        tpu = context.get_device("/tpu:0")
        saved = tpu.op_runner
        tpu.set_op_runner(None)
        try:
            assert tpu._special_dispatch  # compilation-only: always special
            with pytest.raises(repro.ReproError, match="no compiler"):
                with repro.device("/tpu:0"):
                    repro.add(repro.constant(1.0), repro.constant(1.0))
        finally:
            tpu.set_op_runner(saved)

    def test_xla_install_sets_device_level_runner(self):
        import repro.xla  # noqa: F401  (installs on import)
        from repro.xla import tpu as tpu_bridge

        tpu = context.get_device("/tpu:0")
        tpu_bridge.install()
        try:
            assert tpu.op_runner is tpu_bridge.run_op_on_tpu
            assert dispatch.core.compilation_runner is tpu_bridge.run_op_on_tpu
            tpu_bridge.uninstall()
            assert tpu.op_runner is None
            assert dispatch.core.compilation_runner is None
        finally:
            tpu_bridge.install()

    def test_set_compiled_op_runner_shim(self):
        from repro.runtime import executor
        from repro.xla import tpu as tpu_bridge

        tpu = context.get_device("/tpu:0")
        try:
            executor.set_compiled_op_runner(tpu_bridge.run_op_on_tpu)
            assert tpu.op_runner is tpu_bridge.run_op_on_tpu
        finally:
            tpu_bridge.install()

    def test_late_added_compilation_device_inherits_runner(self):
        from repro.runtime.device import Device, local_device_spec
        from repro.xla import tpu as tpu_bridge

        tpu_bridge.install()
        dev = Device(local_device_spec("TPU", 7))
        assert dev.op_runner is None
        context.add_device(dev)
        try:
            assert dev.op_runner is tpu_bridge.run_op_on_tpu
        finally:
            del context._devices[dev.name]


class TestThreadPoolConfiguration:
    def test_pool_size_follows_context(self):
        from repro.graph import executor as graph_executor

        saved = context.inter_op_parallelism_threads
        shutdown_thread_pool()
        context.inter_op_parallelism_threads = 2
        try:
            g = Graph("par")
            a = placeholder(g, repro.float32, [2], name="a")
            with g.as_default():
                c = a + a
            (out,) = GraphRunner(g, [c]).run(
                [(a, repro.constant([1.0, 2.0]))], parallel=True
            )
            np.testing.assert_allclose(out.numpy(), [2.0, 4.0])
            assert graph_executor._POOL._max_workers == 2
        finally:
            context.inter_op_parallelism_threads = saved
            shutdown_thread_pool()

    def test_invalid_pool_size_rejected(self):
        with pytest.raises(repro.ReproError):
            context.inter_op_parallelism_threads = 0

    def test_env_var_parsing(self, monkeypatch):
        from repro.runtime.context import Context

        monkeypatch.setenv("REPRO_INTER_OP_THREADS", "3")
        assert Context._threads_from_env() == 3
        monkeypatch.setenv("REPRO_INTER_OP_THREADS", "zero")
        with pytest.raises(repro.ReproError):
            Context._threads_from_env()

    def test_shutdown_is_idempotent(self):
        shutdown_thread_pool()
        shutdown_thread_pool()
