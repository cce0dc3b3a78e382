"""XLA-sim: lowering, fusion, compiled execution, and the TPU bridge."""

import gc
import weakref

import numpy as np
import pytest

import repro
import repro.xla  # installs the TPU hook
from repro.framework.errors import UnimplementedError
from repro.runtime.context import context
from repro.xla import compiler, fusion, hlo, tpu


def _concrete(fn, *args):
    return repro.function(fn).get_concrete_function(*args).graph_function


class TestLowering:
    def test_parameters_and_roots(self):
        gf = _concrete(lambda x: repro.reduce_sum(x * x), repro.constant([1.0, 2.0]))
        comp = hlo.lower(gf)
        params = [i for i in comp.instructions if i.opcode == "Parameter"]
        assert len(params) == len(gf.inputs)
        assert len(comp.roots) == 1

    def test_cost_estimates_positive(self):
        gf = _concrete(
            lambda x: repro.matmul(x, x),
            repro.constant(np.eye(8, dtype=np.float32)),
        )
        comp = hlo.lower(gf)
        matmuls = [i for i in comp.instructions if i.opcode == "MatMul"]
        assert matmuls and matmuls[0].flops == pytest.approx(2 * 8 * 8 * 8)
        assert comp.total_bytes > 0

    def test_py_func_uncompilable(self):
        gf = _concrete(
            lambda x: repro.py_func(lambda v: v.numpy(), [x], Tout=repro.float32),
            repro.constant(1.0),
        )
        with pytest.raises(UnimplementedError):
            hlo.lower(gf)


class TestFusion:
    def test_elementwise_chain_fuses(self):
        gf = _concrete(
            lambda x: repro.tanh(repro.exp(x * 2.0) + 1.0),
            repro.constant([1.0, 2.0]),
        )
        comp = hlo.lower(gf)
        fused = fusion.fuse_elementwise(comp)
        fusions = [i for i in fused.instructions if i.opcode == "Fusion"]
        assert len(fusions) == 1
        assert len(fusions[0].fused) >= 3
        # Fewer launches after fusion.
        assert len(fused.instructions) < len(comp.instructions)

    def test_matmul_breaks_fusion(self):
        gf = _concrete(
            lambda x: repro.matmul(x * 2.0, x) + 1.0,
            repro.constant(np.eye(3, dtype=np.float32)),
        )
        fused = fusion.fuse_elementwise(hlo.lower(gf))
        opcodes = [i.opcode for i in fused.instructions]
        assert "MatMul" in opcodes

    def test_fanout_not_fused(self):
        def f(x):
            y = repro.exp(x)  # two consumers
            return y * 2.0 + y

        gf = _concrete(f, repro.constant([1.0]))
        fused = fusion.fuse_elementwise(hlo.lower(gf))
        # Exp must remain standalone (its value feeds two ops).
        assert any(i.opcode == "Exp" for i in fused.instructions)

    def test_fusion_preserves_values(self):
        def f(x):
            return repro.tanh(repro.exp(x * 2.0) + repro.sigmoid(x))

        gf = _concrete(f, repro.constant([0.3, -1.2]))
        reference = gf.run([repro.constant([0.3, -1.2])])[0].numpy()
        exe = compiler.compile_function(gf, fuse=True)
        out = exe.execute([np.float32([0.3, -1.2])], context.get_device("/tpu:0"))
        np.testing.assert_allclose(out[0], reference, rtol=1e-6)

    def test_fusion_reduces_modelled_bytes(self):
        gf = _concrete(
            lambda x: repro.tanh(repro.exp(x * 2.0) + 1.0),
            repro.constant(np.zeros(1024, np.float32)),
        )
        comp = hlo.lower(gf)
        fused = fusion.fuse_elementwise(comp)
        assert fused.total_bytes < comp.total_bytes
        assert fused.total_flops == comp.total_flops


class TestCompiledExecution:
    def test_values_match_cpu(self):
        gf = _concrete(
            lambda x: repro.reduce_sum(repro.matmul(x, x) * 0.5),
            repro.constant(np.eye(4, dtype=np.float32)),
        )
        exe = compiler.compile_function(gf)
        arg = np.random.randn(4, 4).astype(np.float32)
        cpu_out = gf.run([repro.constant(arg)])[0].numpy()
        tpu_out = exe.execute([arg], context.get_device("/tpu:0"))[0]
        np.testing.assert_allclose(tpu_out, cpu_out, rtol=1e-5)

    def test_one_launch_overhead_per_execution(self):
        gf = _concrete(lambda x: repro.tanh(x) + repro.exp(x), repro.constant([1.0]))
        exe = compiler.compile_function(gf)
        dev = context.get_device("/tpu:0")
        dev.reset_stats()
        exe.execute([np.float32([1.0])], dev)
        once = dev.simulated_time_us
        exe.execute([np.float32([1.0])], dev)
        assert dev.simulated_time_us == pytest.approx(2 * once)
        assert once >= dev.cost_model.launch_overhead_us


class TestTPUBridge:
    def test_per_op_execution_charges_launch_each_time(self):
        dev = context.get_device("/tpu:0")
        dev.reset_stats()
        with repro.device("/tpu:0"):
            a = repro.constant([1.0, 2.0])
            b = a * 2.0 + 1.0
        np.testing.assert_allclose(b.numpy(), [3.0, 5.0])
        # constant copy is free; Mul and Add each pay >= one launch.
        assert dev.simulated_time_us >= 2 * dev.cost_model.launch_overhead_us

    def test_staged_call_is_one_launch(self):
        @repro.function
        def f(x):
            return repro.reduce_sum(repro.tanh(x) * x + 1.0)

        dev = context.get_device("/tpu:0")
        x = repro.constant(np.random.randn(16).astype(np.float32))
        with repro.device("/tpu:0"):
            f(x)  # compile + first launch
            dev.reset_stats()
            out_tpu = f(x)
        per_step = dev.simulated_time_us
        assert per_step < 2 * dev.cost_model.launch_overhead_us
        np.testing.assert_allclose(float(out_tpu), float(f(x)), rtol=1e-5)

    def test_single_op_programs_are_cached(self):
        tpu.reset_caches()
        with repro.device("/tpu:0"):
            x = repro.constant([1.0])
            for _ in range(5):
                x = x * 1.5
        stats = tpu.compile_cache_stats()
        assert stats["op_compiles"] == 1  # same signature compiles once
        assert stats["launches"] >= 5

    def test_variables_work_on_tpu(self):
        with repro.device("/tpu:0"):
            v = repro.Variable([1.0, 2.0])
            v.assign_add([1.0, 1.0])
        np.testing.assert_allclose(v.numpy(), [2.0, 3.0])

    def test_gradients_through_tpu_function(self):
        v = repro.Variable(2.0)

        @repro.function
        def f(x):
            return x * v * v

        x = repro.constant(3.0)
        with repro.device("/tpu:0"):
            with repro.GradientTape() as tape:
                y = f(x)
            g = tape.gradient(y, v)
        assert float(g) == pytest.approx(12.0)


class TestTPUProgramCaches:
    """Callee programs live on their graph function; one-op programs sit
    in an LRU-bounded trace cache."""

    def test_callee_program_dies_with_its_function(self, monkeypatch):
        compiled = []
        original = tpu.compile_function

        def spy(fn, *args, **kwargs):
            exe = original(fn, *args, **kwargs)
            if not fn.name.startswith("tpu_"):  # skip one-op programs
                compiled.append(weakref.ref(exe))
            return exe

        monkeypatch.setattr(tpu, "compile_function", spy)
        f = repro.function(lambda x: x * 3.0)
        x = repro.constant([1.0, 2.0])
        with repro.device("/tpu:0"):
            out = f(x)
        np.testing.assert_allclose(out.numpy(), [3.0, 6.0])
        assert len(compiled) == 1 and compiled[0]() is not None
        del f, out
        gc.collect()
        assert compiled[0]() is None

    def test_fresh_functions_never_run_a_stale_program(self):
        x = repro.constant(1.0)
        for i in range(300):
            scale = float(i)
            f = repro.function(lambda t: t * scale)
            with repro.device("/tpu:0"):
                out = f(x)
            assert float(out) == scale

    def test_relaxed_trace_specializes_per_shape_on_tpu(self):
        @repro.function(experimental_relax_shapes=True)
        def f(x):
            return repro.tanh(x) * 2.0 + 1.0

        before = tpu.compile_cache_stats()["fn_compiles"]
        for b in (2, 4, 6, 4):
            x = repro.constant(np.random.rand(b, 3).astype(np.float32))
            with repro.device("/tpu:0"):
                out = f(x)
            expected = repro.tanh(x) * 2.0 + 1.0  # eager, on the CPU
            np.testing.assert_allclose(out.numpy(), expected.numpy(), rtol=1e-6)
        assert f.trace_count == 2
        # One program for the exact batch-2 trace, one per shape under
        # the symbolic trace; the repeated batch 4 compiles nothing.
        assert tpu.compile_cache_stats()["fn_compiles"] - before == 3
        with repro.device("/tpu:0"):
            concrete = f.get_concrete_function(x)
        assert concrete.graph_function.input_specs[0].shape.dims == (None, 3)
        assert set(concrete.graph_function._executables) == {((4, 3),), ((6, 3),)}

    def test_op_programs_are_lru_bounded(self):
        tpu.reset_caches()
        context.trace_cache_size = 2
        x = repro.constant([1.0, 2.0])
        ops = (lambda t: t * 2.0, lambda t: t + 1.0, lambda t: t - 1.0)
        expected = ([2.0, 4.0], [2.0, 3.0], [0.0, 1.0])
        for op, want in zip(ops, expected):
            with repro.device("/tpu:0"):
                out = op(x)
            np.testing.assert_allclose(out.numpy(), want)
        stats = tpu._op_programs.stats()
        assert tpu.compile_cache_stats()["op_compiles"] == 3
        assert stats["evictions"] == 1 and stats["size"] == 2
        # The evicted (least recently used) program recompiles on demand.
        with repro.device("/tpu:0"):
            out = ops[0](x)
        np.testing.assert_allclose(out.numpy(), expected[0])
        assert tpu.compile_cache_stats()["op_compiles"] == 4
