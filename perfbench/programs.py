"""The three benchmark programs, each buildable in every execution mode.

A program is the paper's "same code, different execution strategy"
unit: one Python step function run

* ``sync``   — imperatively, kernels on the calling thread;
* ``async``  — under ``repro.execution_mode("async")``, ending in
  ``repro.sync()``;
* ``lazy``   — under ``repro.execution_mode("lazy")``, ending in
  ``repro.sync()``;
* ``staged`` — wrapped in ``repro.function``;
* ``tpu``    — wrapped in ``repro.function`` and placed on ``/tpu:0``
  (the XLA-sim compiler bridge).

Each program also exports a shape-polymorphic (``None`` leading
dimension) inference function that the serving phase loads into a
``ModelServer``, together with a pool of seeded requests and their
reference outputs.

Only public ``repro`` API is used here; the programs never see the
benchmark's seed except through the inputs built from it.
"""

from __future__ import annotations

import contextlib

import numpy as np

import repro
from repro import nn
from repro.tensor import TensorSpec

MODES = ("sync", "async", "lazy", "staged", "tpu")


def mode_scope(mode: str):
    """The context a mode's step runs (and is built) in."""
    if mode == "tpu":
        return repro.device("/tpu:0")
    return contextlib.nullcontext()


def run_in_mode(mode: str, fn):
    """Call ``fn`` under ``mode``; pending work is synced before return."""
    if mode in ("async", "lazy"):
        with repro.execution_mode(mode):
            out = fn()
            repro.sync()
        return out
    with repro.execution_mode("sync"), mode_scope(mode):
        return fn()


def _numpy(value) -> np.ndarray:
    return np.asarray(value.numpy())


class ModeRunner:
    """One program instance bound to one execution mode.

    ``function`` is the ``repro.function`` of the staged modes (None
    otherwise); ``initial`` holds the pre-update state snapshot where a
    mode can show it (staged L2HMC, whose variables come from tracing);
    ``reference`` holds NumPy reference outputs where they exist.
    """

    first_loss = None  # set by the benchmark after the first step

    def __init__(
        self, mode: str, step, snapshot, examples: int,
        function=None, initial=None, reference=None,
    ) -> None:
        self.mode = mode
        self._step = step
        self._snapshot = snapshot
        self.examples = examples
        self.function = function
        self.initial = initial
        self.reference = reference

    def step(self) -> float:
        """Run one step; returns its scalar loss (or output checksum)."""
        return run_in_mode(self.mode, self._step)

    def snapshot(self) -> dict:
        """Host copies of the state the correctness check compares."""
        return self._snapshot()


# ---------------------------------------------------------------------------
# L2HMC (paper Fig 4)
# ---------------------------------------------------------------------------

class L2HMCProgram:
    """L2HMC training: 10 samples, 10 leapfrog steps, Adam(1e-3)."""

    name = "l2hmc_n10"
    num_samples = 10
    learning_rate = 1e-3

    def _dynamics(self, seed: int):
        energy = nn.l2hmc.gaussian_mixture_energy([[-2.0, 0.0], [2.0, 0.0]])
        return nn.l2hmc.L2HMCDynamics(2, energy, num_steps=10, eps=0.1, seed=seed)

    def build(self, mode: str, seed: int) -> ModeRunner:
        with repro.execution_mode("sync"), mode_scope(mode):
            repro.set_random_seed(seed)
            sampler = nn.l2hmc.L2HMCSampler(self._dynamics(seed))
            optimizer = nn.Adam(self.learning_rate)
            state = {"x": repro.random_normal([self.num_samples, 2])}

        def train_step(x):
            with repro.GradientTape() as tape:
                loss, x_next = sampler.loss_and_samples(x)
            variables = sampler.trainable_variables
            grads = tape.gradient(loss, variables)
            optimizer.apply_gradients(zip(grads, variables))
            return loss, x_next

        def snapshot():
            return {
                "x": _numpy(state["x"]),
                **{
                    f"w{i}": _numpy(v)
                    for i, v in enumerate(sampler.trainable_variables)
                },
            }

        function = initial = None
        if mode in ("staged", "tpu"):
            function = repro.function(train_step)
            # Tracing creates the variables; snapshot them before the
            # first update so the staged check can see that update.
            with repro.execution_mode("sync"), mode_scope(mode):
                function.get_concrete_function(state["x"])
            initial = snapshot()
        fn = function or train_step

        def step():
            loss, state["x"] = fn(state["x"])
            return float(loss.numpy())

        return ModeRunner(
            mode, step, snapshot, self.num_samples, function=function, initial=initial
        )

    # -- serving: the learned position-update network ----------------------
    # ``propose`` itself cannot be served: its saved artifact (a trace
    # with a nested energy gradient) fails to load (see NOTES.md).  The
    # served model is the network the integrator evaluates at every
    # leapfrog half-step: (x, v, t) -> (scale, transform, translation).
    def export(self, path: str, seed: int, pool: list):
        """Save the network; returns its path and the eager references of ``pool``."""
        repro.set_random_seed(seed)
        net = self._dynamics(seed).x_net
        with repro.execution_mode("sync"):
            refs = [
                tuple(_numpy(o) for o in net(tuple(map(repro.constant, req))))
                for req in pool
            ]

        @repro.function
        def network(x, v, t):
            return net((x, v, t))

        spec = TensorSpec([None, 2], repro.float32)
        path = repro.saved_function.save(network, path, spec, spec, spec)
        return path, refs

    def request_pool(self, rng: np.random.Generator, size: int) -> list:
        return [
            tuple(rng.standard_normal((rows, 2)).astype(np.float32) for _ in range(3))
            for rows in rng.integers(1, 9, size=size)
        ]


# ---------------------------------------------------------------------------
# ResNet-50 (scaled) at batch 32 (paper Fig 3 / Table 1)
# ---------------------------------------------------------------------------

class ResNetProgram:
    """ResNet-50-depth, width-8 training step at batch 32, SGD+momentum."""

    name = "resnet_b32"
    batch_size = 32
    image_size = 32
    num_classes = 100

    def _model(self):
        return nn.resnet.resnet50_scaled(num_classes=self.num_classes, width=8)

    def build(self, mode: str, seed: int) -> ModeRunner:
        rng = np.random.default_rng(seed)
        images = rng.normal(
            0.45, 0.25, size=(self.batch_size, self.image_size, self.image_size, 3)
        ).astype(np.float32)
        labels = rng.integers(0, self.num_classes, size=(self.batch_size,))
        with repro.execution_mode("sync"):
            repro.set_random_seed(seed)
            model = self._model()
            optimizer = nn.SGD(0.01, momentum=0.9)
            images_t = repro.constant(images)
            labels_t = repro.constant(labels.astype(np.int64))
            model(images_t, training=True)  # create the variables

        def train_step(images, labels):
            with repro.GradientTape() as tape:
                logits = model(images, training=True)
                loss = nn.sparse_softmax_cross_entropy(labels, logits)
            variables = model.trainable_variables
            grads = tape.gradient(loss, variables)
            optimizer.apply_gradients(zip(grads, variables))
            return loss

        function = repro.function(train_step) if mode in ("staged", "tpu") else None
        fn = function or train_step

        def step():
            return float(fn(images_t, labels_t).numpy())

        def snapshot():
            return {f"w{i}": _numpy(v) for i, v in enumerate(model.trainable_variables)}

        return ModeRunner(mode, step, snapshot, self.batch_size, function=function)

    # -- serving: inference logits for 1-8 images --------------------------
    def export(self, path: str, seed: int, pool: list):
        repro.set_random_seed(seed)
        model = self._model()
        with repro.execution_mode("sync"):
            refs = [
                (_numpy(model(repro.constant(req[0]), training=False)),)
                for req in pool
            ]

        @repro.function
        def infer(images):
            return model(images, training=False)

        spec = TensorSpec([None, self.image_size, self.image_size, 3], repro.float32)
        path = repro.saved_function.save(infer, path, spec)
        return path, refs

    def request_pool(self, rng: np.random.Generator, size: int) -> list:
        return [
            (
                rng.normal(
                    0.45, 0.25, size=(rows, self.image_size, self.image_size, 3)
                ).astype(np.float32),
            )
            for rows in rng.integers(1, 9, size=size)
        ]


# ---------------------------------------------------------------------------
# The served MLP (64 -> 4x128 tanh -> 16)
# ---------------------------------------------------------------------------

class MLPProgram:
    """The None-batch MLP of ``benchmarks/run_serving.export_model``.

    Its per-mode "step" is inference over a fixed sequence of
    ``requests_per_step`` pool requests (1-8 rows each), one call per
    request: the many-tiny-calls regime a server's worker sees.
    """

    name = "serve_mlp_open"
    dims = [64, 128, 128, 128, 128, 16]
    requests_per_step = 32

    def weights(self, seed: int) -> list:
        rng = np.random.default_rng(seed)
        return [
            (rng.standard_normal((a, b)) * 0.1).astype(np.float32)
            for a, b in zip(self.dims[:-1], self.dims[1:])
        ]

    @staticmethod
    def forward(variables, x):
        for w in variables:
            x = repro.tanh(repro.matmul(x, w))
        return x

    @staticmethod
    def reference(weights, x: np.ndarray) -> np.ndarray:
        for w in weights:
            x = np.tanh(x @ w)
        return x

    def build(self, mode: str, seed: int) -> ModeRunner:
        weights = self.weights(seed)
        pool = self.request_pool(np.random.default_rng(seed + 1), self.requests_per_step)
        with repro.execution_mode("sync"), mode_scope(mode):
            variables = [repro.Variable(w) for w in weights]
            inputs = [repro.constant(req[0]) for req in pool]

        def forward(x):
            return self.forward(variables, x)

        function = repro.function(forward) if mode in ("staged", "tpu") else None
        fn = function or forward
        outputs = [None] * len(inputs)

        def step():
            for i, x in enumerate(inputs):
                outputs[i] = fn(x)
            return float(sum(float(np.sum(o.numpy())) for o in outputs))

        def snapshot():
            return {f"y{i}": _numpy(o) for i, o in enumerate(outputs)}

        rows = sum(req[0].shape[0] for req in pool)
        reference = {
            f"y{i}": self.reference(weights, req[0]) for i, req in enumerate(pool)
        }
        return ModeRunner(
            mode, step, snapshot, rows, function=function, reference=reference
        )

    def export(self, path: str, seed: int, pool: list):
        weights = self.weights(seed)
        variables = [repro.Variable(w) for w in weights]

        @repro.function
        def mlp(x):
            return self.forward(variables, x)

        path = repro.saved_function.save(mlp, path, TensorSpec([None, 64], repro.float32))
        return path, [(self.reference(weights, req[0]),) for req in pool]

    def request_pool(self, rng: np.random.Generator, size: int) -> list:
        return [
            (rng.standard_normal((rows, 64)).astype(np.float32),)
            for rows in rng.integers(1, 9, size=size)
        ]


PROGRAMS = {p.name: p for p in (L2HMCProgram(), ResNetProgram(), MLPProgram())}

