"""One workload in one fresh process: set up, check, measure, report.

Usage (normally spawned by ``run.py``)::

    python3 perfbench/workload.py --workload l2hmc_n10 --seed 1 \
        --seconds 5 --trace 0 --out result.json

Without tracing the result holds raw samples (set-up time, step times
per mode, request latencies, the ladder outcome) that ``run.py`` pools
over several processes.  With ``--trace 1`` the timed phases alternate
untraced and traced rounds and the result holds the per-layer metrics.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # process start, before ``import repro``

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402

import numpy as np  # noqa: E402

import repro  # noqa: E402
import repro.xla  # noqa: E402,F401  (installs the TPU bridge)
from repro.core.function import RetraceWarning  # noqa: E402
from repro.runtime.context import context  # noqa: E402
from repro.serving import ModelServer  # noqa: E402

import checks  # noqa: E402
import serve  # noqa: E402
from programs import MODES, PROGRAMS  # noqa: E402
from speed import SpeedTrack  # noqa: E402

#: Per-workload serving settings.  ``nominal_rps`` is the rate the
#: latency metrics are read at (moderate load: most batches hold one
#: request, yet the threads stay warm; at much lower rates the figure is
#: dominated by the host's thread wake-up latency).  The rate ladder is the fixed geometric grid ``lo * 1.05**k``
#: up to ``hi``; ``serve_max_rps`` is found on it by bisection.  A rung
#: passes when p99 stays within ``limit_ms`` and the backlog does not
#: grow.  ``share`` is the part of the run spent serving.
SERVING = {
    "l2hmc_n10": {
        "nominal_rps": 500, "lo": 250, "hi": 8000, "limit_ms": 30.0, "share": 0.35,
    },
    "resnet_b32": {
        "nominal_rps": 20, "lo": 12, "hi": 400, "limit_ms": 250.0, "share": 0.5,
    },
    "serve_mlp_open": {
        "nominal_rps": 1000, "lo": 500, "hi": 16000, "limit_ms": 25.0, "share": 0.6,
    },
}
LADDER_RATIO = 1.05
PROBES = 6  # bisection probes of the ladder per process
WARM_S = 0.25  # untimed serving before the nominal window
POOL_SIZE = 32
ROUNDS = 3  # interleaved rounds over the modes


class Book:
    """Attempted/failed operations and the named correctness checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.checks: list = []
        self.errors: list = []

    def step(self, runner) -> float:
        """Run one step; a raise or a non-finite loss counts as failed."""
        self.attempted += 1
        try:
            loss = runner.step()
        except Exception as exc:  # noqa: BLE001 - counted, reported
            self.failed += 1
            self.errors.append(f"{runner.mode}: {type(exc).__name__}: {exc}")
            return float("nan")
        if not math.isfinite(loss):
            self.failed += 1
            self.errors.append(f"{runner.mode}: non-finite loss {loss}")
        return loss

    def check(self, name: str, passed: bool, detail: str = "", weaker: str = "") -> None:
        self.attempted += 1
        if not passed:
            self.failed += 1
        self.checks.append(
            {"name": name, "passed": bool(passed), "detail": detail, "weaker": weaker}
        )

    def serve_window(self, window, counted=None) -> None:
        """Count a window's requests; ``counted`` limits which outcomes fail."""
        self.attempted += window.count
        for outcome, n in window.outcomes().items():
            if outcome != serve.OK and (counted is None or outcome in counted):
                self.failed += n
                self.errors.append(f"serving at {window.rate:g} req/s: {n} {outcome}")


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def set_up(prog, seed: int, out_dir: str, book: Book, speed, tracer=None) -> dict:
    """Build every mode, run and check its first step, load the server."""
    runners = {}
    speed.sample()
    for mode in MODES:
        runner = prog.build(mode, seed)
        if tracer is not None:
            tracer.step = f"setup:{mode}"
        runner.first_loss = book.step(runner)
        runners[mode] = runner
        speed.sample()
    if tracer is not None:
        tracer.step = None
    checks.check_modes(prog, runners, book)

    rng = np.random.default_rng(seed + 1000)
    pool = prog.request_pool(rng, POOL_SIZE)
    path, refs = prog.export(os.path.join(out_dir, "model"), seed, pool)
    pool_tensors = [tuple(repro.constant(a) for a in req) for req in pool]
    order = rng.integers(0, POOL_SIZE, size=8192)
    server = ModelServer(timeout_ms=2000.0)
    model = server.load(prog.name, path)
    first = serve.run_window(model, pool_tensors, refs, order, 1000.0, 0.001)
    book.serve_window(first)
    book.check("serving_first_request", first.failures() == 0)
    speed.sample()
    return {
        "runners": runners,
        "server": server,
        "model": model,
        "pool": pool_tensors,
        "refs": refs,
        "order": order,
    }


def measure_modes(
    runners, book: Book, seconds: float, speed, tracer=None, recorder=None
):
    """Interleaved rounds over the modes.

    Returns ``(times, scaled, traced)``: raw untraced step times, the
    same scaled to the reference speed (``speed.py``), and traced step
    times, each per mode.  With a tracer, each mode's slice of a round
    is split into an untraced half and a traced half (tracing installed
    only for the latter); ``recorder`` snapshots counters around each
    traced step.
    """
    times = {mode: [] for mode in MODES}
    intervals = {mode: [] for mode in MODES}
    traced = {mode: [] for mode in MODES}
    slice_s = seconds / (ROUNDS * len(MODES))
    step_id = 0
    for _ in range(ROUNDS):
        for mode in MODES:
            runner = runners[mode]
            halves = [False] if tracer is None else [False, True]
            for trace_on in halves:
                if trace_on:
                    tracer.install()
                budget = slice_s / len(halves)
                start = time.perf_counter()
                while True:
                    step_id += 1
                    if trace_on:
                        tracer.step = step_id
                        before = recorder.snapshot(runner)
                        index = tracer.begin("step")
                    else:
                        speed.maybe_sample()
                    t = time.perf_counter()
                    book.step(runner)
                    end = time.perf_counter()
                    elapsed = end - t
                    if trace_on:
                        tracer.end(index)
                        tracer.step = None
                        recorder.steps.append(
                            (mode, step_id, elapsed, before, recorder.snapshot(runner))
                        )
                        traced[mode].append(elapsed)
                    else:
                        times[mode].append(elapsed)
                        intervals[mode].append((t, end))
                    if time.perf_counter() - start >= budget:
                        break
                if trace_on:
                    tracer.uninstall()
    speed.sample()
    scaled = {
        mode: [(b - a) * speed.scale(a, b) for a, b in intervals[mode]]
        for mode in MODES
    }
    return times, scaled, traced


def measure_serving(state, cfg: dict, book: Book, seconds: float, speed, tracer=None):
    """Nominal-rate window, then a bisection of the rate ladder; returns the report.

    With a tracer, only an untraced and a traced window at a quarter of
    the nominal rate run (the per-layer serving metrics and the overhead).
    """
    model, pool, refs, order = state["model"], state["pool"], state["refs"], state["order"]
    nominal_s = seconds * 0.4
    rung_s = seconds * 0.6 / PROBES
    report = {}

    def window(rate, duration, traced):
        on_send = None
        if traced:
            tracer.install()

            def on_send(i):
                tracer.step = f"req:{i}"

        before = model.stats()
        rows_before = len(tracer.served_rows) if traced else 0
        speed.sample()
        start = time.perf_counter()
        w = serve.run_window(model, pool, refs, order, rate, duration, on_send)
        end = time.perf_counter()
        speed.sample()
        w.scale = speed.scale(start, end)
        if traced:
            tracer.step = None
            tracer.uninstall()
        return w, before, model.stats(), rows_before

    if tracer is not None:
        # Untraced then traced, for the overhead figure.  Tracing slows
        # every served call several-fold, so both windows run at a
        # quarter of the nominal rate to keep the traced one unsaturated.
        rate = cfg["nominal_rps"] / 4
        plain, *_ = window(rate, nominal_s / 2, False)
        book.serve_window(plain)
        w, before, after, rows_before = window(rate, nominal_s / 2, True)
        book.serve_window(w)
        report["plain_window"] = plain
        report["traced_window"] = (w, before, after, rows_before)
        return report

    # A short untimed window first: the threads and caches the modes
    # phase left cold would otherwise charge the first requests.
    warm, _, _, _ = window(cfg["nominal_rps"], WARM_S, False)
    book.serve_window(warm)
    w, _, _, _ = window(cfg["nominal_rps"], nominal_s, False)
    book.serve_window(w)
    report["nominal_latency_ms"] = w.latencies_ms().tolist()
    report["nominal_scale"] = w.scale
    report["nominal_late_ms"] = w.late_ms().tolist()
    ladder = rate_ladder(cfg)
    rungs = []
    best = None
    passing, failing = -1, len(ladder)  # highest known pass, lowest known fail
    for _ in range(PROBES):
        if failing - passing <= 1:
            break
        k = (passing + failing) // 2
        w, _, _, _ = window(ladder[k], rung_s, False)
        lat = w.latencies_ms()
        p99 = float(np.percentile(lat, 99)) if len(lat) else float("inf")
        # Overload outcomes (rejections, expiries) fail the rung; only a
        # wrong value is an error of the program.
        book.serve_window(w, counted=(serve.WRONG,))
        passed = (
            w.failures() == 0
            and p99 <= cfg["limit_ms"]
            and w.backlog_at_end <= max(16, 0.02 * w.count)
        )
        rungs.append(
            {"rate": ladder[k], "passed": passed, "p99_ms": p99,
             "backlog": w.backlog_at_end, "achieved_rps": w.achieved_rps(),
             "failures": w.failures()}
        )
        if passed:
            # Rates scale inversely with time: divide by the time scale.
            passing, best = k, w.achieved_rps() / w.scale
        else:
            failing = k
    report["ladder"] = rungs
    report["max_rps"] = best
    return report


def rate_ladder(cfg: dict) -> list:
    ladder = [float(cfg["lo"])]
    while ladder[-1] * LADDER_RATIO <= cfg["hi"]:
        ladder.append(ladder[-1] * LADDER_RATIO)
    return ladder


def samples(runners, times, scaled, serving, setup_s, setup_scale, speed) -> dict:
    """The figures ``run.py`` pools into the end-to-end metrics.

    Timings and rates are scaled to the reference speed (``speed.py``);
    the raw figures ride along for the report.
    """
    scale = serving["nominal_scale"]
    return {
        "setup_s": setup_s * setup_scale,
        "setup_raw_s": setup_s,
        "step_s": scaled,
        "step_raw_s": times,
        "examples": {mode: runners[mode].examples for mode in MODES},
        "latency_ms": [v * scale for v in serving["nominal_latency_ms"]],
        "latency_raw_ms": serving["nominal_latency_ms"],
        "late_ms": serving["nominal_late_ms"],
        "max_rps": serving["max_rps"],
        "ladder": serving["ladder"],
        "rss_mb": _rss_mb(),
        "calibration_ms": [v * 1e3 for v in speed.values],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(PROGRAMS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    warnings.simplefilter("ignore", RetraceWarning)
    out_dir = os.path.join(os.path.dirname(args.out), f"model_{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    prog = PROGRAMS[args.workload]
    cfg = SERVING[args.workload]
    book = Book()

    tracer = recorder = None
    if args.trace:
        import layers
        from tracer import Tracer

        tracer = Tracer()
        recorder = layers.Recorder(tracer)
        tracer.install()

    server = None
    speed = SpeedTrack()
    try:
        state = set_up(prog, args.seed, out_dir, book, speed, tracer)
        server = state["server"]
        setup_end = time.perf_counter()
        setup_s = setup_end - _T0
        setup_scale = speed.mean_scale(_T0, setup_end)
        result = {
            "workload": args.workload,
            "seed": args.seed,
            "knobs": knob_record(),
        }
        if tracer is not None:
            tracer.uninstall()
        # Freeze the set-up heap (every mode's model, traces and plans
        # live in this one process) so that collections during the timed
        # phases scan only the garbage those phases create.
        gc.collect()
        gc.freeze()
        serve_s = args.seconds * cfg["share"]
        times, scaled, traced = measure_modes(
            state["runners"], book, args.seconds - serve_s, speed, tracer, recorder
        )
        serving = measure_serving(state, cfg, book, serve_s, speed, tracer)
        if tracer is None:
            result["samples"] = samples(
                state["runners"], times, scaled, serving, setup_s, setup_scale, speed
            )
        else:
            result["metrics"], span_checks, result["trace_detail"] = layers.per_layer(
                tracer, recorder, times, traced, serving, state
            )
            for name, passed, detail in span_checks:
                book.check(f"trace:{name}", passed, detail)
            trace_path = os.path.join(
                os.path.dirname(args.out),
                f"trace_{args.workload}_seed{args.seed}.json",
            )
            result["trace_events"] = tracer.write_chrome_trace(
                trace_path, layers.first_steps(recorder)
            )
            result["trace_file"] = trace_path
        result["attempted"] = book.attempted
        result["failed"] = book.failed
        result["checks"] = book.checks
        result["errors"] = book.errors[:20]
    finally:
        if server is not None:
            server.stop()
        shutil.rmtree(out_dir, ignore_errors=True)

    tmp = args.out + ".tmp"
    with open(tmp, "w") as f:
        json.dump(result, f, default=_jsonable)
    os.replace(tmp, args.out)
    return 0


def knob_record() -> dict:
    """The execution knobs this process ran with, and its REPRO_* env."""
    return {
        "env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")},
        "executor_mode": context.executor_mode,
        "graph_fusion": context.graph_fusion,
        "kernel_backend": context.kernel_backend,
        "process_devices": context.process_devices,
        "serving_max_batch": context.serving_max_batch,
        "serving_queue_depth": context.serving_queue_depth,
        "threads": {
            k: os.environ.get(k)
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def _jsonable(value):
    if isinstance(value, np.integer):
        return int(value)
    raise TypeError(f"not JSON serializable: {value!r}")


if __name__ == "__main__":
    sys.exit(main())
