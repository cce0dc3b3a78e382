"""The repository benchmark: one command, every workload, every metric.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload l2hmc_n10 --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 1

Each workload runs in fresh processes (the lazy segment cache, kernel
cache and inference memo are process-global), each pinned to one CPU,
with every ``REPRO_*`` variable cleared to its default, hash
randomisation pinned and BLAS on one thread.  Without tracing three
identical processes run one after another, each measuring a third of
``--seconds``; step times are pooled over them, and set-up time, peak
memory, the median latency and the ladder result are medians over them.
With ``--trace 1`` one traced process reports the per-layer metrics
instead.

Human-readable lines come first; the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The
exit code is non-zero when any correctness check or step fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("l2hmc_n10", "resnet_b32", "serve_mlp_open")
OUT_DIR = ".perfbench_out"
REPLICAS = 3
BUDGET_S = 170.0  # every process of one invocation ends within this


def child_env(root: str) -> tuple[dict, list]:
    """The workload process environment, and the REPRO_* names cleared."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    cleared = sorted(k for k in os.environ if k.startswith("REPRO_"))
    env.update(
        PYTHONPATH=os.path.join(root, "src"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONDONTWRITEBYTECODE="1",
    )
    return env, cleared


def run_child(root, env, workload, args, seconds, trace, deadline, cpu) -> dict:
    """Run one workload process pinned to ``cpu``; returns its result."""
    out = os.path.join(root, OUT_DIR, f"{workload}_{os.getpid()}.json")
    if os.path.exists(out):
        os.remove(out)
    cmd = [
        sys.executable, os.path.join(HERE, "workload.py"),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(seconds), "--trace", str(trace), "--out", out,
    ]
    proc = subprocess.run(
        cmd, cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=max(deadline - time.monotonic(), 1.0),
        preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
    )
    if proc.returncode != 0 or not os.path.exists(out):
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"{workload} exited with {proc.returncode}")
    with open(out) as f:
        result = json.load(f)
    os.remove(out)
    return result


def run_workload(root, env, workload, args, deadline) -> dict:
    # Each process is pinned to one CPU, the replicas alternating CPUs.
    # On the shared VM this was measured on, cross-CPU thread wake-ups
    # (async stream hand-off, serving) slowed 2-8x for minutes at a time,
    # while hand-offs between threads sharing one CPU stayed steady.
    cpus = sorted(os.sched_getaffinity(0))
    if args.trace:
        return run_child(root, env, workload, args, args.seconds, 1, deadline, cpus[0])
    results = [
        run_child(root, env, workload, args, args.seconds / REPLICAS, 0, deadline,
                  cpus[i % len(cpus)])
        for i in range(REPLICAS)
    ]
    return pool(results)


def _percentiles(values) -> dict:
    """Median, the highest percentile with >= 10 samples beyond it, count."""
    values = sorted(values)
    report = {"count": len(values)}
    if values:
        report["p50"] = statistics.median(values)
        for pct in (99.9, 99.0, 90.0):
            if len(values) * (1.0 - pct / 100.0) >= 10:
                report["top_pct"] = pct
                report["top"] = statistics.quantiles(values, n=1000)[round(pct * 10) - 1]
                break
    return report


def pool(results: list) -> dict:
    """End-to-end metrics from the raw samples of the replica processes."""
    samples = [r["samples"] for r in results]
    metrics = {"setup_s": [statistics.median(s["setup_s"] for s in samples), "s"]}
    step_ms = {}
    for mode in samples[0]["step_s"]:
        steps = [t for s in samples for t in s["step_s"][mode]]
        raw = [t for s in samples for t in s["step_raw_s"][mode]]
        examples = samples[0]["examples"][mode]
        metrics[f"{mode}_examples_per_s"] = [
            examples / statistics.median(steps), "examples/s"
        ]
        step_ms[mode] = _percentiles([t * 1e3 for t in steps])
        step_ms[mode]["raw_p50"] = statistics.median(raw) * 1e3
    # The per-process median latency, then the median over processes:
    # one process caught in a host stall does not set the figure.  The
    # p99 and the ladder's highest rate are reported beside it but are
    # not declared metrics: neither was steady enough (see NOTES.md).
    latency = [v for s in samples for v in s["latency_ms"]]
    metrics["serve_p50_ms"] = [
        statistics.median(statistics.median(s["latency_ms"]) for s in samples), "ms"
    ]
    serve_p99 = statistics.median(
        statistics.quantiles(s["latency_ms"], n=100)[98] for s in samples
    )
    serve_max_rps = statistics.median(s["max_rps"] or 0.0 for s in samples)
    metrics["peak_rss_mb"] = [statistics.median(s["rss_mb"] for s in samples), "MB"]
    return {
        "seed": results[0]["seed"],
        "knobs": results[0]["knobs"],
        "metrics": metrics,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "checks": [c for r in results for c in r["checks"]],
        "errors": [e for r in results for e in r["errors"]],
        "step_ms": step_ms,
        "serving": {
            "serve_p99_ms": serve_p99,
            "serve_max_rps": serve_max_rps,
            "latency_ms": _percentiles(latency),
            "generator_late_ms": _percentiles(
                [v for s in samples for v in s["late_ms"]]
            ),
            "max_rps_per_process": [s["max_rps"] for s in samples],
        },
        "setup_samples": [s["setup_s"] for s in samples],
        "setup_raw_samples": [s["setup_raw_s"] for s in samples],
        "calibration_ms": _percentiles(
            [v for s in samples for v in s["calibration_ms"]]
        ),
    }


def report(workload, result, prefix: str) -> None:
    print(f"== {workload} (seed {result['seed']}) ==")
    for name, (value, unit) in result["metrics"].items():
        print(f"  {prefix}{name:34s} {value:14.6g} {unit}")
    error_rate = result["failed"] / max(result["attempted"], 1)
    print(f"  {prefix}{'error_rate':34s} {error_rate:14.6g} ratio "
          f"({result['failed']}/{result['attempted']})")
    shown = set()
    for check in result["checks"]:
        key = (check["name"], check["passed"], check["detail"])
        if key in shown:
            continue
        shown.add(key)
        if not check["passed"] or check["weaker"]:
            status = "PASS" if check["passed"] else "FAIL"
            note = f" [weaker check: {check['weaker']}]" if check["weaker"] else ""
            print(f"  check {check['name']}: {status} {check['detail']}{note}")
    for error in result.get("errors", []):
        print(f"  error: {error}")
    if "step_ms" in result:
        for mode, diag in result["step_ms"].items():
            print(f"  step_ms[{mode}] {json.dumps(diag)}")
    if "serving" in result:
        print(f"  {prefix}{'serve_p99_ms (not gated)':34s} "
              f"{result['serving']['serve_p99_ms']:14.6g} ms")
        print(f"  {prefix}{'serve_max_rps (not gated)':34s} "
              f"{result['serving']['serve_max_rps']:14.6g} req/s")
        print(f"  serving {json.dumps(result['serving'])}")
    if "setup_samples" in result:
        print(f"  setup samples (s): {result['setup_samples']} "
              f"(raw: {result['setup_raw_samples']})")
        print(f"  calibration loop (ms, reference {speed.REFERENCE_S * 1e3:g}): "
              f"{json.dumps(result['calibration_ms'])}")
    if "trace_detail" in result:
        print(f"  tracing per mode: {json.dumps(result['trace_detail'])}")
    if "trace_file" in result:
        print(f"  chrome trace: {result['trace_file']} ({result['trace_events']} events)")
    print(f"  knobs: {json.dumps(result['knobs'])}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        sys.stderr.write("perfbench: run from the repository root (src/repro not found)\n")
        return 2
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    env, cleared = child_env(root)
    if cleared:
        print(f"cleared from the environment: {' '.join(cleared)}")

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + BUDGET_S * len(workloads)
    prefix_all = args.workload == "all"
    metrics, attempted, failed = {}, 0, 0
    for workload in workloads:
        try:
            result = run_workload(root, env, workload, args, deadline)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            sys.stderr.write(f"perfbench: {exc}\n")
            return 1
        prefix = f"{workload}/" if prefix_all else ""
        report(workload, result, prefix)
        attempted += result["attempted"]
        failed += result["failed"]
        for name, (value, unit) in result["metrics"].items():
            metrics[prefix + name] = {"value": value, "unit": unit}
    correct = failed == 0
    print(json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
