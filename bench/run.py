"""pvalent benchmark: closed-loop workloads with checked outputs.

    python3 bench/run.py --workload check_highdeg --seed 1 --seconds 35 --trace 0

Run from anywhere; the package is imported from the `src` directory next
to this one.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``.  Lines before it repeat every metric with its unit, the
error rate and the machine.  BENCHMARK.json names the metrics and
DESIGN.md gives the reasons for the workloads.

Set-up builds the inputs and their references (outside all timing), then
starts `SETUP_RUNS` fresh workers one after another.  Each one's set-up
time runs from its start to the end of its first, untimed op; the last
worker goes on to the measured loop.  One client in one worker process.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_RUNS = 9
#: ops per loop, so that at least ten latency samples lie above p90
MIN_OPS = 110
#: every op of a cycle runs at least this often, so it has a quartile of several
MIN_CYCLES = 3
#: a run that has not finished after this many seconds is stopped
RUN_TIMEOUT_S = 170.0

UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
LAYER_UNITS = {
    metric: "ms" if metric.endswith("_ms") else "count" for metric in tracing.METRICS
}
LAYER_UNITS["trace.overhead_frac"] = "ratio"


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def quantile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def machine() -> str:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return (
        f"nproc={os.cpu_count()} cpu={cpu!r} python={platform.python_version()} "
        f"numpy={np.__version__}"
    )


def run_worker(plan_path: Path, mode: str, deadline: float) -> float:
    """Run one fresh worker to its end; return the seconds until its first op ended."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    began = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), str(plan_path), mode],
        stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
    )
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        setup = time.perf_counter() - began
        proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"worker in {mode} mode failed with exit code {proc.returncode}")
    return setup


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (ROOT / "src" / "pvalent" / "__init__.py").is_file():
        raise BenchError(f"no package source at {ROOT / 'src' / 'pvalent'}")
    deadline = time.monotonic() + RUN_TIMEOUT_S
    work = ROOT / ".bench_work" / f"{workload}-{os.getpid()}"
    out_dir = ROOT / ".bench_out"
    work.mkdir(parents=True, exist_ok=True)
    out_dir.mkdir(exist_ok=True)
    try:
        plan = workloads.build(workload, seed, work)
        refs = [op.pop("ref") for op in plan["ops"]]
        plan["warmup"].pop("ref")
        spans_path = out_dir / f"spans-{workload}.npz"
        plan.update(
            src=str(ROOT / "src"), seconds=seconds,
            min_ops=max(MIN_OPS, MIN_CYCLES * len(plan["ops"])),
            refs=str(work / "refs.json"), result=str(work / "result.json"),
            spans=str(spans_path),
        )
        (work / "refs.json").write_text(json.dumps(refs), encoding="utf-8")
        plan_path = work / "plan.json"
        plan_path.write_text(json.dumps(plan), encoding="utf-8")
        modes = ["setup"] * (SETUP_RUNS - 1) + ["trace" if trace else "loop"]
        setups = [run_worker(plan_path, mode, deadline) for mode in modes]
        result = json.loads((work / "result.json").read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["setups"] = setups
    result["ops"] = [op["name"] for op in plan["ops"]]
    result["fresh"] = plan.get("fresh", False)
    if trace:
        with np.load(spans_path) as spans:
            result["layers"] = tracing.summarize(spans, result["traced_ops"], result["missing"])
    return result


def upper_quartile(values) -> float:
    """Upper quartile, interpolated between order statistics; the value itself if alone."""
    values = list(values)
    return statistics.quantiles(values, n=4, method="inclusive")[2] if len(values) > 1 else values[0]


def quartile_of_repetitions(result: dict, slots: int) -> dict:
    """Timing metrics from each slot's upper-quartile repetition over whole cycles.

    Each op of the cycle runs once per cycle on the same input.  The host
    runs in bursts of higher speed that come and go; the upper quartile of
    an op's repetitions is its cost outside such bursts, which repeats from
    run to run better than its best or its median repetition (DESIGN.md).
    """
    cycles = len(result["latencies"]) // slots
    if cycles == 0:
        raise BenchError("the loop stopped before one whole cycle")
    whole = cycles * slots
    wall = [upper_quartile(result["latencies"][i:whole:slots]) for i in range(slots)]
    cpu = [upper_quartile(result["cpu"][i:whole:slots]) for i in range(slots)]
    print(f"timing metrics use the upper quartile of each op's {cycles} repetitions")
    return {
        "ops_per_s": slots / sum(wall),
        "latency_p50_ms": 1e3 * quantile(sorted(wall), 0.5),
        "latency_p90_ms": 1e3 * quantile(sorted(wall), 0.9),
        "cpu_ms_per_op": 1e3 * sum(cpu) / slots,
    }


def quartile_of_rounds(result: dict, slots: int) -> dict:
    """Timing metrics as upper quartiles over whole rounds of fresh op instances.

    A round is one cycle: the workload's fixed mix, each op on a new input.
    Each round gives its wall and CPU time per op and its latency
    quantiles; as with repeated ops, the upper quartile over rounds is the
    cost outside the host's bursts of higher speed.
    """
    rounds = len(result["latencies"]) // slots
    if rounds == 0:
        raise BenchError("the loop stopped before one whole round")
    per_round = []
    for r in range(rounds):
        wall = result["latencies"][r * slots:(r + 1) * slots]
        cpu = result["cpu"][r * slots:(r + 1) * slots]
        ordered = sorted(wall)
        per_round.append((sum(wall) / slots, 1e3 * quantile(ordered, 0.5),
                          1e3 * quantile(ordered, 0.9), 1e3 * sum(cpu) / slots))
    wall, p50, p90, cpu = (upper_quartile(column) for column in zip(*per_round))
    print(f"timing metrics are upper quartiles over {rounds} rounds of {slots} fresh ops")
    return {"ops_per_s": 1.0 / wall, "latency_p50_ms": p50, "latency_p90_ms": p90,
            "cpu_ms_per_op": cpu}


def report(workload: str, seed: int, trace: bool, result: dict) -> dict:
    lat = sorted(result["latencies"])
    runs = len(lat)
    attempted = result["attempted"]
    failed = result["failed"]
    classes: dict[str, int] = {}
    for record in failed:
        for cls, _ in record["failures"]:
            classes[cls] = classes.get(cls, 0) + 1
    correct = set(classes) <= checks.KNOWN_DEFECTS
    print(f"machine: {machine()}")
    print(f"workload={workload} seed={seed} trace={int(trace)} op runs={runs} "
          f"instances={attempted} cycle={len(result['ops'])} "
          f"setups={[round(s, 4) for s in result['setups']]}")
    if trace:
        metrics = dict(result["layers"])
        metrics["trace.overhead_frac"] = result["traced_s"] / result["untraced_s"] - 1.0
        units = LAYER_UNITS
        for target in result["missing"]:
            print(f"missing: {target} no longer exists; its layer's metrics are left out",
                  file=sys.stderr)
    else:
        timing = quartile_of_rounds if result["fresh"] else quartile_of_repetitions
        metrics = timing(result, len(result["ops"]))
        metrics["peak_rss_mb"] = result["peak_rss_kb"] / 1024.0
        metrics["setup_s"] = statistics.median(result["setups"])
        units = UNITS
        print(f"all op runs, for reference: p50 {1e3 * quantile(lat, 0.5):.4g} ms, "
              f"p90 {1e3 * quantile(lat, 0.9):.4g} ms "
              f"({sum(1 for v in lat if v > quantile(lat, 0.9))} above p90), "
              f"{runs / sum(lat):.4g} ops/s")
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    per_op: dict[str, list[float]] = {}
    for i, wall in enumerate(result["latencies"]):
        per_op.setdefault(result["ops"][i % len(result["ops"])], []).append(wall)
    print("op median ms: " + " ".join(
        f"{name}={1e3 * statistics.median(v):.1f}" for name, v in per_op.items()))
    print(f"error_rate {len(failed) / attempted!r} ratio ({len(failed)} of {attempted} op "
          f"instances; failure classes {classes or 'none'})")
    for record in failed[:5]:
        print(f"failed op {record['index']} {record['op']}: {record['failures'][0][1][:300]}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
        summary = report(args.workload, args.seed, bool(args.trace), result)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
