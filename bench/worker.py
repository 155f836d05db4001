"""One benchmark worker: a fresh interpreter running one client's closed loop.

    python3 bench/worker.py PLAN.json {setup|loop|trace}

The worker imports `pvalent` from the plan's `src` directory, runs the
warm-up op and prints ``ready``; the parent times set-up up to that line.
In ``setup`` mode it then exits.  In ``loop`` mode it runs whole cycles of
the plan's ops until their summed wall time reaches the plan's seconds and
at least `min_ops` ops have run.  In ``trace`` mode it runs whole cycles
for half the seconds untraced, then the same ops again with the span
wrappers installed, and saves the spans.  Each op's output is checked
against its reference after the op's clock has stopped.

An op instance is one input: a slot of the cycle, which keeps its input
from one cycle to the next, or in a ``fresh`` plan one run of a slot, which
gets a new suite trial each time.  An instance that fails on any of its
runs counts once.
"""

from __future__ import annotations

import io
import json
import os
import resource
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

# the loops of one worker never run longer than this, whatever the plan asks
HARD_CAP_S = 120.0


class Client:
    def __init__(self, plan: dict, modules: dict):
        self.plan = plan
        self.modules = modules

    def execute(self, op: dict) -> dict:
        """Run one op; the caller times this call."""
        if op["kind"] == "suite":
            report = self.modules["harness"].run_property_suite(op["suite"], 1, op["trial"])
            return {
                "trials": report.trials,
                "failures": report.failures,
                "first": report.first_counterexample,
            }
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = self.modules["cli"].main(op["argv"])
        return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}

    def run_one(self, op: dict, tracer=None) -> tuple[float, float, dict]:
        if "out" in op and os.path.exists(op["out"]):
            os.remove(op["out"])
        span = tracer.open("op") if tracer is not None else None
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            outcome = self.execute(op)
        except Exception:  # an escaped exception is a failed op, not a crashed run
            outcome = {"exception": traceback.format_exc()}
        t1 = time.perf_counter()
        c1 = time.process_time()
        if span is not None:
            tracer.close(span)
        if "out" in op and "code" in outcome and os.path.exists(op["out"]):
            with open(op["out"], encoding="utf-8") as fh:
                outcome["doc"] = json.load(fh)
        return t1 - t0, c1 - c0, outcome


class Loop:
    """Closed loop over whole cycles of the plan's ops, one client."""

    def __init__(self, client: Client, refs: list, check_op, trial_seed=None):
        self.stop_at = time.perf_counter() + HARD_CAP_S
        self.client = client
        self.ops = client.plan["ops"]
        self.fresh = client.plan.get("fresh", False)
        self.trial_seed = trial_seed
        self.refs = refs
        self.check_op = check_op
        self.latencies: list[float] = []
        self.cpu: list[float] = []
        self.instances: set[int] = set()
        self.failed: dict[int, dict] = {}

    def run(self, seconds: float, min_ops: int, count=None, tracer=None) -> float:
        """Run until `seconds` of op time and `min_ops` ops (or exactly `count` ops).

        Every call starts at the first op of the cycle and its first
        instance, so a second call with `count` replays the first call's
        inputs.  Stops only between cycles, unless `count` or the hard cap
        ends it sooner; returns the summed wall time of the ops.
        """
        busy = 0.0
        done = 0
        while True:
            for slot, op in enumerate(self.ops):
                if (count is not None and done >= count) or time.perf_counter() > self.stop_at:
                    return busy
                instance = done if self.fresh else slot
                if self.fresh:
                    op = dict(op, trial=self.trial_seed(op["seed"], instance))
                wall, cpu, outcome = self.client.run_one(op, tracer)
                busy += wall
                self.latencies.append(wall)
                self.cpu.append(cpu)
                self.instances.add(instance)
                failures = self.check_op(self.refs[slot], outcome)
                if failures and instance not in self.failed:
                    self.failed[instance] = {"index": done, "op": op["name"], "failures": failures}
                done += 1
            if count is None and busy >= seconds and done >= min_ops:
                return busy


def peak_rss_kb() -> int:
    """High-water resident set of this process image.

    VmHWM starts afresh at exec; getrusage's ru_maxrss would also carry the
    parent's peak across the fork.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(plan_path: str, mode: str) -> int:
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    src = Path(plan["src"]).resolve()
    sys.path.insert(0, str(src))
    import pvalent
    from pvalent import circlemax, cli, criteria, harness, series

    if src not in Path(pvalent.__file__).resolve().parents:
        print(f"pvalent was imported from {pvalent.__file__}, not from {src}", file=sys.stderr)
        return 2
    modules = {"circlemax": circlemax, "cli": cli, "criteria": criteria,
               "harness": harness, "series": series}
    client = Client(plan, modules)
    client.run_one(plan["warmup"])
    print("ready", flush=True)
    if mode == "setup":
        return 0

    import checks
    import workloads
    refs = json.loads(Path(plan["refs"]).read_text(encoding="utf-8"))
    loop = Loop(client, refs, checks.check_op, workloads.trial_seed)
    result = {}
    if mode == "loop":
        loop.run(plan["seconds"], plan["min_ops"])
    else:
        import tracing

        loop.run(plan["seconds"] / 2.0, 0)
        count = len(loop.latencies)
        tracer = tracing.Tracer()
        result["missing"] = tracing.install(tracer, modules)
        traced = loop.run(0.0, 0, count=count, tracer=tracer)
        tracer.save(plan["spans"])
        done = len(loop.latencies) - count  # fewer than count if the cap cut it short
        result.update(traced_ops=done, untraced_s=sum(loop.latencies[:done]), traced_s=traced)
    result.update(
        latencies=loop.latencies,
        cpu=loop.cpu,
        attempted=len(loop.instances),
        failed=list(loop.failed.values()),
        peak_rss_kb=peak_rss_kb(),
    )
    Path(plan["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
