"""Tests of the benchmark itself: tiny smoke runs, the checker and tracing.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types

import numpy as np
import pytest

import checks
import run
import tracing
import workloads
from worker import Loop

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload so a run takes about a second."""
    monkeypatch.setattr(workloads, "CHECK_CRITERIA", ("member-n", "thm211", "nec-m"))
    monkeypatch.setattr(workloads, "CHECK_DEGREES", {8: 1})
    monkeypatch.setattr(workloads, "CHECK_REDUCED_GRID", (("member-m", 40, 16),))
    monkeypatch.setattr(
        workloads, "COEFF_SLOTS", {("suff-n", 30): 1, ("suff-m", 30): 1, ("apply", 30): 1,
                                   ("construct", 30): 1},
    )
    monkeypatch.setattr(
        workloads, "SUITE_MIX", {"weight_exactness": 1, "oracle_agreement": 1,
                                 "thm_2_11_implication": 1},
    )
    monkeypatch.setattr(run, "MIN_OPS", 12)
    monkeypatch.setattr(run, "SETUP_RUNS", 2)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_prints_every_metric_with_its_unit(tiny, capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.1",
                     "--trace", str(trace)])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    # a cycle of the tiny plans has four slots (three on suite_mix); suite_mix
    # gives every run a fresh trial, the others keep one input per slot
    if workload != "suite_mix":
        assert result["attempted"] == 4
    else:
        assert result["attempted"] >= (3 if trace else run.MIN_OPS)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert f"{metric['name']} {entry['value']!r} {metric['unit']}" in lines
    assert any(line.startswith("error_rate ") for line in lines)
    assert any(line.startswith("machine: nproc=") for line in lines)


def _member_op(tmp_path):
    rng = np.random.default_rng(7)
    op = workloads.check_op(rng, "member-n", 16, None, tmp_path, "t")
    ref = op["ref"]
    lo, _ = ref["sup"]
    holds = lo < ref["delta"]
    suff = ref["sum"] <= ref["sum_thr"]
    doc = {
        "verdict": {"holds": holds, "lhs": lo, "threshold": ref["delta"], "falsification": False},
        "sufficient_side": {"holds": suff, "lhs": ref["sum"], "threshold": ref["sum_thr"],
                            "falsification": False},
        "falsification": False,
    }
    return op, {"code": 0 if holds else 1, "stdout": "", "doc": doc}


def test_checker_accepts_reference_output(tmp_path):
    op, outcome = _member_op(tmp_path)
    assert checks.check_op(op["ref"], outcome) == []


def test_checker_flags_wrong_verdict_and_low_supremum(tmp_path):
    op, good = _member_op(tmp_path)
    wrong = json.loads(json.dumps(good))
    wrong["doc"]["verdict"]["holds"] = not good["doc"]["verdict"]["holds"]
    wrong["code"] = 1 - good["code"]
    classes = {cls for cls, _ in checks.check_op(op["ref"], wrong)}
    assert "verdict" in classes and not classes <= checks.KNOWN_DEFECTS

    low = json.loads(json.dumps(good))
    low["doc"]["verdict"]["lhs"] *= 0.99
    assert [cls for cls, _ in checks.check_op(op["ref"], low)] == ["sup_low"]

    crashed = {"exception": "Traceback ...\nOverflowError: integer division result too large"}
    assert [cls for cls, _ in checks.check_op(op["ref"], crashed)] == ["exception"]


def _scripted_client(plan, outcomes):
    class Client:
        trials = []

        def run_one(self, op, tracer=None):
            self.trials.append(op.get("trial"))
            return 0.001, 0.001, next(outcomes)

    Client.plan = plan
    return Client()


def test_loop_counts_a_failed_instance_once(tmp_path):
    op, good = _member_op(tmp_path)
    wrong = json.loads(json.dumps(good))
    wrong["doc"]["verdict"]["holds"] = not good["doc"]["verdict"]["holds"]
    client = _scripted_client({"ops": [op]}, iter([good, wrong, wrong]))
    loop = Loop(client, [op["ref"]], checks.check_op)
    loop.run(0.0, 0, count=3)
    assert len(loop.latencies) == 3
    assert loop.instances == {0}
    assert [record["index"] for record in loop.failed.values()] == [1]


def test_fresh_loop_counts_every_run_and_replays_its_trials():
    op = {"kind": "suite", "name": "s", "suite": "s", "seed": 5}
    ok = {"trials": 1, "failures": 0, "first": None}
    bad = {"trials": 1, "failures": 1, "first": {"trial": 0}}
    client = _scripted_client({"ops": [op, op], "fresh": True}, iter([ok, bad, ok, ok, bad]))
    loop = Loop(client, [{"type": "suite"}] * 2, checks.check_op, workloads.trial_seed)
    loop.run(0.0, 0, count=3)
    loop.run(0.0, 0, count=2)
    assert client.trials == [workloads.trial_seed(5, i) for i in (0, 1, 2, 0, 1)]
    assert loop.instances == {0, 1, 2}
    assert [record["index"] for record in loop.failed.values()] == [1]


def test_sup_enclosure_contains_the_maximum():
    for degree in (1, 7, 300):
        coeffs = np.zeros(degree + 1, dtype=complex)
        coeffs[0] = coeffs[degree] = 1.0  # |1 + z^d| peaks at 2
        lo, hi = workloads.sup_enclosure(coeffs)
        assert lo <= 2.0 <= hi
        assert hi - lo < 1e-4


def test_missing_target_leaves_its_layer_out():
    modules = {name: types.ModuleType(name) for name in ("cli", "criteria", "series", "harness")}
    modules["criteria"].max_modulus_on_circle = lambda coeffs, grid=4096: (abs(coeffs[0]), 0.0)
    tracer = tracing.Tracer()
    missing = tracing.install(tracer, modules)
    assert "criteria.max_modulus_on_circle" not in missing
    assert "harness.max_modulus_on_circle" in missing
    op = tracer.open("op")
    modules["criteria"].max_modulus_on_circle([3.0, 1.0], grid=64)
    tracer.close(op)
    spans = {
        "name": np.frombuffer(tracer.name, dtype=np.int8),
        "parent": np.frombuffer(tracer.parent, dtype=np.int32),
        "start": np.frombuffer(tracer.start), "end": np.frombuffer(tracer.end),
        "counter_names": np.array(sorted(tracer.counters)),
        "counter_values": np.array([tracer.counters[k] for k in sorted(tracer.counters)]),
    }
    metrics = tracing.summarize(spans, 1, missing)
    assert "circlemax.sup_calls" not in metrics and "cli.load_ms" not in metrics

    metrics = tracing.summarize(spans, 1, ["harness.sup_oracle"])
    assert metrics["circlemax.sup_calls"] == 1.0
    assert metrics["circlemax.grid_points"] == 64.0
    assert metrics["circlemax.degree_sum"] == 1.0
    assert "harness.oracle_ms" not in metrics


def test_fails_without_the_package_source(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "suite_mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert not (tmp_path / ".bench_work").exists() or not any((tmp_path / ".bench_work").iterdir())
