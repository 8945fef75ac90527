"""Tests of the benchmark itself.

Run from the root of the checkout:

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.load_checkout()

import tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import Op, expect  # noqa: E402

import quasibell as qb  # noqa: E402


class OneCycle:
    """A workload whose every cycle is the given ops."""

    def __init__(self, ops):
        self.ops = ops

    def cycle(self, index):
        return list(self.ops)


def traced_execute(workload, cycles):
    spans = tracer.Tracer()
    uninstall = tracer.install(spans)
    try:
        outcome = run.execute(workload, cycles=cycles, op_span=spans.wrap("op", lambda fn: fn()))
    finally:
        uninstall()
    return outcome, spans


def test_wrong_expectation_counts_as_failure_and_run_continues():
    def wrong(result):
        expect(result == 3, f"classical bound {result}, expected (wrongly) 3")

    def right(result):
        expect(result == 2, f"classical bound {result}")

    ops = [
        Op("good", lambda: qb.classical_bound_bruteforce(2), right),
        Op("wrong", lambda: qb.classical_bound_bruteforce(2), wrong),
        Op("raises", lambda: qb.classical_bound_bruteforce(1), right),  # n < 2 is refused
        Op("after", lambda: qb.classical_bound_bruteforce(2), right),
    ]
    outcome = run.execute(OneCycle(ops), cycles=2)
    assert outcome.kinds == ["good", "wrong", "raises", "after"] * 2
    assert [kind for kind, _ in outcome.failures] == ["wrong", "raises"] * 2
    assert len(outcome.latencies) == 8
    metrics = run.end_to_end(outcome, setup_s=1.0, peak_rss_kb=1024)
    assert metrics["ok_rate"] == pytest.approx(0.5)


@pytest.mark.parametrize("name", ["sweep", "exact", "oracle"])
def test_traced_replay_runs_the_same_ops(name):
    untraced = run.execute(run.make_workload(name, seed=5), cycles=2)
    traced, spans = traced_execute(run.make_workload(name, seed=5), cycles=2)
    assert traced.kinds == untraced.kinds
    assert traced.failures == untraced.failures == []
    assert spans.stats["op"][0] == len(untraced.kinds)
    assert not hasattr(qb.assemble_behavior, "__wrapped__")  # uninstalled


def test_same_seed_same_inputs():
    first, second = workloads.Sweep(9), workloads.Sweep(9)
    run.execute(first, cycles=2)
    run.execute(second, cycles=2)
    assert first.models_built == second.models_built

    def kinds(seed):
        return [op.kind for op in workloads.Exact(seed).cycle(4)]

    assert kinds(3) == kinds(3)
    assert kinds(3) != kinds(4)


def test_tracer_accounts_for_op_time():
    outcome, spans = traced_execute(workloads.Exact(1), cycles=3)
    metrics = run.per_layer(spans, outcome, outcome, workloads.Exact(1), interpreter_s=0.0)
    assert set(metrics) == {name for name, _, _, _ in run.PER_LAYER}
    assert metrics["trace.unaccounted_share"] <= run.UNACCOUNTED_BOUND
    assert metrics["core.self_share"] > 0.5


def test_timings_are_scaled_by_the_measured_machine_speed():
    outcome = run.execute(workloads.Exact(2), cycles=2, reference=True)
    assert outcome.reference
    slowdown = outcome.slowdown()
    metrics = run.end_to_end(outcome, setup_s=1.0, peak_rss_kb=1024)
    raw = len(outcome.latencies) / sum(outcome.latencies)
    assert metrics["ops_per_s"] == pytest.approx(raw * slowdown)
    assert metrics["op_p50_ms"] * slowdown == pytest.approx(
        sorted(outcome.latencies)[len(outcome.latencies) // 2] * 1e3, rel=0.5)
    assert run.execute(workloads.Exact(2), cycles=1).slowdown() == 1.0


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in run.PER_LAYER
    ]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_cli_traced_child_behaves_like_the_cli(tmp_path):
    untraced = run.execute(workloads.Cli(2, ROOT, tmp_path), cycles=1)
    replay = workloads.Cli(2, ROOT, tmp_path, traced=True)
    traced = run.execute(replay, cycles=1)
    assert traced.kinds == untraced.kinds
    assert traced.failures == untraced.failures
    assert {kind for kind, _ in untraced.failures} <= set(workloads.KNOWN_DEFECTS)
    ops = [child["op"] for child in replay.child_spans]
    assert ops == [kind[len("cli."):] for kind in traced.kinds]
    assert all(child["importtime"].get("scipy.optimize", 0) > 0 for child in replay.child_spans)


def test_refuses_to_run_without_the_library(tmp_path):
    ignore = shutil.ignore_patterns("__pycache__", ".work")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    command = [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
               "--seconds", "1", "--trace", "0"]
    done = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    assert done.stdout == ""
