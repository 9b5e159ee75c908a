"""Tests of the benchmark itself, at tiny sizes.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository
root.
"""

from __future__ import annotations

import shutil
import subprocess
import sys

import pytest

import layers
import tracer
import workloads
from repro import on_event
from repro.sim.scheduler import Simulator

#: tiny post counts per workload; durable_crash needs a horizon long
#: enough for one crash and recovery
TINY = {"object_burst": 480, "thread_roam": 400, "durable_crash": 2_400,
        "sharded_mixed": 320}


def tiny(name: str, seed: int = 3):
    return workloads.WORKLOADS[name](seed=seed, posts=TINY[name])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_passes_outcome_checks(name):
    repeat = tiny(name).run()
    assert repeat.problems == []
    assert repeat.failed == 0
    assert repeat.posts == TINY[name]
    det = repeat.deterministic()
    assert det["latency_p50_ms"] >= 0
    assert det["latency_p999_ms"] >= det["latency_p50_ms"]


def test_durable_crash_recovers_and_drains_outbox():
    workload = tiny("durable_crash")
    assert len(workload.crashes) >= 1
    repeat = workload.run()
    assert repeat.problems == []
    assert repeat.durability["pending"] == 0
    assert repeat.durability["recoveries"] == len(workload.crashes)
    assert repeat.extra["recovery_ms"] > 0
    assert repeat.extra["detect_ms"] > 0


def test_same_seed_repeats_are_identical_and_seeds_differ():
    first = tiny("thread_roam").run().deterministic()
    assert tiny("thread_roam").run().deterministic() == first
    assert tiny("thread_roam", seed=4).tids != tiny("thread_roam").tids


@pytest.mark.parametrize("name", ["object_burst", "thread_roam",
                                  "durable_crash", "sharded_mixed"])
def test_traced_run_keeps_deterministic_figures_and_counts(name):
    untraced = tiny(name).run()
    with tracer.Recorder() as recorder:
        traced = tiny(name).run()
    exports = [("main", recorder.export())] + traced.extra.pop(
        "worker_spans", [])
    assert traced.problems == []
    assert traced.deterministic() == untraced.deterministic()
    metrics, mismatches = layers.per_layer(exports, traced, untraced)
    assert mismatches == []
    assert set(metrics) == {name for name, _unit in layers.PER_LAYER}
    assert metrics["sim.events_per_post"][0] == pytest.approx(
        traced.sim["executed"] / traced.posts)
    assert metrics["trace_overhead"][0] > 0


def test_recorder_restores_every_original():
    before = Simulator.__dict__["call_at"]
    from multiprocessing.connection import Connection
    assert "recv" not in Connection.__dict__
    with tracer.Recorder():
        assert Simulator.__dict__["call_at"] is not before
        assert tracer.active() is not None
    assert Simulator.__dict__["call_at"] is before
    assert "recv" not in Connection.__dict__
    assert tracer.active() is None


def test_self_time_arithmetic_on_a_synthetic_tree():
    names = ["step", "schedule", "raise"]
    # step [0, 10] has children schedule [1, 3] and raise [4, 9];
    # raise has a child schedule [5, 6]; a second root step [20, 21]
    spans = [  # (name id, start, end, parent)
        (0, 0.0, 10.0, -1),
        (1, 1.0, 3.0, 0),
        (2, 4.0, 9.0, 0),
        (1, 5.0, 6.0, 2),
        (0, 20.0, 21.0, -1),
    ]
    rows = tracer.self_times(names, *zip(*spans))
    assert rows["step"] == {"count": 2, "total": 11.0, "self": 4.0}
    assert rows["schedule"] == {"count": 2, "total": 3.0, "self": 3.0}
    assert rows["raise"] == {"count": 1, "total": 5.0, "self": 4.0}


def test_a_handler_running_one_post_twice_fails_the_run(monkeypatch):
    class TwiceSink(workloads.Sink):
        @on_event(workloads.EVENT)
        def on_post(self, ctx, block):
            runs = 2 if block.user_data == 7 else 1
            for _ in range(runs):
                self._ledger.record(block.user_data, 0,
                                    ctx.now - block.raised_at)
            yield ctx.compute(self._ledger.costs[block.user_data])

    monkeypatch.setattr(workloads, "Sink", TwiceSink)
    repeat = tiny("object_burst").run()
    assert repeat.failed == 1
    assert any("not run exactly once" in p for p in repeat.problems)


def test_runner_refuses_a_tree_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    shutil.copytree(workloads.__file__.rsplit("/", 1)[0], bench,
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    out = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload",
         "object_burst", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
