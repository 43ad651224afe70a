"""Tests of the repo benchmark itself (tiny workload sizes)."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import workloads
from perfbench.tracing import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    BENCHMARK = json.load(_f)


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, RUN, *args], cwd=cwd, text=True,
                          capture_output=True, timeout=170)


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == \
        list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == \
        workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == \
        workloads.PER_LAYER


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    done = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", trace, "--tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, done.stderr
    assert result["attempted"] >= 1
    listed = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in listed}
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert all(isinstance(v, (int, float)) for v in values.values())
    if trace == "0":
        assert values["ok_frac"] == 1.0
        assert all(values[m["name"]] > 0 for m in listed)
        return
    assert values["host.fold_kernel_us"] > 0
    # The layer split each workload exists to exercise.
    if workload == "drop-heavy":
        assert values["dropping.calls"] > 0
        assert values["mapping.choice_frac"] == 0
    elif workload == "map-heavy":
        assert values["dropping.calls"] == 0
        assert values["mapping.window_mean"] > 1
    else:
        assert values["topology.transfers"] > 0
        assert values["stream.record_calls"] > 0


def test_broken_trial_output_counts_as_failed(monkeypatch):
    from repro.sim.system import HCSystem
    from repro.sim.task import TaskStatus

    original = HCSystem.run
    calls = []

    def run_then_break(self, until=None):
        result = original(self, until)
        if not calls:  # only the first trial: leave one task running
            next(iter(self.tasks.values())).status = TaskStatus.RUNNING
        calls.append(1)
        return result

    monkeypatch.setattr(HCSystem, "run", run_then_break)
    workload = workloads.WORKLOADS["drop-heavy"].tiny()
    result = workloads.measure(workload, seed=3, seconds=0)
    assert result["attempted"] == len(calls) >= 1
    assert result["failed"] == 1


def test_broken_stream_state_is_detected():
    from repro.sim.task import TaskStatus
    from repro.stream import StreamingSimulation

    workload = workloads.WORKLOADS["stream-churn"]
    service = StreamingSimulation(workload.spec(3)).run_for(workload.span)
    assert workloads.check_stream_state("intact", service) == []
    done = next(t for t in service.system.tasks.values()
                if t.status.is_terminal)
    done.status = TaskStatus.RUNNING
    assert workloads.check_stream_state("broken", service)


def test_tracer_wraps_without_changing_dispatch():
    from repro.mapping import make_heuristic
    from repro.mapping.kernel import _overrides_scores
    from repro.sim.system import HCSystem

    before = HCSystem.__dict__["handle"]
    tracer = Tracer("test")
    workloads.install_tracer(tracer)
    try:
        assert HCSystem.__dict__["handle"] is not before
        assert not _overrides_scores(make_heuristic("PAM"))
    finally:
        tracer.uninstall()
    assert HCSystem.__dict__["handle"] is before


def test_tracer_self_time_excludes_children():
    tracer = Tracer("test")
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(10_000))
    totals = tracer.totals()
    (outer_n, outer_busy, outer_self), inner = totals["outer"], totals["inner"]
    assert outer_n == inner[0] == 1
    assert outer_self == pytest.approx(outer_busy - inner[1])
    assert inner[2] == inner[1]


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "drop-heavy", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, text=True,
                          capture_output=True, timeout=170)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
