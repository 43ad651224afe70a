"""The benchmark's workloads, their output checks and their measurements.

The entry points (:func:`measure`, :func:`trace`, :func:`setup_probe`) run
inside fresh worker processes started by ``perfbench/run.py``; the program
is driven only through its public entry points (``TrialSpec``/``run_trial`` for batch trials,
``StreamingSimulation`` for the service).

A run is a sequence of *operations* -- one batch trial, or one ``run_for``
span of the service -- and every operation is checked.  An operation that
raises, or whose output fails a check, counts as failed.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from perfbench.hostspeed import HostSpeed
from perfbench.tracing import Tracer, percentile

__all__ = ["BatchWorkload", "StreamWorkload", "WORKLOADS", "END_TO_END",
           "PER_LAYER", "EXACT_COUNTS", "measure", "trace", "setup_probe",
           "fold_kernel_us"]

#: End-to-end metrics (tracing off) and their units.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "tasks_per_s": "1/s",
    "robustness_pct": "%",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}

#: Per-layer metrics (traced run) and their units.
PER_LAYER: Dict[str, str] = {
    "sim.events": "count",
    "sim.event_p50_us": "us",
    "sim.event_p99_us": "us",
    "sim.self_s": "s",
    "sim.tail_cache_hit_rate": "frac",
    "mapping.calls": "count",
    "mapping.busy_s": "s",
    "mapping.self_s": "s",
    "mapping.window_mean": "count",
    "mapping.choice_frac": "frac",
    "mapping.assign_per_call": "count",
    "mapping.plane_evals": "count",
    "dropping.calls": "count",
    "dropping.busy_s": "s",
    "dropping.self_s": "s",
    "dropping.drops_per_call": "count",
    "dropping.cache_hit_rate": "frac",
    "completion.fold_calls": "count",
    "completion.fold_s": "s",
    "completion.chance_s": "s",
    "completion.mean_s": "s",
    "completion.memo_hit_rate": "frac",
    "completion.pmf_folds": "count",
    "pmf.intern_hit_rate": "frac",
    "workload.build_s": "s",
    "metrics.collect_s": "s",
    "stream.record_calls": "count",
    "stream.record_s": "s",
    "stream.chunk_p50_ms": "ms",
    "stream.chunk_p90_ms": "ms",
    "stream.snapshot_ms": "ms",
    "stream.snapshot_bytes": "bytes",
    "stream.restore_ms": "ms",
    "topology.transfers": "count",
    "topology.transfer_wait": "count",
    "faults.crashes": "count",
    "faults.requeued": "count",
    "host.fold_kernel_us": "us",
    "trace.overhead_pct": "%",
}

#: Outputs that must repeat exactly for a seed: across repeats of an
#: operation and between the traced and untraced runs.
EXACT_COUNTS = ("robustness_pct", "sim.events", "completion.pmf_folds",
                "dropping.calls", "mapping.plane_evals", "topology.transfers",
                "faults.crashes")

#: Span names of the wrapped fold-kernel methods, by metric.
_FOLD_SPANS = ("completion.fold", "completion.fold_chain",
               "completion.fold_batch")
_CHANCE_SPANS = ("completion.chance", "completion.append_chance")
_MEAN_SPANS = ("completion.mean", "completion.append_mean")


@dataclass(frozen=True)
class BatchWorkload:
    """Batch trials of the ``spec`` scenario, whole task set up front.

    A run covers ``trials`` scenarios seeded ``seed * trials + k``; each is
    built once and simulated with ``run_trial``.
    """

    name: str
    dropper: str
    gamma: float
    batch_window: int
    scale: float
    trials: int

    def specs(self, seed: int) -> List[Any]:
        from repro.experiments.runner import TrialSpec
        return [TrialSpec(scenario_name="spec", level="40k",
                          scale=self.scale, gamma=self.gamma,
                          queue_capacity=6, seed=seed * self.trials + k,
                          mapper_name="PAM", dropper_name=self.dropper,
                          batch_window=self.batch_window)
                for k in range(self.trials)]

    def tiny(self) -> "BatchWorkload":
        return replace(self, scale=0.004, trials=1)


@dataclass(frozen=True)
class StreamWorkload:
    """A streaming service advanced in fixed simulated spans.

    One *session* builds the service and advances it ``spans`` times by
    ``span`` time units, snapshotting it every ``snapshot_every`` spans.
    """

    name: str
    spans: int
    span: int
    snapshot_every: int
    roundtrip_spans: int

    def spec(self, seed: int) -> Any:
        from repro.stream import StreamSpec
        return StreamSpec(scenario_name="spec", traffic_name="burst",
                          oversubscription=1.55, mapper_name="PAM",
                          dropper_name="heuristic",
                          faults_name="crash-restart",
                          topology_name="tiered-edge-cloud",
                          topology_params=(("bandwidth", 48.0),
                                           ("latency", 2),
                                           ("task_bytes", 192)),
                          seed=seed)

    def tiny(self) -> "StreamWorkload":
        return replace(self, spans=6, snapshot_every=3, roundtrip_spans=2)


WORKLOADS: Dict[str, Any] = {
    w.name: w for w in (
        BatchWorkload(name="drop-heavy", dropper="heuristic", gamma=1.0,
                      batch_window=32, scale=0.05, trials=2),
        # Three scenarios: how far the batch queue backs up, and so the
        # cost of a task, varies from seed to seed far more here.
        BatchWorkload(name="map-heavy", dropper="react", gamma=5.0,
                      batch_window=64, scale=0.05, trials=3),
        StreamWorkload(name="stream-churn", spans=100, span=500,
                       snapshot_every=10, roundtrip_spans=5),
    )
}


# ----------------------------------------------------------------------
# Operation ledger and output checks
# ----------------------------------------------------------------------
class Ledger:
    """Counts operations and the ones that failed, with the reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, problems: List[str]) -> bool:
        """Count one operation; print and count it as failed on problems."""
        self.attempted += 1
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"check failed: {problem}", file=sys.stderr)
        return not problems

    def attempt(self, label: str, op: Callable[[], Any]
                ) -> Tuple[Optional[Any], Optional[str]]:
        """Run ``op``; an exception is returned as a problem, not raised."""
        try:
            return op(), None
        except Exception:  # the benchmark keeps running and counts it
            traceback.print_exc(file=sys.stderr)
            return None, f"{label} raised {sys.exc_info()[1]!r}"


def exact_counts(metrics: Any) -> Dict[str, float]:
    """The outputs of one operation that must repeat exactly."""
    perf = metrics.perf
    return {
        "robustness_pct": metrics.robustness_pct,
        "sim.events": perf.events_dispatched,
        "completion.pmf_folds": perf.pmf_folds,
        "dropping.calls": perf.drop_evaluations,
        "mapping.plane_evals": perf.plane_evals,
        "topology.transfers": (metrics.transfers.transfers
                               if metrics.transfers is not None else 0),
        "faults.crashes": (metrics.churn.crashes
                           if metrics.churn is not None else 0),
    }


def compare_counts(label: str, got: Optional[Dict[str, float]],
                   want: Optional[Dict[str, float]]) -> List[str]:
    """Differences of ``got`` from the reference counts ``want`` (if any)."""
    if want is None:
        return []
    if got is None:
        return [f"{label}: the operation produced no counts"]
    return [f"{label}: {key} is {got[key]!r}, expected {want[key]!r}"
            for key in EXACT_COUNTS if got[key] != want[key]]


def check_batch_trial(label: str, result: Any, arrivals: int) -> List[str]:
    """Every arrival of a finished trial ends in exactly one terminal state."""
    from repro.metrics.collector import collect_trial_metrics
    report = collect_trial_metrics(result, warmup=0, cooldown=0).robustness
    problems = []
    if report.total_tasks != arrivals:
        problems.append(f"{label}: {report.total_tasks} tasks recorded, "
                        f"{arrivals} arrived")
    ended = (report.on_time + report.completed_late + report.dropped_reactive
             + report.dropped_proactive + report.expired_batch)
    if ended != arrivals:
        problems.append(f"{label}: {ended} of {arrivals} arrivals reached a "
                        f"terminal state")
    return problems


def check_stream_state(label: str, service: Any) -> List[str]:
    """Terminal plus in-flight tasks equal the submitted tasks.

    Terminal tasks are counted from task states, in-flight tasks from the
    batch queue and the machine queues, so a task lost between the two (or
    held in two places) shows as a mismatch.
    """
    system = service.system
    submitted = len(system.tasks)
    ended = sum(1 for task in system.tasks.values() if task.status.is_terminal)
    in_flight = len(system.batch_queue) + sum(m.occupancy
                                              for m in system.machines)
    if ended + in_flight != submitted:
        return [f"{label}: {ended} terminal + {in_flight} in flight != "
                f"{submitted} submitted"]
    return []


class ResultCapture:
    """Keeps the last ``SimulationResult`` that ``run_trial`` collected.

    ``run_trial`` returns only the collected metrics; the terminal-state
    check needs every task, so the module-level ``collect_trial_metrics``
    that ``run_trial`` calls is routed through a hook that keeps a
    reference to its argument and changes nothing else.
    """

    def __init__(self) -> None:
        from repro.experiments import runner
        self._module = runner
        self._original = runner.collect_trial_metrics
        self.result: Any = None
        original = self._original

        def collect(result: Any, *args: Any, **kwargs: Any) -> Any:
            self.result = result
            return original(result, *args, **kwargs)

        runner.collect_trial_metrics = collect

    def take(self) -> Any:
        result, self.result = self.result, None
        return result

    def close(self) -> None:
        self._module.collect_trial_metrics = self._original


# ----------------------------------------------------------------------
# Host calibration
# ----------------------------------------------------------------------
def fold_kernel_us() -> float:
    """Median time of one fixed ``completion_pmf`` call, in microseconds.

    The operands never change, so this separates a slow host from a slow
    program.  Timed in 15 batches of 200 calls.
    """
    import numpy as np
    from repro.core.completion import completion_pmf
    from repro.core.pmf import PMF

    rng = np.random.default_rng(12345)
    weights = rng.random(240)
    prev = PMF(1_000, weights / weights.sum())
    weights = rng.random(60)
    exec_pmf = PMF(30, weights / weights.sum())
    deadline = 1_150
    completion_pmf(prev, exec_pmf, deadline)
    per_call = []
    for _ in range(15):
        start = time.perf_counter()
        for _ in range(200):
            completion_pmf(prev, exec_pmf, deadline)
        per_call.append((time.perf_counter() - start) / 200)
    return statistics.median(per_call) * 1e6


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Set-up probe
# ----------------------------------------------------------------------
class _FirstEvent(Exception):
    """Raised by the probe hook when the simulator dispatches its first event."""


def setup_probe(workload: Any, seed: int) -> None:
    """Build the workload and construct the system, stopping at its first
    event (the caller times this from process start)."""
    from repro.sim.system import HCSystem

    def first_event(self: Any, event: Any, engine: Any) -> None:
        raise _FirstEvent()

    HCSystem.handle = first_event
    try:
        if isinstance(workload, BatchWorkload):
            from repro.experiments.runner import (build_scenario_for_spec,
                                                  run_trial)
            spec = workload.specs(seed)[0]
            run_trial(spec, build_scenario_for_spec(spec))
        else:
            from repro.stream import StreamingSimulation
            StreamingSimulation(workload.spec(seed)).run_for(workload.span)
    except _FirstEvent:
        return
    raise RuntimeError("the workload finished without dispatching an event")


# ----------------------------------------------------------------------
# Traced layers
# ----------------------------------------------------------------------
def install_tracer(tracer: Tracer) -> None:
    """Wrap the public calls at each layer boundary (class level)."""
    from repro.core.completion import ChainFolder
    from repro.core.dropping import (NoProactiveDropping,
                                     ProactiveHeuristicDropping)
    from repro.experiments import runner
    from repro.mapping.base import TwoPhaseMappingHeuristic
    from repro.sim.system import HCSystem
    from repro.stream import service
    from repro.stream.live_metrics import LiveMetrics

    def mapping_call(args: tuple, result: Any) -> Dict[str, float]:
        window = len(args[1])
        return {"mapping.window": window,
                "mapping.choice": 1.0 if window > 1 else 0.0,
                "mapping.assigned": len(result)}

    def drop_call(args: tuple, result: Any) -> Dict[str, float]:
        return {"dropping.drops": len(result.drop_indices)}

    tracer.wrap(HCSystem, "handle", "sim.handle")
    tracer.wrap(TwoPhaseMappingHeuristic, "map_tasks", "mapping.map_tasks",
                observe=mapping_call)
    for policy in (ProactiveHeuristicDropping, NoProactiveDropping):
        tracer.wrap(policy, "evaluate_queue", "dropping.evaluate_queue",
                    observe=drop_call)
    for method in ("fold", "fold_chain", "fold_batch", "chance",
                   "append_chance", "mean", "append_mean"):
        tracer.wrap(ChainFolder, method, f"completion.{method}")
    tracer.wrap(runner, "collect_trial_metrics", "metrics.collect")
    tracer.wrap(service, "collect_trial_metrics", "metrics.collect")
    tracer.wrap(LiveMetrics, "record", "stream.record")
    tracer.wrap(service.StreamingSimulation, "run_for", "stream.run_for")
    tracer.wrap(service.StreamingSimulation, "snapshot", "stream.snapshot")
    tracer.wrap(service.StreamingSimulation, "restore", "stream.restore")


def layer_metrics(tracer: Tracer, metrics: Any) -> Dict[str, float]:
    """Per-layer metrics of one traced operation."""
    perf = metrics.perf
    obs = tracer.observations
    totals = tracer.totals()

    def count(name: str) -> int:
        return totals[name][0] if name in totals else 0

    def busy(*names: str) -> float:
        return sum(totals[n][1] for n in names if n in totals)

    def self_time(*names: str) -> float:
        return sum(totals[n][2] for n in names if n in totals)

    def mean(key: str) -> float:
        return statistics.fmean(obs[key]) if obs.get(key) else 0.0

    handle_us = [d * 1e6 for d in tracer.durations("sim.handle")]
    fold_calls = count("completion.fold")
    drop_lookups = perf.drop_cache_hits + perf.drop_evaluations
    transfers, churn = metrics.transfers, metrics.churn
    return {
        "sim.events": len(handle_us),
        "sim.event_p50_us": percentile(handle_us, 50),
        "sim.event_p99_us": percentile(handle_us, 99),
        "sim.self_s": self_time("sim.handle"),
        "sim.tail_cache_hit_rate": perf.tail_cache_hit_rate,
        "mapping.calls": count("mapping.map_tasks"),
        "mapping.busy_s": busy("mapping.map_tasks"),
        "mapping.self_s": self_time("mapping.map_tasks"),
        "mapping.window_mean": mean("mapping.window"),
        "mapping.choice_frac": mean("mapping.choice"),
        "mapping.assign_per_call": mean("mapping.assigned"),
        "mapping.plane_evals": perf.plane_evals,
        "dropping.calls": count("dropping.evaluate_queue"),
        "dropping.busy_s": busy("dropping.evaluate_queue"),
        "dropping.self_s": self_time("dropping.evaluate_queue"),
        "dropping.drops_per_call": mean("dropping.drops"),
        "dropping.cache_hit_rate": (perf.drop_cache_hits / drop_lookups
                                    if drop_lookups else 0.0),
        "completion.fold_calls": fold_calls,
        "completion.fold_s": self_time(*_FOLD_SPANS),
        "completion.chance_s": self_time(*_CHANCE_SPANS),
        "completion.mean_s": self_time(*_MEAN_SPANS),
        "completion.memo_hit_rate": (perf.fold_memo_hits / fold_calls
                                     if fold_calls else 0.0),
        "completion.pmf_folds": perf.pmf_folds,
        "pmf.intern_hit_rate": perf.intern_hit_rate,
        "workload.build_s": busy("workload.build"),
        "metrics.collect_s": busy("metrics.collect"),
        "stream.record_calls": count("stream.record"),
        "stream.record_s": busy("stream.record"),
        "topology.transfers": transfers.transfers if transfers else 0,
        "topology.transfer_wait": transfers.wait if transfers else 0,
        "faults.crashes": churn.crashes if churn else 0,
        "faults.requeued": churn.requeued_tasks if churn else 0,
    }


def check_trace(label: str, layers: Dict[str, float],
                counts: Optional[Dict[str, float]]) -> List[str]:
    """The wrappers saw every call the program's own counters report."""
    if counts is None:
        return [f"{label}: the traced operation produced no counts"]
    return [f"{label}: traced {key} {layers[key]} != counted {counts[key]}"
            for key in ("sim.events", "dropping.calls")
            if layers[key] != counts[key]]


def median_layers(runs: List[Dict[str, float]]) -> Dict[str, float]:
    return {key: statistics.median(run[key] for run in runs)
            for key in runs[0]}


# ----------------------------------------------------------------------
# Batch workloads
# ----------------------------------------------------------------------
class _BatchRunner:
    """Runs and checks the trials of one batch workload for one seed."""

    def __init__(self, workload: BatchWorkload, seed: int, trials: int,
                 tracer: Optional[Tracer] = None):
        from repro.experiments.runner import build_scenario_for_spec
        self.specs = workload.specs(seed)[:trials]
        self.scenarios = []
        for spec in self.specs:
            if tracer is not None:
                with tracer.span("workload.build"):
                    self.scenarios.append(build_scenario_for_spec(spec))
            else:
                self.scenarios.append(build_scenario_for_spec(spec))
        self.ledger = Ledger()
        self.capture = ResultCapture()
        self.first: Dict[int, Dict[str, float]] = {}
        self.robustness: Dict[int, Any] = {}
        #: (start, end) of every trial that passed its checks, by scenario.
        self.intervals: Dict[int, List[Tuple[float, float]]] = {
            k: [] for k in range(len(self.specs))}

    def run(self, k: int) -> Tuple[Optional[Any], float]:
        """One checked trial of scenario ``k``; returns (metrics, seconds)."""
        from repro.experiments.runner import run_trial
        label = f"trial {self.specs[k].seed}"
        start = time.perf_counter()
        metrics, error = self.ledger.attempt(
            label, lambda: run_trial(self.specs[k], self.scenarios[k]))
        end = time.perf_counter()
        result = self.capture.take()
        if error is not None:
            self.ledger.record([error])
            return None, end - start
        problems = check_batch_trial(label, result,
                                     self.scenarios[k].num_tasks)
        counts = exact_counts(metrics)
        problems += compare_counts(label, counts, self.first.get(k))
        self.first.setdefault(k, counts)
        self.robustness.setdefault(k, metrics.robustness)
        if self.ledger.record(problems):
            self.intervals[k].append((start, end))
        return metrics, end - start

    def close(self) -> None:
        self.capture.close()


def _measure_batch(workload: BatchWorkload, seed: int,
                   seconds: float) -> Dict[str, Any]:
    runner = _BatchRunner(workload, seed, workload.trials)
    n = len(runner.specs)
    try:
        with HostSpeed() as host:
            start = time.perf_counter()
            done = 0
            # One full pass over the scenarios, then repeats from the first
            # one while the next trial is still expected to end in budget.
            while True:
                runner.run(done % n)
                done += 1
                spent = time.perf_counter() - start
                if done >= n and spent + spent / done > seconds:
                    break
    finally:
        runner.close()
    timed = [k for k in range(n) if runner.intervals[k]]
    tasks = sum(runner.scenarios[k].num_tasks for k in timed)
    busy = sum(statistics.median(host.reference_seconds(*span)
                                 for span in runner.intervals[k])
               for k in timed)
    wall = sum(statistics.median(end - begin
                                 for begin, end in runner.intervals[k])
               for k in timed)
    reports = list(runner.robustness.values())
    measured = sum(r.measured_tasks for r in reports)
    return {
        "attempted": runner.ledger.attempted,
        "failed": runner.ledger.failed,
        "metrics": {
            "tasks_per_s": tasks / busy if busy else 0.0,
            "robustness_pct": (100.0 * sum(r.on_time for r in reports)
                               / measured if measured else 0.0),
            "peak_rss_mb": peak_rss_mb(),
        },
        "wall_tasks_per_s": tasks / wall if wall else 0.0,
        "host_kernel_ms": host.mean_kernel_s() * 1e3,
    }


#: Per-layer metrics only the stream workload produces.
_STREAM_ONLY = ("stream.chunk_p50_ms", "stream.chunk_p90_ms",
                "stream.snapshot_ms", "stream.snapshot_bytes",
                "stream.restore_ms")


def _trace_batch(workload: BatchWorkload, seed: int, seconds: float,
                 spans_path: Optional[str]) -> Dict[str, Any]:
    build = Tracer(f"{workload.name}-{seed}-build")
    runner = _BatchRunner(workload, seed, 1, tracer=build)
    if spans_path is not None:
        build.write(spans_path)
    label = f"trial {runner.specs[0].seed}"
    plain_times: List[float] = []
    traced_times: List[float] = []
    layers: List[Dict[str, float]] = []
    start = time.perf_counter()
    try:
        # Alternate untraced and traced repeats of the same trial.
        while (not traced_times or time.perf_counter() - start
               + plain_times[-1] + traced_times[-1] <= seconds):
            _, elapsed = runner.run(0)
            plain_times.append(elapsed)
            tracer = Tracer(f"{workload.name}-{seed}-{len(traced_times)}")
            install_tracer(tracer)
            try:
                metrics, elapsed = runner.run(0)
            finally:
                tracer.uninstall()
            traced_times.append(elapsed)
            if metrics is None:
                continue
            layer = layer_metrics(tracer, metrics)
            runner.ledger.record(check_trace(label, layer,
                                             exact_counts(metrics)))
            layers.append(layer)
            if spans_path is not None:
                tracer.write(spans_path)
    finally:
        runner.close()
    result = (median_layers(layers) if layers
              else {key: 0.0 for key in PER_LAYER})
    result["workload.build_s"] = build.totals()["workload.build"][1]
    result.update({key: 0.0 for key in _STREAM_ONLY})
    result["trace.overhead_pct"] = 100.0 * (
        statistics.median(traced_times) / statistics.median(plain_times) - 1)
    return {"attempted": runner.ledger.attempted,
            "failed": runner.ledger.failed, "metrics": result}


# ----------------------------------------------------------------------
# Stream workload
# ----------------------------------------------------------------------
@dataclass
class _Session:
    """One service advanced through the workload's spans."""

    service: Any
    tasks: int = 0
    #: (start, end) of every span that passed its checks.
    spans: List[Tuple[float, float]] = field(default_factory=list)
    snapshot_times: List[float] = field(default_factory=list)
    snapshot_bytes: int = 0
    counts: Optional[Dict[str, float]] = None


def _stream_session(workload: StreamWorkload, seed: int, ledger: Ledger,
                    tracer: Optional[Tracer] = None) -> _Session:
    """Build the service and advance it span by span, checking each span."""
    from repro.stream import StreamingSimulation
    spec = workload.spec(seed)
    if tracer is not None:
        with tracer.span("workload.build"):
            service = StreamingSimulation(spec)
    else:
        service = StreamingSimulation(spec)
    session = _Session(service)
    for index in range(workload.spans):
        label = f"seed {seed} span {index}"
        start = time.perf_counter()
        _, error = ledger.attempt(label,
                                  lambda: service.run_for(workload.span))
        end = time.perf_counter()
        if error is not None:
            ledger.record([error])
            return session
        if ledger.record(check_stream_state(label, service)):
            session.spans.append((start, end))
        if (index + 1) % workload.snapshot_every == 0:
            start = time.perf_counter()
            payload = json.dumps(service.snapshot())
            session.snapshot_times.append(time.perf_counter() - start)
            session.snapshot_bytes = len(payload)
    session.tasks = len(service.system.tasks)
    session.counts = exact_counts(service.metrics())
    return session


def _roundtrip(workload: StreamWorkload, service: Any,
               ledger: Ledger) -> float:
    """Restore a snapshot of ``service``, advance both equally, compare.

    Returns the restore time in milliseconds.
    """
    from repro.stream import StreamingSimulation
    payload = json.loads(json.dumps(service.snapshot()))
    start = time.perf_counter()
    restored, error = ledger.attempt(
        "restore", lambda: StreamingSimulation.restore(payload))
    restore_ms = (time.perf_counter() - start) * 1e3
    if error is not None:
        ledger.record([error])
        return restore_ms

    def advance() -> List[str]:
        for _ in range(workload.roundtrip_spans):
            service.run_for(workload.span)
            restored.run_for(workload.span)
        problems = []
        if service.metrics() != restored.metrics():
            problems.append("restored service metrics diverged")
        if service.timeline() != restored.timeline():
            problems.append("restored service timeline diverged")
        return problems

    problems, error = ledger.attempt("round trip", advance)
    ledger.record([error] if error is not None else problems)
    return restore_ms


def _robustness(session: _Session) -> float:
    return session.counts["robustness_pct"] if session.counts else 0.0


def _wall_seconds(session: _Session) -> float:
    return sum(end - start for start, end in session.spans)


def _stream_summary(sessions: List[_Session]) -> Dict[str, float]:
    spans_ms = [(end - start) * 1e3 for s in sessions
                for start, end in s.spans]
    snaps_ms = [t * 1e3 for s in sessions for t in s.snapshot_times]
    return {
        "robustness_pct": _robustness(sessions[0]),
        "stream.chunk_p50_ms": percentile(spans_ms, 50),
        "stream.chunk_p90_ms": percentile(spans_ms, 90),
        "stream.snapshot_ms": statistics.median(snaps_ms) if snaps_ms else 0.0,
        "stream.snapshot_bytes": sessions[0].snapshot_bytes,
    }


def _measure_stream(workload: StreamWorkload, seed: int,
                    seconds: float) -> Dict[str, Any]:
    ledger = Ledger()
    sessions: List[_Session] = []
    with HostSpeed() as host:
        start = time.perf_counter()
        while True:
            session = _stream_session(workload, seed, ledger)
            if sessions:
                ledger.record(compare_counts(f"seed {seed} repeat",
                                             session.counts,
                                             sessions[0].counts))
                session.service = None  # keep at most two services alive
            sessions.append(session)
            spent = time.perf_counter() - start
            if spent + spent / len(sessions) > seconds:
                break
    _roundtrip(workload, sessions[0].service, ledger)
    busy = [sum(host.reference_seconds(*span) for span in s.spans)
            for s in sessions]
    wall = [_wall_seconds(s) for s in sessions]
    return {
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            "tasks_per_s": statistics.median(
                s.tasks / b if b else 0.0 for s, b in zip(sessions, busy)),
            "robustness_pct": _robustness(sessions[0]),
            "peak_rss_mb": peak_rss_mb(),
        },
        "wall_tasks_per_s": statistics.median(
            s.tasks / w if w else 0.0 for s, w in zip(sessions, wall)),
        "host_kernel_ms": host.mean_kernel_s() * 1e3,
    }


def _trace_stream(workload: StreamWorkload, seed: int,
                  spans_path: Optional[str]) -> Dict[str, Any]:
    """One untraced and one traced session (the budget does not apply)."""
    ledger = Ledger()
    plain = _stream_session(workload, seed, ledger)
    plain.service = None
    tracer = Tracer(f"{workload.name}-{seed}")
    install_tracer(tracer)
    try:
        traced = _stream_session(workload, seed, ledger, tracer=tracer)
        layers = layer_metrics(tracer, traced.service.metrics())
        restore_ms = _roundtrip(workload, traced.service, ledger)
    finally:
        tracer.uninstall()
    label = f"seed {seed} traced"
    ledger.record(compare_counts(label, traced.counts, plain.counts)
                  + check_trace(label, layers, traced.counts))
    if spans_path is not None:
        tracer.write(spans_path)
    summary = _stream_summary([plain])
    layers.update({key: summary[key] for key in _STREAM_ONLY
                   if key in summary})
    layers["stream.restore_ms"] = restore_ms
    plain_s = _wall_seconds(plain)
    layers["trace.overhead_pct"] = (
        100.0 * (_wall_seconds(traced) / plain_s - 1) if plain_s else 0.0)
    return {"attempted": ledger.attempted, "failed": ledger.failed,
            "metrics": layers}


# ----------------------------------------------------------------------
# Entry points used by the worker
# ----------------------------------------------------------------------
def measure(workload: Any, seed: int, seconds: float) -> Dict[str, Any]:
    """Untraced run: end-to-end metrics except ``setup_s``."""
    if isinstance(workload, BatchWorkload):
        result = _measure_batch(workload, seed, seconds)
    else:
        result = _measure_stream(workload, seed, seconds)
    result["fold_kernel_us"] = fold_kernel_us()
    return result


def trace(workload: Any, seed: int, seconds: float,
          spans_path: Optional[str] = None) -> Dict[str, Any]:
    """Traced run: per-layer metrics except the host calibration."""
    if isinstance(workload, BatchWorkload):
        result = _trace_batch(workload, seed, seconds, spans_path)
    else:
        result = _trace_stream(workload, seed, spans_path)
    result["fold_kernel_us"] = fold_kernel_us()
    return result
