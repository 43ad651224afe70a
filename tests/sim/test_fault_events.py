"""Fault injection: schedule determinism, churn semantics, equivalence.

Three pins back the fault subsystem:

* the *fault-schedule determinism* invariant -- a fault process's onset
  stream is a pure function of its seed (fixed draws per onset), so the
  schedule survives snapshot/resume and incremental-vs-naive replays;
* the *fixed-draw-order* invariant of the uncertainty models -- every
  ``perturb_execution`` call consumes the same number of draws regardless
  of parameter values, so a zero-probability model never shifts the draw
  sequence of downstream tasks;
* the *equivalence grid under faults* -- incremental and naive runs must
  produce bit-identical ``TrialMetrics`` (churn counters included) for
  every fault kind, exactly like the clean-room equivalence pin.
"""

from itertools import islice

import numpy as np
import pytest

from repro.api import FAULTS, UnknownNameError
from repro.experiments.runner import TrialSpec, run_trial
from repro.sim.fault_events import (FAULT_SEED_OFFSET, CrashRestartProcess,
                                    FaultInjector, MachineCrash, NoFaults,
                                    PartitionProcess, PartitionStart,
                                    SlowdownProcess, SlowdownStart)
from repro.sim.faults import MachineStallModel, NetworkLatencyModel

SCALE = 0.002
MACHINE_IDS = (0, 1, 2, 3, 4, 5, 6, 7)


def _rng(seed=7):
    return np.random.default_rng(seed)


# ----------------------------------------------------------------------
# Fixed draw order of the uncertainty models (satellite of this change)
# ----------------------------------------------------------------------

class TestUncertaintyDrawOrderPin:
    """Zeroed parameters must not shift the downstream draw sequence."""

    @pytest.mark.parametrize("zeroed,active", [
        (NetworkLatencyModel(mean_latency=0.0, jitter_probability=0.0),
         NetworkLatencyModel(mean_latency=5.0, jitter_probability=0.05)),
        (MachineStallModel(stall_probability=0.0),
         MachineStallModel(stall_probability=1.0)),
    ])
    def test_draw_count_is_parameter_independent(self, zeroed, active):
        rng_zero, rng_active = _rng(), _rng()
        zeroed.perturb_execution(100, 0, 0, rng_zero)
        active.perturb_execution(100, 0, 0, rng_active)
        # Both sides consumed the same draws, so the generators are in
        # identical states: the next draw (a later task's) agrees exactly.
        assert rng_zero.random() == rng_active.random()

    def test_network_latency_consumes_exactly_two_draws(self):
        rng = _rng()
        NetworkLatencyModel().perturb_execution(100, 0, 0, rng)
        reference = _rng()
        reference.exponential(5.0)
        reference.random()
        assert rng.random() == reference.random()

    def test_machine_stall_consumes_exactly_two_draws(self):
        rng = _rng()
        MachineStallModel().perturb_execution(100, 0, 0, rng)
        reference = _rng()
        reference.random()
        reference.integers(50, 201)
        assert rng.random() == reference.random()


# ----------------------------------------------------------------------
# Fault-schedule determinism
# ----------------------------------------------------------------------

PROCESSES = [
    CrashRestartProcess(mtbf=500.0, repair_mean=100.0),
    SlowdownProcess(mean_interval=400.0, duration_mean=100.0, factor=3.0),
    SlowdownProcess(mean_interval=400.0, duration_mean=100.0, scope="system"),
    PartitionProcess(mean_interval=600.0, duration_mean=150.0,
                     group_fraction=0.5),
]


class TestScheduleDeterminism:
    @pytest.mark.parametrize("process", PROCESSES,
                             ids=lambda p: type(p).__name__ + getattr(
                                 p, "scope", ""))
    def test_schedule_is_a_pure_function_of_the_seed(self, process):
        first = list(islice(process.events(_rng(), MACHINE_IDS), 8))
        second = list(islice(process.events(_rng(), MACHINE_IDS), 8))
        assert first == second

    @pytest.mark.parametrize("process", PROCESSES,
                             ids=lambda p: type(p).__name__ + getattr(
                                 p, "scope", ""))
    def test_onsets_are_time_ordered_with_valid_scopes(self, process):
        events = list(islice(process.events(_rng(), MACHINE_IDS), 16))
        assert all(a.time <= b.time for a, b in zip(events, events[1:]))
        for event in events:
            if isinstance(event, MachineCrash):
                assert event.machine_id in MACHINE_IDS
                assert event.repair_delay >= 1
            elif isinstance(event, (SlowdownStart, PartitionStart)):
                assert set(event.machine_ids) <= set(MACHINE_IDS)
                assert event.duration >= 1

    def test_system_scope_consumes_the_same_draws_as_machine_scope(self):
        # The victim draw happens in both scopes, so the onset *times*
        # coincide even though system scope ignores the victim.
        machine = SlowdownProcess(mean_interval=400.0, scope="machine")
        system = SlowdownProcess(mean_interval=400.0, scope="system")
        times_machine = [e.time for e in
                         islice(machine.events(_rng(), MACHINE_IDS), 8)]
        times_system = [e.time for e in
                        islice(system.events(_rng(), MACHINE_IDS), 8)]
        assert times_machine == times_system

    def test_fast_forward_replays_the_consumed_prefix(self):
        process = CrashRestartProcess(mtbf=500.0, repair_mean=100.0)
        fresh = list(islice(process.events(_rng(), MACHINE_IDS), 5))

        injector = FaultInjector(process, _rng(), MACHINE_IDS)
        injector.fast_forward(3)
        assert injector.consumed == 3
        assert injector.started
        assert next(injector._iter) == fresh[3]

    def test_fast_forward_refuses_to_rewind(self):
        injector = FaultInjector(CrashRestartProcess(), _rng(), MACHINE_IDS)
        injector.fast_forward(2)
        with pytest.raises(ValueError, match="rewind"):
            injector.fast_forward(1)

    def test_no_faults_yields_nothing(self):
        assert list(NoFaults().events(_rng(), MACHINE_IDS)) == []


# ----------------------------------------------------------------------
# Churn semantics through the trial runner
# ----------------------------------------------------------------------

def _spec(faults_name="none", fault_params=(), incremental=True, seed=42,
          mapper="PAM", dropper="heuristic", level="30k"):
    return TrialSpec(scenario_name="spec", level=level, scale=SCALE,
                     gamma=1.0, queue_capacity=6, seed=seed,
                     mapper_name=mapper, dropper_name=dropper,
                     incremental=incremental, batch_window=32,
                     faults_name=faults_name,
                     fault_params=fault_params)


CHURN_PARAMS = (("mtbf", 150.0), ("repair_mean", 50.0))


class TestChurnSemantics:
    def test_clean_run_has_no_churn_payload(self):
        assert run_trial(_spec()).churn is None

    def test_crash_restart_counts_crashes_and_requeues(self):
        metrics = run_trial(_spec("crash-restart", CHURN_PARAMS))
        assert metrics.churn is not None
        assert metrics.churn.crashes > 0
        assert metrics.churn.requeued_tasks > 0
        assert metrics.churn.lost_tasks == 0  # requeue policy
        assert metrics.churn.partition_time == 0

    def test_drop_policy_loses_in_flight_work_reactively(self):
        requeue = run_trial(_spec("crash-restart", CHURN_PARAMS))
        drop = run_trial(_spec("crash-restart",
                               CHURN_PARAMS + (("policy", "drop"),)))
        assert drop.churn.lost_tasks > 0
        assert drop.churn.requeued_tasks == 0
        # Lost in-flight work is recorded as reactive drops.
        assert (drop.drops.reactive + drop.drops.proactive
                >= requeue.drops.proactive)

    def test_partition_accumulates_unreachable_machine_time(self):
        metrics = run_trial(_spec(
            "partition", (("mean_interval", 300.0),
                          ("duration_mean", 100.0))))
        assert metrics.churn is not None
        assert metrics.churn.partition_time > 0
        assert metrics.churn.crashes == 0

    def test_slowdown_degrades_robustness(self):
        clean = run_trial(_spec())
        slowed = run_trial(_spec(
            "slowdown", (("mean_interval", 200.0), ("duration_mean", 150.0),
                         ("factor", 4.0), ("scope", "system"))))
        assert slowed.robustness.on_time < clean.robustness.on_time

    def test_same_seed_same_churn(self):
        a = run_trial(_spec("crash-restart", CHURN_PARAMS))
        b = run_trial(_spec("crash-restart", CHURN_PARAMS))
        assert a == b
        assert a.churn == b.churn


# ----------------------------------------------------------------------
# Equivalence under faults: incremental == naive, churn included
# ----------------------------------------------------------------------

FAULT_GRID = [
    ("crash-restart", CHURN_PARAMS, "PAM", "heuristic", 42),
    ("crash-restart", CHURN_PARAMS + (("policy", "drop"),), "MM", "react", 43),
    ("slowdown", (("mean_interval", 250.0), ("duration_mean", 120.0),
                  ("factor", 3.0)), "PAM", "heuristic", 42),
    ("slowdown", (("scope", "system"), ("mean_interval", 300.0)),
     "MM", "react", 44),
    ("partition", (("mean_interval", 300.0), ("duration_mean", 100.0)),
     "PAM", "heuristic", 7),
    ("partition", (("group_fraction", 0.25),), "MM", "react", 11),
]


@pytest.mark.parametrize("faults,params,mapper,dropper,seed", FAULT_GRID,
                         ids=[f"{f}-{m}+{d}" for f, _, m, d, _ in FAULT_GRID])
def test_incremental_bit_identical_under_faults(faults, params, mapper,
                                                dropper, seed):
    naive = run_trial(_spec(faults, params, incremental=False, seed=seed,
                            mapper=mapper, dropper=dropper))
    fast = run_trial(_spec(faults, params, incremental=True, seed=seed,
                           mapper=mapper, dropper=dropper))
    # TrialMetrics equality includes the churn counters (unlike perf,
    # churn is part of the comparable payload).
    assert naive == fast
    assert naive.churn == fast.churn
    assert naive.robustness == fast.robustness
    assert naive.drops == fast.drops
    assert naive.makespan == fast.makespan


# ----------------------------------------------------------------------
# Registry plumbing
# ----------------------------------------------------------------------

class TestFaultsRegistry:
    def test_known_names(self):
        assert {"none", "crash-restart", "slowdown", "partition"} <= set(
            FAULTS.names())

    def test_did_you_mean(self):
        with pytest.raises(UnknownNameError, match="crash-restart"):
            FAULTS.get("crash-retart")

    def test_create_validates_params(self):
        with pytest.raises(TypeError):
            FAULTS.create("crash-restart", bogus_param=1.0)

    def test_seed_offset_decouples_fault_stream(self):
        # The fault stream must not alias the workload/execution/traffic
        # streams of the same base seed.
        assert FAULT_SEED_OFFSET not in (0, 7_919, 1_000_003)
