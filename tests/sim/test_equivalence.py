"""Seed-determinism equivalence of the incremental simulation core.

The incremental completion-PMF caches (``SystemConfig.incremental``) only
reuse results whose inputs are bitwise-identical to what a full
recomputation would see, so a cached run must produce *exactly* the metrics
of the naive run -- same robustness report, same drop breakdown, same
makespan, same mapping-event count -- on every scenario/mapper/dropper/seed
combination.  The same holds along the *scoring* axis: the vectorised
score-plane backend must reproduce the per-pair loop backend's assignments
bit-for-bit.  The window width picks the backend, so these tests force one
side by rebinding :data:`repro.mapping.kernel.SMALL_PLANE_TASKS`
(:data:`LOOP` sends every window to the loop, :data:`PLANE` every
multi-task window to the vector engine).  They pin both guarantees on the
tier-1 grid used throughout the suite (tiny scale, multiple levels, every
dropper family).
"""

import sys

import pytest

from repro.experiments.runner import TrialSpec, run_trial
from repro.mapping.kernel import SMALL_PLANE_TASKS

SCALE = 0.002  # ~40-60 tasks per trial: fast but heavily oversubscribed.

GRID = [
    ("30k", "PAM", "react", (), 42),
    ("30k", "PAM", "heuristic", (), 42),
    ("30k", "MM", "heuristic", (("beta", 1.5), ("eta", 3)), 43),
    ("30k", "FCFS", "threshold", (("threshold", 0.4),), 42),
    ("30k", "SJF", "heuristic", (), 42),
    ("30k", "EDF", "react", (), 43),
    ("30k", "MSD", "threshold-adaptive", (), 44),
    ("40k", "PAM", "heuristic", (), 7),
    ("40k", "MM", "react", (), 7),
    ("20k", "PAM", "heuristic", (), 11),
]

#: Wide-window variants whose relaxed deadlines back the batch queue up, so
#: the vector backend actually exercises multi-row planes (the tight grid
#: above mostly sees single-task windows, which dispatch to the loop).
WIDE_GRID = [
    ("40k", "PAM", "react", (), 42),
    ("40k", "MM", "heuristic", (), 42),
    ("40k", "MSD", "react", (), 43),
]

#: Ordered heuristics on the same backlogged setup: their declared
#: one-phase specs must reproduce the greedy reference loop bit-for-bit
#: while actually running on the plane engine.
ORDERED_WIDE_GRID = [
    ("40k", "FCFS", "react", (), 42),
    ("40k", "SJF", "heuristic", (), 42),
    ("40k", "EDF", "threshold", (("threshold", 0.4),), 43),
    ("30k", "FCFS", "heuristic", (), 7),
]


#: Dispatch thresholds forcing one side of the width rule.
LOOP = sys.maxsize
PLANE = 2


def _spec(level, mapper, dropper, dropper_params, seed, incremental,
          gamma=1.0, batch_window=32, queue_capacity=6):
    return TrialSpec(scenario_name="spec", level=level, scale=SCALE,
                     gamma=gamma, queue_capacity=queue_capacity, seed=seed,
                     mapper_name=mapper, dropper_name=dropper,
                     dropper_params=dropper_params, incremental=incremental,
                     batch_window=batch_window)


def _run(monkeypatch, spec, threshold=SMALL_PLANE_TASKS):
    """``run_trial`` with the score-plane dispatch threshold rebound."""
    monkeypatch.setattr("repro.mapping.kernel.SMALL_PLANE_TASKS", threshold)
    return run_trial(spec)


@pytest.mark.parametrize("level,mapper,dropper,dropper_params,seed", GRID)
def test_incremental_metrics_bit_identical(level, mapper, dropper,
                                           dropper_params, seed):
    naive = run_trial(_spec(level, mapper, dropper, dropper_params, seed,
                            incremental=False))
    fast = run_trial(_spec(level, mapper, dropper, dropper_params, seed,
                           incremental=True))

    # TrialMetrics equality covers the full nested payload (robustness
    # report, drop breakdown, cost, mapping events, makespan); the perf
    # counters are excluded from comparison by design.
    assert naive == fast
    assert naive.robustness == fast.robustness
    assert naive.drops == fast.drops
    assert naive.makespan == fast.makespan
    assert naive.num_mapping_events == fast.num_mapping_events


@pytest.mark.parametrize("level,mapper,dropper,dropper_params,seed", GRID)
def test_vector_scoring_bit_identical(monkeypatch, level, mapper, dropper,
                                      dropper_params, seed):
    """The vector==loop axis of the equivalence grid (incremental on)."""
    spec = _spec(level, mapper, dropper, dropper_params, seed,
                 incremental=True)
    loop = _run(monkeypatch, spec, LOOP)
    vector = _run(monkeypatch, spec)
    assert loop == vector
    assert loop.robustness == vector.robustness
    assert loop.drops == vector.drops
    assert loop.makespan == vector.makespan
    assert loop.num_mapping_events == vector.num_mapping_events


@pytest.mark.parametrize("level,mapper,dropper,dropper_params,seed",
                         WIDE_GRID)
def test_vector_scoring_bit_identical_wide_windows(monkeypatch, level, mapper,
                                                   dropper, dropper_params,
                                                   seed):
    """Same axis on backlogged workloads with genuinely wide score planes.

    Relaxed deadlines plus short machine queues back the batch queue up at
    this tiny scale, so mapping events see multi-row planes instead of the
    single-task windows the tight grid produces.
    """
    spec = _spec(level, mapper, dropper, dropper_params, seed,
                 incremental=True, gamma=4.0, batch_window=64,
                 queue_capacity=2)
    loop = _run(monkeypatch, spec, LOOP)
    # ``PLANE``: force every multi-task window onto the vector engine so
    # the pin is independent of the measured dispatch default
    # (``SMALL_PLANE_TASKS``).
    vector = _run(monkeypatch, spec, PLANE)
    assert loop == vector
    # The wide plane must actually have been vectorised, not dispatched to
    # the loop wholesale: the backends count plane work differently (the
    # loop re-scores every pair per round, the vector backend fills moved
    # columns and gathers phase-2 diagonals), so identical counts would
    # mean the loop ran both times.
    assert vector.perf.plane_evals != loop.perf.plane_evals


@pytest.mark.parametrize("level,mapper,dropper,dropper_params,seed",
                         ORDERED_WIDE_GRID)
def test_ordered_heuristics_vector_bit_identical(monkeypatch, level, mapper,
                                                 dropper, dropper_params,
                                                 seed):
    """FCFS/SJF/EDF declared specs == greedy reference, on real planes.

    Relaxed deadlines and short queues back the batch queue up into
    multi-task windows, so the declared one-phase spec actually runs on the
    vector engine (the loop side never touches the plane, so its round
    counter stays at zero).
    """
    spec = _spec(level, mapper, dropper, dropper_params, seed,
                 incremental=True, gamma=4.0, batch_window=64,
                 queue_capacity=2)
    loop = _run(monkeypatch, spec, LOOP)
    # Force the vector engine on every multi-task window (see the wide
    # two-phase grid above) -- the pin must not depend on the measured
    # dispatch default.
    vector = _run(monkeypatch, spec, PLANE)
    assert loop == vector
    assert loop.robustness == vector.robustness
    assert loop.drops == vector.drops
    assert loop.makespan == vector.makespan
    assert vector.perf.plane_rounds > 0
    assert loop.perf.plane_rounds == 0


@pytest.mark.parametrize("threshold", [LOOP, SMALL_PLANE_TASKS],
                         ids=["loop", "vector"])
def test_naive_path_matches_each_backend(monkeypatch, threshold):
    """Cross-check: scoring and incremental axes compose."""
    naive = _run(monkeypatch, _spec("30k", "PAM", "heuristic", (), 42,
                                    incremental=False), threshold)
    fast = _run(monkeypatch, _spec("30k", "PAM", "heuristic", (), 42,
                                   incremental=True), threshold)
    assert naive == fast


@pytest.mark.parametrize("level,mapper,dropper,dropper_params,seed",
                         WIDE_GRID + ORDERED_WIDE_GRID)
def test_naive_matches_incremental_on_wide_planes(monkeypatch, level, mapper,
                                                  dropper, dropper_params,
                                                  seed):
    """naive == incremental with every multi-task window on the plane.

    The tight grid's windows mostly hold one task and run on the loop, so
    only these backlogged cases check the plane -- its one-machine rounds
    and bound-pruned phase 2 -- against the naive path, which recomputes
    every tail and keeps no score memos.
    """
    def spec(incremental):
        return _spec(level, mapper, dropper, dropper_params, seed,
                     incremental=incremental, gamma=4.0, batch_window=64,
                     queue_capacity=2)

    naive = _run(monkeypatch, spec(False), PLANE)
    fast = _run(monkeypatch, spec(True), PLANE)
    assert naive == fast
    assert naive.robustness == fast.robustness
    assert naive.drops == fast.drops
    assert naive.makespan == fast.makespan
    assert fast.perf.plane_rounds > 0


def test_incremental_path_actually_caches():
    """Guard against the fast path silently degenerating to naive."""
    fast = run_trial(_spec("30k", "PAM", "heuristic", (), 42, incremental=True))
    naive = run_trial(_spec("30k", "PAM", "heuristic", (), 42, incremental=False))
    assert fast.perf is not None and naive.perf is not None
    assert fast.perf.tail_cache_hits + fast.perf.tail_cache_extends > 0
    assert fast.perf.pmf_folds < naive.perf.pmf_folds
    assert naive.perf.tail_cache_hits == 0


# ----------------------------------------------------------------------
# Fast-numerics profile (tolerance-bounded, not bit-identical)
# ----------------------------------------------------------------------

#: Grid for the ``numerics="fast"`` profile, spanning mapper x dropper x
#: uncertainty x faults.  The fast profile replaces score-plane folds with
#: closed-form chances/means (and the batched FFT kernel where PMFs are
#: needed), each within ``FAST_FOLD_SUP_NORM_TOL`` of the exact value, while
#: the committed trajectory state stays exact -- so the two profiles only
#: diverge when a score *tie within tolerance* flips an assignment (the
#: documented divergence policy).
FAST_NUMERICS_GRID = [
    ("30k", "PAM", "react", (), "none", (), "none", (), 42),
    ("30k", "MM", "heuristic", (), "none", (), "none", (), 43),
    ("40k", "MSD", "threshold", (("threshold", 0.4),), "none", (), "none",
     (), 44),
    ("30k", "PAM", "heuristic", (), "network_latency",
     (("mean_latency", 5.0),), "none", (), 42),
    ("30k", "MM", "react", (), "none", (), "crash-restart",
     (("mtbf", 150.0), ("repair_mean", 50.0)), 42),
    ("40k", "PAM", "react", (), "network_latency", (("mean_latency", 10.0),),
     "crash-restart", (("mtbf", 200.0), ("repair_mean", 60.0)), 7),
]

#: Maximum robustness-percentage drift tolerated when a within-tolerance
#: score tie flips an assignment at this tiny scale: with ~30-60 measured
#: tasks each one is worth ~2-3 points, and a single flipped assignment can
#: cascade into a few changed completions downstream.  PAM's phase-1 score
#: (negated chance of success) ties at exactly 1.0 for every safe candidate
#: under slack deadlines, which is where the flips come from.
FAST_TIE_FLIP_PCT = 12.0

#: Cases from :data:`FAST_NUMERICS_GRID` (by index) empirically free of
#: within-tolerance ties: the fast trajectory is *identical* to the exact
#: one, which the assignment-identity test pins.
FAST_IDENTICAL_CASES = [1, 2, 4]


def _fast_spec(level, mapper, dropper, dropper_params, uncertainty,
               uncertainty_params, faults, fault_params, seed, numerics,
               **kwargs):
    spec = _spec(level, mapper, dropper, dropper_params, seed,
                 incremental=True, **kwargs)
    from dataclasses import replace
    return replace(spec, numerics=numerics, uncertainty_name=uncertainty,
                   uncertainty_params=uncertainty_params, faults_name=faults,
                   fault_params=fault_params)


@pytest.mark.parametrize(
    "level,mapper,dropper,dropper_params,uncertainty,uncertainty_params,"
    "faults,fault_params,seed", FAST_NUMERICS_GRID)
def test_fast_numerics_within_tolerance(level, mapper, dropper,
                                        dropper_params, uncertainty,
                                        uncertainty_params, faults,
                                        fault_params, seed):
    args = (level, mapper, dropper, dropper_params, uncertainty,
            uncertainty_params, faults, fault_params, seed)
    exact = run_trial(_fast_spec(*args, numerics="exact"))
    fast = run_trial(_fast_spec(*args, numerics="fast"))
    # Identical trajectories are the overwhelmingly common outcome; when a
    # tie within tolerance flips an assignment, the metrics may drift by
    # one task's worth of robustness but never more at this scale.
    if fast == exact:
        assert fast.robustness == exact.robustness
        assert fast.drops == exact.drops
        assert fast.makespan == exact.makespan
    else:
        assert abs(fast.robustness_pct - exact.robustness_pct) \
            <= FAST_TIE_FLIP_PCT
        assert fast.robustness.measured_tasks \
            == exact.robustness.measured_tasks


@pytest.mark.parametrize(
    "level,mapper,dropper,dropper_params,uncertainty,uncertainty_params,"
    "faults,fault_params,seed",
    [FAST_NUMERICS_GRID[i] for i in FAST_IDENTICAL_CASES])
def test_fast_numerics_assignment_identity_pinned_cases(
        level, mapper, dropper, dropper_params, uncertainty,
        uncertainty_params, faults, fault_params, seed):
    """Pinned fault-free cases reproduce the exact trajectory exactly.

    On these cases no score tie falls within tolerance, so the fast
    profile's assignments -- and therefore every committed metric -- are
    identical to the exact profile's.  A divergence here means the fast
    scores drifted beyond the documented bound, not a legitimate tie flip.
    """
    args = (level, mapper, dropper, dropper_params, uncertainty,
            uncertainty_params, faults, fault_params, seed)
    exact = run_trial(_fast_spec(*args, numerics="exact"))
    fast = run_trial(_fast_spec(*args, numerics="fast"))
    assert fast == exact
    assert fast.num_mapping_events == exact.num_mapping_events


def test_fast_numerics_wide_windows_within_tolerance():
    """Backlogged wide-window planes exercise the batched fast kernels."""
    kwargs = dict(gamma=4.0, batch_window=64, queue_capacity=2)
    args = ("40k", "PAM", "react", (), "none", (), "none", (), 42)
    exact = run_trial(_fast_spec(*args, numerics="exact", **kwargs))
    fast = run_trial(_fast_spec(*args, numerics="fast", **kwargs))
    if fast != exact:
        assert abs(fast.robustness_pct - exact.robustness_pct) \
            <= FAST_TIE_FLIP_PCT


def test_fast_numerics_keeps_committed_folds_exact():
    """The committed chain stays exact: fold counts match the exact run."""
    args = ("30k", "PAM", "react", (), "none", (), "none", (), 42)
    exact = run_trial(_fast_spec(*args, numerics="exact"))
    fast = run_trial(_fast_spec(*args, numerics="fast"))
    if fast == exact:
        # ``pmf_folds`` counts committed-chain folds only, a function of
        # the (shared) trajectory -- the fast profile must not re-route
        # them through the FFT kernel.
        assert fast.perf.pmf_folds == exact.perf.pmf_folds
