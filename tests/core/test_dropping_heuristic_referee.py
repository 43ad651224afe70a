"""Differential test: the one-pass Eq. 8 dropper against the Fig. 4 referee.

``referee_evaluate`` is the paper-literal evaluation of Fig. 4: every
position re-folds its kept and drop windows from the surviving prefix, and
the reported robustness values fold the whole queue twice more.  The
production evaluator folds each chain PMF once and abandons drop windows
the mass bound proves irrelevant; both must agree ``==``-exactly on the
decision and on both reported values.
"""

from typing import List, Optional

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.core.completion import (ChainFolder, QueueEntry, active_folder,
                                   chance_of_success, completion_pmf)
from repro.core.dropping import (DropDecision, MachineQueueView,
                                 ProactiveHeuristicDropping)
from repro.core.dropping import heuristic as heuristic_module
from repro.core.pmf import MASS_TOLERANCE, PMF


def _window_probs(policy, prefix, entries, start, end, skip):
    probs: List[float] = []
    prev = prefix
    for n in range(start, end + 1):
        entry = entries[n]
        if skip is not None and n == skip:
            probs.append(0.0)
            continue
        prev = completion_pmf(prev, entry.exec_pmf, entry.deadline,
                              policy.prune_eps)
        probs.append(chance_of_success(prev, entry.deadline))
    return probs


def _queue_robustness(policy, base, entries):
    prev = base
    total = 0.0
    for entry in entries:
        prev = completion_pmf(prev, entry.exec_pmf, entry.deadline,
                              policy.prune_eps)
        total += chance_of_success(prev, entry.deadline)
    return total


def referee_evaluate(policy: ProactiveHeuristicDropping,
                     view: MachineQueueView) -> DropDecision:
    """The paper-literal Fig. 4 pass (the pre-one-pass implementation)."""
    entries = list(view.entries)
    q = len(entries)
    if q == 0:
        return DropDecision(drop_indices=())
    robustness_before = _queue_robustness(policy, view.base_pmf, entries)
    dropped: List[int] = []
    prefix = view.base_pmf
    for i in range(q):
        if i == q - 1:
            break
        window_end = min(i + policy.eta, q - 1)
        kept_probs = _window_probs(policy, prefix, entries, i, window_end,
                                   skip=None)
        drop_probs = _window_probs(policy, prefix, entries, i, window_end,
                                   skip=i)
        keep_score = sum(kept_probs)
        drop_score = sum(drop_probs[1:])
        if drop_score > policy.beta * keep_score:
            dropped.append(i)
        else:
            prefix = completion_pmf(prefix, entries[i].exec_pmf,
                                    entries[i].deadline, policy.prune_eps)
    robustness_after = _queue_robustness(
        policy, view.base_pmf,
        [e for k, e in enumerate(entries) if k not in set(dropped)])
    return DropDecision(drop_indices=dropped,
                        robustness_before=robustness_before,
                        robustness_after=robustness_after)


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
def _pmf(draw, origin_range, max_support, mass):
    support = draw(st.integers(min_value=1, max_value=max_support))
    times = draw(st.lists(st.integers(*origin_range), min_size=support,
                          max_size=support, unique=True))
    weights = draw(st.lists(st.floats(min_value=0.01, max_value=1.0),
                            min_size=support, max_size=support))
    total = sum(weights)
    return PMF.from_impulses(times, [w / total * mass for w in weights])


#: Execution-PMF mass scales: proper, slightly short, and over one by up to
#: the constructor's tolerance (the bound must never assume mass <= 1).
_EXEC_MASSES = st.one_of(
    st.just(1.0),
    st.sampled_from([1.0 + MASS_TOLERANCE * 0.999, 1.0 + MASS_TOLERANCE / 2,
                     1.0 - 1e-9]),
    st.floats(min_value=0.9, max_value=1.0 + MASS_TOLERANCE * 0.999))


@st.composite
def queue_views(draw):
    """Queues of 1-9 tasks on a conditioned, possibly sub-probability base."""
    now = draw(st.integers(min_value=0, max_value=40))
    base_kind = draw(st.sampled_from(["idle", "running", "empty"]))
    if base_kind == "idle":
        base = PMF.delta(now)
    elif base_kind == "empty":
        base = PMF.empty()
    else:
        # A running task's completion conditioned on not having finished
        # yet; mass below one models the reactive-drop share cut away.
        base = _pmf(draw, (now, now + 60), 6,
                    draw(st.floats(min_value=0.05, max_value=1.0)))
    length = draw(st.integers(min_value=1, max_value=9))
    entries = []
    backlog = now
    for task_id in range(length):
        exec_pmf = _pmf(draw, (1, 80), 4, draw(_EXEC_MASSES))
        backlog += int(exec_pmf.mean())
        slack = draw(st.floats(min_value=0.2, max_value=2.5))
        deadline = now + max(int(slack * (backlog - now)), 1)
        entries.append(QueueEntry(task_id=task_id, exec_pmf=exec_pmf,
                                  deadline=deadline))
    return MachineQueueView(machine_id=0, now=now, base_pmf=base,
                            entries=tuple(entries))


def _evaluate(evaluate, view, use_folder):
    """``evaluate(view)`` under a fresh run folder, or shielded from any."""
    folder: Optional[ChainFolder] = ChainFolder() if use_folder else None
    with active_folder(folder):
        return evaluate(view)


@seed(20200518)
@settings(max_examples=400, deadline=None)
@given(queue_views(), st.integers(min_value=1, max_value=5),
       st.sampled_from([1.0, 1.5, 4.0]), st.booleans())
def test_one_pass_matches_the_fig4_referee(view, eta, beta, use_folder):
    policy = ProactiveHeuristicDropping(beta=beta, eta=eta)
    got = _evaluate(policy.evaluate_queue, view, use_folder)
    want = _evaluate(lambda v: referee_evaluate(policy, v), view, use_folder)
    assert got.drop_indices == want.drop_indices
    assert got.robustness_before == want.robustness_before
    assert got.robustness_after == want.robustness_after


def _count_folds(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return completion_pmf(*args, **kwargs)

    monkeypatch.setattr(heuristic_module, "completion_pmf", counted)
    return calls


def test_healthy_queue_folds_each_position_once(monkeypatch):
    """No drop window survives the mass bound on a queue that meets its
    deadlines, so the pass folds the survivor chain and nothing else."""
    calls = _count_folds(monkeypatch)
    entries = [QueueEntry(task_id=k, exec_pmf=PMF.delta(10),
                          deadline=100 + 20 * k) for k in range(6)]
    view = MachineQueueView(machine_id=0, now=0, base_pmf=PMF.delta(0),
                            entries=tuple(entries))
    decision = ProactiveHeuristicDropping().evaluate_queue(view)
    assert decision.drop_indices == ()
    assert decision.robustness_before == decision.robustness_after == 6.0
    assert len(calls) == len(entries)


def test_drop_window_is_reused_as_the_next_kept_window(monkeypatch):
    """A dropped head's drop window becomes the kept window behind it, so a
    drop costs the window folds plus the undropped chain's remainder."""
    calls = _count_folds(monkeypatch)
    entries = [QueueEntry(task_id=0, exec_pmf=PMF.delta(90), deadline=50),
               QueueEntry(task_id=1, exec_pmf=PMF.delta(10), deadline=60),
               QueueEntry(task_id=2, exec_pmf=PMF.delta(10), deadline=70)]
    view = MachineQueueView(machine_id=0, now=0, base_pmf=PMF.delta(0),
                            entries=tuple(entries))
    policy = ProactiveHeuristicDropping(beta=1.0, eta=2)
    decision = policy.evaluate_queue(view)
    assert decision.drop_indices == (0,)
    assert decision == referee_evaluate(policy, view)
    # kept window 0..2 (3 folds) + drop window 1..2 (2 folds); after the
    # drop, positions 1 and 2 are served from that window without a fold.
    assert len(calls) == 5


@pytest.mark.parametrize("exec_mass", [1.0, 1.0 + MASS_TOLERANCE * 0.99])
@pytest.mark.parametrize("late", [5e-4, 1e-9])
def test_drop_decided_by_a_hair_is_still_dropped(exec_mass, late):
    """The drop window's chances meet their mass bound exactly and beat the
    keep score by only ``late`` (or by the excess execution mass): a bound
    that under-counts by more than its rounding slack would keep the head."""
    head = QueueEntry(task_id=0, exec_pmf=PMF.delta(5), deadline=4)
    first = QueueEntry(task_id=1, exec_pmf=PMF(10, [exec_mass]),
                       deadline=100)
    second = QueueEntry(task_id=2, exec_pmf=PMF.from_impulses(
        [10, 30], [(1.0 - late) * exec_mass, late * exec_mass]), deadline=42)
    view = MachineQueueView(machine_id=0, now=0, base_pmf=PMF.delta(0),
                            entries=(head, first, second))
    policy = ProactiveHeuristicDropping(beta=1.0, eta=2)
    decision = policy.evaluate_queue(view)
    assert decision.drop_indices == (0,)
    assert decision == referee_evaluate(policy, view)


@pytest.mark.parametrize("eta", [1, 2, 5])
def test_empty_and_single_task_queues(eta):
    policy = ProactiveHeuristicDropping(eta=eta)
    empty = MachineQueueView(machine_id=0, now=0, base_pmf=PMF.delta(0))
    assert policy.evaluate_queue(empty).drop_indices == ()
    single = MachineQueueView(
        machine_id=0, now=0, base_pmf=PMF.delta(0),
        entries=(QueueEntry(task_id=0, exec_pmf=PMF.delta(50), deadline=10),))
    assert policy.evaluate_queue(single) == referee_evaluate(policy, single)
