"""Bound-pruned selection and one-machine rounds against exhaustive referees.

Every selection of the score plane -- phase 1 on the loop backend, phase 2
on both backends -- visits its candidates in ascending order of a fold-free
bound and stops once a bound loses to the best exact key
(:func:`repro.mapping.kernel._bounded_argmin`).  Expected completion's
bound (:meth:`MappingContext.expected_completion_bound`) must lie below
the value the column returns on every input, every pick must equal the
exhaustive first-wins lexicographic ``min`` over exact keys, and a vector
round with one free machine folds no phase-1 cell while ``plane_evals``
still counts the exhaustive plane's cells.
"""

import math
from collections import Counter

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.core.completion import ChainFolder
from repro.core.pet import PETMatrix
from repro.core.pmf import MASS_TOLERANCE, PMF
from repro.mapping import EDF, MSD, PAM, MinMin
from repro.mapping.base import MachineState, MappingContext, TaskView
from repro.mapping.kernel import (SCORE_COLUMNS, _bounded_argmin,
                                  _loop_plan, _map_loop, _map_vector)

EPS = 1e-12  # the default prune_eps of contexts and folders


class FixedExecution:
    """Stand-in for a topology's execution view: one PMF per (type, machine),
    e.g. a PET entry shifted by a transfer time."""

    def __init__(self, pmfs):
        self._pmfs = pmfs

    def pmf(self, type_id: int, machine_id: int) -> PMF:
        return self._pmfs[(type_id, machine_id)]

    def mean(self, type_id: int, machine_id: int) -> float:
        return self._pmfs[(type_id, machine_id)].mean()


def _context(pet, numerics, memoize=False, exec_view=None):
    folder = ChainFolder(numerics=numerics) if numerics else None
    return MappingContext(pet, now=0, folder=folder, memoize_scores=memoize,
                          exec_view=exec_view)


_NUMERICS = st.sampled_from([None, "exact", "fast"])


# ----------------------------------------------------------------------
# The expected-completion bound
# ----------------------------------------------------------------------
#: Bin values mixing ordinary weights with values just below, at and just
#: above ``prune_eps``, so pruning removes as much mass as it can.
_BINS = st.one_of(st.floats(min_value=0.01, max_value=1.0),
                  st.sampled_from([EPS * 0.999, EPS * 0.5, EPS, EPS * 1.001,
                                   EPS * 3.0]))


@st.composite
def pmfs(draw, max_size, masses, origins):
    size = draw(st.integers(min_value=1, max_value=max_size))
    bins = draw(st.lists(_BINS, min_size=size, max_size=size))
    bins[0] = max(bins[0], 0.01)  # keep the mass away from zero
    mass = draw(masses)
    total = sum(bins)
    return PMF(draw(origins), [b / total * mass for b in bins])


_TAILS = pmfs(40, st.sampled_from([1.0, 0.6, 0.05, 1e-6]),
              st.integers(min_value=-20, max_value=60))
#: PET entries are normalised up to ``MASS_TOLERANCE`` either way.
_EXECS = pmfs(30, st.sampled_from([1.0, 1.0 + MASS_TOLERANCE * 0.99,
                                   1.0 - MASS_TOLERANCE * 0.99]),
              st.integers(min_value=1, max_value=40))


@seed(20200518)
@settings(max_examples=400, deadline=None)
@given(_TAILS, _EXECS, st.integers(min_value=-5, max_value=90),
       st.integers(min_value=0, max_value=30), st.booleans(), _NUMERICS)
def test_expected_bound_lies_below_the_mean(tail, exec_pmf, offset, shift,
                                             shifted, numerics):
    # ``offset`` spans deadlines before the tail (k <= 0, a pass-through)
    # up to well past its support (a plain convolution).
    pet = PETMatrix(("t0",), ("m0",), {(0, 0): exec_pmf})
    view = None
    if shifted:
        view = FixedExecution({(0, 0): PMF(exec_pmf.origin + shift,
                                           exec_pmf.probs)})
    ctx = _context(pet, numerics, exec_view=view)
    machine = MachineState(machine_id=0, type_id=0, free_slots=1,
                           tail_pmf=tail)
    task = TaskView(task_id=0, type_id=0, arrival=0,
                    deadline=tail.origin + offset)
    bound = ctx.expected_completion_bound(machine, task)
    assert not math.isnan(bound)
    try:
        mean = ctx.expected_completion(machine, task)
    except ValueError:  # pruning emptied the fold: no mean to bound
        assert bound == -math.inf
        return
    assert bound <= mean
    if offset <= 0:
        assert bound == -math.inf


@pytest.mark.parametrize("numerics", [None, "exact", "fast"])
@pytest.mark.parametrize("tail", [PMF.delta(0), PMF(-7, [0.25, 0.5, 0.25])])
def test_bound_covers_a_mean_moved_by_pruning(numerics, tail):
    """Hundreds of late bins just below ``prune_eps``: the exact fold zeroes
    them all, so its mean sits ~1.6e-7 below the closed form, far more
    than any rounding margin."""
    late = [EPS * 0.9] * 600
    exec_pmf = PMF(1, [1.0 - sum(late)] + late)
    pet = PETMatrix(("t0",), ("m0",), {(0, 0): exec_pmf})
    ctx = _context(pet, numerics)
    machine = MachineState(machine_id=0, type_id=0, free_slots=1,
                           tail_pmf=tail)
    task = TaskView(task_id=0, type_id=0, arrival=0, deadline=10_000)
    mean = ctx.expected_completion(machine, task)
    bound = ctx.expected_completion_bound(machine, task)
    assert bound <= mean
    # The bound is useful, not -inf: it trails the mean by under 1e-6.
    assert mean - bound < 1e-6


@pytest.mark.parametrize("empty", ["tail", "exec"])
def test_empty_operands_are_never_pruned(empty):
    exec_pmf = PMF.empty() if empty == "exec" else PMF.delta(3)
    tail = PMF.empty() if empty == "tail" else PMF.delta(0)
    ctx = _context(PETMatrix(("t0",), ("m0",), {(0, 0): PMF.delta(3)}), None,
                   exec_view=FixedExecution({(0, 0): exec_pmf}))
    machine = MachineState(machine_id=0, type_id=0, free_slots=1,
                           tail_pmf=tail)
    task = TaskView(task_id=0, type_id=0, arrival=0, deadline=50)
    assert ctx.expected_completion_bound(machine, task) == -math.inf


# ----------------------------------------------------------------------
# Picks against the exhaustive referee
# ----------------------------------------------------------------------
def exact_key(names, ctx, machine, task):
    ids = {"machine_id": machine.machine_id, "task_id": task.task_id}
    return tuple(ids[name] if name in ids
                 else SCORE_COLUMNS[name].scalar(ctx, machine, task)
                 for name in names)


def referee_map(spec, tasks, machines, ctx) -> list:
    """The two-phase rounds with every key scored, first-wins ``min``."""
    p1 = spec.phase1 + spec.phase1_tiebreak
    p2 = spec.phase2 + spec.phase2_tiebreak
    unmapped = list(tasks)
    out = []
    while unmapped and any(m.has_free_slot for m in machines):
        free = [m for m in machines if m.has_free_slot]
        pairs = [(min(free, key=lambda m: exact_key(p1, ctx, m, task)), task)
                 for task in unmapped]
        if spec.assign_per_machine:
            groups = {}
            for pair in pairs:
                groups.setdefault(pair[0].machine_id, []).append(pair)
            winners = list(groups.values())
        else:
            winners = [pairs]
        for group in winners:
            machine, task = min(group, key=lambda p: exact_key(p2, ctx, *p))
            machine.commit(ctx.completion_if_appended(machine, task))
            unmapped.remove(task)
            out.append((task.task_id, machine.machine_id))
    return out


def _probs(draw, size):
    weights = draw(st.lists(st.floats(min_value=0.01, max_value=1.0),
                            min_size=size, max_size=size))
    total = sum(weights)
    return [w / total for w in weights]


@st.composite
def planes(draw):
    """Small PETs, same-type machines with equal tails, shuffled task ids and
    deadlines past every support (exact mean ties), and slot counts that
    leave rounds with one free machine."""
    task_types = draw(st.integers(min_value=1, max_value=3))
    machine_types = draw(st.integers(min_value=1, max_value=2))
    entries = {(i, j): PMF(draw(st.integers(min_value=1, max_value=30)),
                           _probs(draw, draw(st.integers(1, 4))))
               for i in range(task_types) for j in range(machine_types)}
    pet = PETMatrix(tuple(f"t{i}" for i in range(task_types)),
                    tuple(f"m{j}" for j in range(machine_types)), entries)
    tails = [PMF.delta(0), PMF.delta(draw(st.integers(0, 40))),
             PMF(draw(st.integers(0, 30)), _probs(draw, 3))]
    layout = [(draw(st.integers(0, machine_types - 1)),
               draw(st.sampled_from(tails)),
               draw(st.integers(min_value=0, max_value=4)))
              for _ in range(draw(st.integers(min_value=1, max_value=4)))]
    count = draw(st.integers(min_value=1, max_value=12))
    ids = draw(st.permutations(range(count)))
    tasks = [TaskView(task_id=int(ids[k]) * 7 + 3,
                      type_id=draw(st.integers(0, task_types - 1)),
                      arrival=draw(st.integers(0, 3)),
                      deadline=draw(st.sampled_from(
                          [10_000, 10_000, *range(2, 120, 9)])))
             for k in range(count)]
    return pet, layout, tasks


def _machines(layout):
    return [MachineState(machine_id=k, type_id=tid, free_slots=slots,
                         tail_pmf=tail)
            for k, (tid, tail, slots) in enumerate(layout)]


def _pairs(assignments):
    return [(a.task_id, a.machine_id) for a in assignments]


@seed(20200518)
@settings(max_examples=150, deadline=None)
@given(planes(), st.sampled_from([PAM, MinMin, MSD, EDF]), _NUMERICS,
       st.booleans())
def test_pruned_maps_equal_the_exhaustive_referee(plane, heuristic_cls,
                                                  numerics, memoize):
    pet, layout, tasks = plane
    spec = heuristic_cls.score_spec
    want = referee_map(spec, tasks, _machines(layout),
                       _context(pet, numerics, memoize))
    vector = _map_vector(spec, tasks, _machines(layout),
                         _context(pet, numerics, memoize))
    assert _pairs(vector) == want
    if heuristic_cls is not EDF:  # ordered heuristics have no pair loop
        loop = _map_loop(heuristic_cls(), tasks, _machines(layout),
                         _context(pet, numerics, memoize))
        assert _pairs(loop) == want


@seed(20200518)
@settings(max_examples=200, deadline=None)
@given(planes(), st.sampled_from([PAM, MinMin, MSD, EDF]), _NUMERICS,
       st.data())
def test_pruned_pick_equals_exhaustive_min(plane, heuristic_cls, numerics,
                                           data):
    """One phase-2 selection over arbitrary (machine, task) candidates."""
    pet, layout, tasks = plane
    machines = _machines(layout)
    cands = [(data.draw(st.sampled_from(machines)), task) for task in tasks]
    spec = heuristic_cls.score_spec
    names = spec.phase2 + spec.phase2_tiebreak
    referee_ctx = _context(pet, numerics)
    want = min(range(len(cands)),
               key=lambda i: exact_key(names, referee_ctx, *cands[i]))
    ctx = _context(pet, numerics)
    assert _bounded_argmin(_loop_plan(names, ctx), cands) == want


@pytest.mark.parametrize("heuristic_cls", [PAM, MinMin, MSD])
def test_exact_mean_ties_resolve_like_the_referee(heuristic_cls):
    """Same type, deadlines past the support: every candidate has the same
    expected completion and mean execution, so the lowest task id wins --
    not the first candidate in window order, even where the bound is the
    exact plane value."""
    pet = PETMatrix(("t0",), ("m0",), {(0, 0): PMF(4, [0.5, 0.5])})
    layout = [(0, PMF.delta(0), 3), (0, PMF.delta(0), 3)]
    tasks = [TaskView(task_id=i, type_id=0, arrival=0, deadline=10_000)
             for i in (9, 7, 5, 3, 1, 8)]
    spec = heuristic_cls.score_spec
    want = referee_map(spec, tasks, _machines(layout), _context(pet, None))
    assert want[0][0] == 1
    got = _map_vector(spec, tasks, _machines(layout), _context(pet, None))
    assert _pairs(got) == want
    loop = _map_loop(heuristic_cls(), tasks, _machines(layout),
                     _context(pet, None))
    assert _pairs(loop) == want


def test_pam_mean_ties_resolve_by_mean_execution():
    """Two pairs on different machines complete at exactly 10 on average;
    the one with the shorter execution wins, whatever its task id."""
    pet = PETMatrix(("t0", "t1"), ("m0", "m1"),
                    {(0, 0): PMF.delta(10), (0, 1): PMF.delta(100),
                     (1, 0): PMF.delta(60), (1, 1): PMF.delta(5)})
    layout = [(0, PMF.delta(0), 1), (1, PMF.delta(5), 1)]
    tasks = [TaskView(task_id=0, type_id=0, arrival=0, deadline=50),
             TaskView(task_id=1, type_id=1, arrival=0, deadline=50)]
    want = referee_map(PAM.score_spec, tasks, _machines(layout),
                       _context(pet, None))
    assert want == [(1, 1), (0, 0)]
    for numerics in (None, "fast"):
        got = _map_vector(PAM.score_spec, tasks, _machines(layout),
                          _context(pet, numerics))
        assert _pairs(got) == want
        loop = _map_loop(PAM(), tasks, _machines(layout),
                         _context(pet, numerics))
        assert _pairs(loop) == want


# ----------------------------------------------------------------------
# Work: one-machine rounds and hopeless candidates
# ----------------------------------------------------------------------
class CountingContext(MappingContext):
    """Counts column refills and appended folds per task id."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.blocks = 0
        self.folded: Counter = Counter()

    def score_block(self, machine, tasks, **kwargs):
        self.blocks += 1
        return super().score_block(machine, tasks, **kwargs)

    def completion_if_appended(self, machine, task):
        self.folded[task.task_id] += 1
        return super().completion_if_appended(machine, task)


def _exhaustive_plane_evals(window: int, rounds: int, lazy: int) -> int:
    """``plane_evals`` of the exhaustive plane with one free machine and one
    winner per round: every round refills that machine's moved column for
    each live row and gathers each of ``lazy`` phase-2 columns."""
    return sum((1 + lazy) * (window - r) for r in range(rounds))


@pytest.mark.parametrize("numerics", [None, "exact", "fast"])
def test_one_machine_round_folds_no_phase1_cell(numerics):
    pet = PETMatrix(("t0", "t1"), ("m0",),
                    {(0, 0): PMF(5, [0.5, 0.5]), (1, 0): PMF(9, [0.2, 0.8])})
    layout = [(0, PMF.delta(0), 0), (0, PMF.delta(3), 4), (0, PMF.delta(1), 0)]
    tasks = [TaskView(task_id=k, type_id=k % 2, arrival=0, deadline=20 + k)
             for k in range(12)]
    folder = ChainFolder(numerics=numerics) if numerics else None
    ctx = CountingContext(pet, now=0, folder=folder)
    got = _map_vector(PAM.score_spec, tasks, _machines(layout), ctx)
    want = referee_map(PAM.score_spec, tasks, _machines(layout),
                       _context(pet, numerics))
    assert _pairs(got) == want
    assert ctx.blocks == 0  # no phase-1 column was filled
    # Phase 2 folded only the pairs its bound could not rule out: far
    # fewer than one per live row and round.
    assert sum(ctx.folded.values()) < sum(12 - r for r in range(4))
    # PAM gathers two phase-2 columns lazily (expected completion, mean
    # execution); the chance column would have been refilled every round.
    assert ctx.plane_evals == _exhaustive_plane_evals(len(tasks), 4, lazy=2)
    assert ctx.plane_rounds == 4


def test_first_one_machine_round_reads_the_current_plane():
    """After a two-machine round that committed to the other machine, the
    lone free machine's column is still current: it is read, not refilled
    or counted again."""
    pet = PETMatrix(("t0",), ("m0",), {(0, 0): PMF(5, [0.5, 0.5])})
    layout = [(0, PMF.delta(0), 1), (0, PMF.delta(30), 2)]
    tasks = [TaskView(task_id=k, type_id=0, arrival=0, deadline=10_000)
             for k in range(10)]
    ctx = CountingContext(pet, now=0)
    got = _map_vector(MinMin.score_spec, tasks, _machines(layout), ctx)
    assert _pairs(got)[0] == (0, 0)
    assert _pairs(got) == referee_map(MinMin.score_spec, tasks,
                                      _machines(layout), _context(pet, None))
    # Round 1 fills both columns (10 rows each); round 2 reads machine 1's
    # current column; round 3 would refill it for the 8 live rows.
    assert ctx.blocks == 2
    assert ctx.plane_evals == 2 * 10 + 0 + 8


@pytest.mark.parametrize("backend", ["loop", "vector"])
@pytest.mark.parametrize("numerics", [None, "exact", "fast"])
def test_hopeless_candidate_is_never_folded(backend, numerics):
    """A task whose execution alone outlasts every rival's completion has a
    bound above the best expected completion: phase 2 never folds it."""
    pet = PETMatrix(("quick", "slow"), ("m0",),
                    {(0, 0): PMF(4, [0.5, 0.5]), (1, 0): PMF(400, [1.0])})
    layout = [(0, PMF.delta(0), 1), (0, PMF.delta(2), 0)]
    tasks = [TaskView(task_id=k, type_id=int(k == 5), arrival=0,
                      deadline=10_000) for k in range(12)]
    folder = ChainFolder(numerics=numerics) if numerics else None
    ctx = CountingContext(pet, now=0, folder=folder)
    if backend == "loop":
        got = _map_loop(PAM(), tasks, _machines(layout), ctx)
    else:
        got = _map_vector(PAM.score_spec, tasks, _machines(layout), ctx)
    assert _pairs(got) == [(0, 0)]
    assert ctx.folded[5] == 0
