"""Bound-pruned PAM phase 1 on the loop backend against an exhaustive referee.

The loop backend skips machines whose chance-of-success bound already
loses to the best chance found (:func:`repro.mapping.kernel._bounded_argmin`
over PAM's phase-1 key plan).
Every pick must equal the exhaustive ``min(free, key=(score, machine_id))``
the loop computed before the pruning -- across ties at chance 0 and 1,
same-type machines, sub-probability tails, execution masses above one,
transfer-shifted execution PMFs and both numerics profiles.
"""

from typing import Dict, List, Tuple

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.core.completion import ChainFolder
from repro.core.pet import PETMatrix
from repro.core.pmf import MASS_TOLERANCE, PMF
from repro.mapping import PAM
from repro.mapping import kernel
from repro.mapping.base import MachineState, MappingContext, TaskView
from repro.mapping.kernel import _bounded_argmin, _loop_plan, _map_loop


class ShiftedExecution:
    """Stand-in for a topology's transfer-composed execution view: every
    (task type, machine) entry is the PET entry shifted by a transfer time."""

    def __init__(self, pet: PETMatrix, machine_types: Dict[int, int],
                 shifts: Dict[int, int]):
        self._pmfs = {}
        self._means = {}
        for i in range(pet.num_task_types):
            for mid, tid in machine_types.items():
                base = pet.pmf(i, tid)
                self._pmfs[(i, mid)] = PMF(base.origin + shifts[mid],
                                           base.probs)
                self._means[(i, mid)] = (pet.mean_execution(i, tid)
                                         + shifts[mid])

    def pmf(self, type_id: int, machine_id: int) -> PMF:
        return self._pmfs[(type_id, machine_id)]

    def mean(self, type_id: int, machine_id: int) -> float:
        return self._means[(type_id, machine_id)]


def pruned_pick(ctx, machines, task):
    """PAM's phase 1 as the loop backend runs it."""
    spec = PAM.score_spec
    plan = _loop_plan(spec.phase1 + spec.phase1_tiebreak, ctx)
    return machines[_bounded_argmin(plan, [(m, task) for m in machines])]


def exhaustive_pick(ctx, machines, task):
    """The unpruned phase 1: every free machine scored."""
    return min(machines, key=lambda m: (PAM().phase1_score(ctx, m, task),
                                        m.machine_id))


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
def _probs(draw, size, mass):
    weights = draw(st.lists(st.floats(min_value=0.01, max_value=1.0),
                            min_size=size, max_size=size))
    total = sum(weights)
    return [w / total * mass for w in weights]


#: PET entries are normalised up to ``MASS_TOLERANCE`` either way; the
#: bound must hold for masses just above one too.
_EXEC_MASSES = st.sampled_from([1.0, 1.0 + MASS_TOLERANCE * 0.99,
                                1.0 - MASS_TOLERANCE * 0.99])


@st.composite
def planes(draw, tail_kinds=("idle", "busy", "late", "empty")):
    task_types = draw(st.integers(min_value=1, max_value=3))
    machine_types = draw(st.integers(min_value=1, max_value=3))
    entries = {}
    for i in range(task_types):
        for j in range(machine_types):
            size = draw(st.integers(min_value=1, max_value=4))
            entries[(i, j)] = PMF(draw(st.integers(min_value=1, max_value=40)),
                                  _probs(draw, size, draw(_EXEC_MASSES)))
    pet = PETMatrix(tuple(f"t{i}" for i in range(task_types)),
                    tuple(f"m{j}" for j in range(machine_types)), entries)
    layout: List[Tuple[int, PMF]] = []
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        type_id = draw(st.integers(min_value=0, max_value=machine_types - 1))
        kind = draw(st.sampled_from(tail_kinds))
        if kind == "idle":
            tail = PMF.delta(draw(st.integers(min_value=0, max_value=5)))
        elif kind == "empty":
            tail = PMF.empty()
        else:
            # ``late`` tails hold all their mass past every deadline drawn
            # below: each task appended there has chance exactly 0.
            lo = 500 if kind == "late" else 0
            size = draw(st.integers(min_value=1, max_value=6))
            mass = draw(st.sampled_from([1.0, 0.6, 0.05]))
            tail = PMF(lo + draw(st.integers(min_value=0, max_value=60)),
                       _probs(draw, size, mass))
        layout.append((type_id, tail))
    tasks = [TaskView(task_id=k, type_id=draw(st.integers(0, task_types - 1)),
                      arrival=0,
                      # 10_000 clears every tail and execution: chance 1.
                      deadline=draw(st.sampled_from(
                          [1, 10_000, *range(5, 160, 7)])))
             for k in range(draw(st.integers(min_value=1, max_value=4)))]
    shifts = (draw(st.lists(st.integers(min_value=0, max_value=30),
                            min_size=len(layout), max_size=len(layout)))
              if draw(st.booleans()) else None)
    return pet, layout, tasks, shifts


def _machines(layout):
    return [MachineState(machine_id=k, type_id=tid, free_slots=2,
                         tail_pmf=tail)
            for k, (tid, tail) in enumerate(layout)]


def _context(pet, layout, shifts, numerics, memoize):
    exec_view = None
    if shifts is not None:
        exec_view = ShiftedExecution(
            pet, {k: tid for k, (tid, _) in enumerate(layout)},
            dict(enumerate(shifts)))
    folder = ChainFolder(numerics=numerics) if numerics else None
    return MappingContext(pet, now=0, folder=folder, memoize_scores=memoize,
                          exec_view=exec_view)


_NUMERICS = st.sampled_from([None, "exact", "fast"])


@seed(20200518)
@settings(max_examples=300, deadline=None)
@given(planes(), _NUMERICS, st.booleans())
def test_pruned_pick_equals_exhaustive_min(plane, numerics, memoize):
    pet, layout, tasks, shifts = plane
    ctx = _context(pet, layout, shifts, numerics, memoize)
    referee_ctx = _context(pet, layout, shifts, numerics, memoize)
    machines = _machines(layout)
    for task in tasks:
        got = pruned_pick(ctx, machines, task)
        want = exhaustive_pick(referee_ctx, machines, task)
        assert got.machine_id == want.machine_id


@seed(20200518)
@settings(max_examples=150, deadline=None)
@given(planes(tail_kinds=("idle", "busy", "late")), _NUMERICS)
def test_pruned_loop_maps_like_the_unpruned_loop(plane, numerics):
    # No empty tails: phase 2's expected completion is undefined on them.
    pet, layout, tasks, shifts = plane
    pruned = _map_loop(PAM(), tasks, _machines(layout),
                       _context(pet, layout, shifts, numerics, True))
    unpruned_ctx = _context(pet, layout, shifts, numerics, True)
    original = kernel._KeyPlan.bound
    kernel._KeyPlan.bound = lambda self, a, b: ()  # no bound: score all
    try:
        unpruned = _map_loop(PAM(), tasks, _machines(layout), unpruned_ctx)
    finally:
        kernel._KeyPlan.bound = original
    assert pruned == unpruned


@pytest.mark.parametrize("numerics", [None, "fast"])
@pytest.mark.parametrize("deadline,chance", [(10_000, 1.0), (50, 0.0)])
def test_ties_resolve_to_the_lowest_machine_id(numerics, deadline, chance):
    """Same-type machines with equal chances: the lowest id wins, as in
    the exhaustive ``min``, whatever the bound order."""
    pet = PETMatrix(("t0",), ("m0",), {(0, 0): PMF.delta(10)})
    tail = PMF.delta(0) if chance == 1.0 else PMF.delta(400)
    layout = [(0, tail)] * 4
    ctx = _context(pet, layout, None, numerics, False)
    task = TaskView(task_id=0, type_id=0, arrival=0, deadline=deadline)
    machines = _machines(layout)[::-1]  # input order must not matter
    assert ctx.chance_of_success(machines[0], task) == chance
    assert pruned_pick(ctx, machines, task).machine_id == 0


@pytest.mark.parametrize("numerics", [None, "exact", "fast"])
def test_hopeless_machine_is_never_scored(numerics):
    """A machine whose tail ends past the deadline has bound 0 and is
    skipped once another machine shows a positive chance."""
    pet = PETMatrix(("t0",), ("m0",), {(0, 0): PMF(5, [0.5, 0.5])})
    layout = [(0, PMF.delta(0)), (0, PMF.delta(300)), (0, PMF.delta(2))]
    ctx = _context(pet, layout, None, numerics, False)
    scored: List[int] = []
    chance = ctx.chance_of_success

    def counted(machine, task):
        scored.append(machine.machine_id)
        return chance(machine, task)

    ctx.chance_of_success = counted
    task = TaskView(task_id=0, type_id=0, arrival=0, deadline=100)
    assignments = _map_loop(PAM(), [task], _machines(layout), ctx)
    assert [a.machine_id for a in assignments] == [0]
    assert 1 not in scored
    assert ctx.plane_evals == 1 * (3 + 1)  # the nominal plane, unchanged


def test_chance_bound_dominates_the_chance():
    rng = np.random.default_rng(7)
    for _ in range(200):
        weights = rng.random(4) + 0.01
        exec_pmf = PMF(int(rng.integers(1, 20)),
                       weights / weights.sum() * (1 + MASS_TOLERANCE * 0.99))
        pet = PETMatrix(("t0",), ("m0",), {(0, 0): exec_pmf})
        tail = PMF(int(rng.integers(0, 30)), rng.random(6) * 0.1)
        machine = MachineState(machine_id=0, type_id=0, free_slots=1,
                               tail_pmf=tail)
        task = TaskView(task_id=0, type_id=0, arrival=0,
                        deadline=int(rng.integers(1, 80)))
        for numerics in (None, "fast"):
            ctx = _context(pet, [(0, tail)], None, numerics, False)
            assert ctx.chance_of_success(machine, task) <= \
                ctx.chance_bound(machine, task)
