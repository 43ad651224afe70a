"""The declarative score-plane engine: spec validation, backend equality.

The vector backend must reproduce the loop backend's assignments exactly --
same pairs, same order -- on every heuristic and any plane shape, because
the simulator's equivalence guarantee (``tests/sim/test_equivalence.py``)
rests on the two backends being interchangeable.  These tests pin that
property at the unit level on randomised planes (calling each backend
directly), the window-width rule that picks a backend, plus the
pluggability of score columns and the legacy escape hatch for imperative
subclasses.
"""

import numpy as np
import pytest

from repro.core.pet import PETMatrix
from repro.core.pmf import PMF
from repro.mapping import EDF, MSD, PAM, MinMin
from repro.mapping.base import (MachineState, MappingContext, ScoreSpec,
                                TaskView, TwoPhaseMappingHeuristic)
from repro.mapping.kernel import (SCORE_COLUMNS, SMALL_PLANE_TASKS,
                                  _bounded_argmin, _KeyPlan,
                                  _lex_argmin_rows, _map_loop, _map_vector,
                                  evaluate_columns, register_score_column)


def random_pet(rng, task_types, machine_types):
    entries = {}
    for i in range(task_types):
        for j in range(machine_types):
            size = int(rng.integers(1, 6))
            probs = rng.random(size) + 0.05
            probs /= probs.sum()
            entries[(i, j)] = PMF(int(rng.integers(1, 30)), probs)
    return PETMatrix(tuple(f"t{i}" for i in range(task_types)),
                     tuple(f"m{j}" for j in range(machine_types)),
                     entries)


def random_plane(rng, num_tasks, num_machines, task_types, machine_types):
    """A (tasks, machines-factory) pair; machines are rebuilt per backend
    because heuristics mutate them."""
    pet = random_pet(rng, task_types, machine_types)
    tasks = [TaskView(task_id=int(rng.integers(0, 10_000)) * 100 + i,
                      type_id=int(rng.integers(0, task_types)),
                      arrival=0,
                      deadline=int(rng.integers(5, 120)))
             for i in range(num_tasks)]
    layout = [(int(rng.integers(0, machine_types)),
               int(rng.integers(0, 4)),
               int(rng.integers(0, 40)))
              for _ in range(num_machines)]

    def machines():
        return [MachineState(machine_id=mid, type_id=tid,
                             free_slots=slots, tail_pmf=PMF.delta(tail))
                for mid, (tid, slots, tail) in enumerate(layout)]

    return pet, tasks, machines


def run_both(heuristic, pet, tasks, machines):
    """Map one plane on each backend directly, whatever its width."""
    loop_ctx = MappingContext(pet, now=0)
    loop = _map_loop(heuristic, tasks, machines(), loop_ctx)
    vector_ctx = MappingContext(pet, now=0)
    vector = _map_vector(heuristic.score_spec, tasks, machines(), vector_ctx)
    return loop, vector, loop_ctx, vector_ctx


class TestScoreSpec:
    def test_rejects_empty_phases(self):
        with pytest.raises(ValueError, match="at least one column"):
            ScoreSpec(phase1=(), phase2=("expected_completion",))

    def test_columns_deduplicate_in_order(self):
        spec = ScoreSpec(phase1=("expected_completion",),
                         phase2=("deadline", "expected_completion"))
        assert spec.columns == ("expected_completion", "deadline")

    def test_unknown_column_raises_with_known_names(self):
        spec = ScoreSpec(phase1=("no_such_column",), phase2=("deadline",))

        class Bogus(TwoPhaseMappingHeuristic):
            name = "bogus"
            score_spec = spec

        pet = random_pet(np.random.default_rng(0), 1, 1)
        machines = [MachineState(machine_id=0, type_id=0, free_slots=1,
                                 tail_pmf=PMF.delta(0))]
        tasks = [TaskView(task_id=0, type_id=0, arrival=0, deadline=50)]
        with pytest.raises(KeyError, match="no_such_column"):
            Bogus().map_tasks(tasks, machines, MappingContext(pet, now=0))
        with pytest.raises(KeyError, match="no_such_column"):
            _map_vector(spec, tasks, machines, MappingContext(pet, now=0))

    def test_spec_syncs_assign_per_machine(self):
        assert MinMin.assign_per_machine is True
        assert PAM.assign_per_machine is False


class TestLexArgmin:
    def test_matches_python_min_rows(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            rows, cols = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            keys = [rng.integers(0, 4, size=(rows, cols)).astype(float)
                    for _ in range(3)]
            got = _lex_argmin_rows(keys)
            for r in range(rows):
                expected = min(range(cols),
                               key=lambda c: tuple(k[r, c] for k in keys))
                assert got[r] == expected

    def test_matches_python_min_1d(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(1, 12))
            keys = [rng.integers(0, 3, size=n).astype(float)
                    for _ in range(3)]
            expected = min(range(n), key=lambda i: tuple(k[i] for k in keys))
            # A plan without bounds: the selection scores every candidate.
            plan = _KeyPlan((), None, None, score=lambda i, _: tuple(
                k[i] for k in keys))
            assert _bounded_argmin(plan, [(i, None) for i in range(n)]) \
                == expected


class TestBackendEquality:
    @pytest.mark.parametrize("heuristic_cls", [MinMin, MSD, PAM])
    def test_random_planes_identical_assignments(self, heuristic_cls):
        rng = np.random.default_rng(42)
        for trial in range(30):
            pet, tasks, machines = random_plane(
                rng,
                num_tasks=int(rng.integers(SMALL_PLANE_TASKS, 24)),
                num_machines=int(rng.integers(1, 7)),
                task_types=int(rng.integers(1, 4)),
                machine_types=int(rng.integers(1, 4)))
            loop, vector, _, _ = run_both(heuristic_cls(), pet, tasks,
                                          machines)
            assert loop == vector

    def test_duplicate_scores_break_ties_identically(self):
        # A degenerate PET (every pair identical) forces full-tie planes;
        # the declared tie-break columns must reproduce the loop's order.
        pet = PETMatrix(("t0",), ("m0", "m1"),
                        {(0, 0): PMF.delta(10), (0, 1): PMF.delta(10)})
        tasks = [TaskView(task_id=i, type_id=0, arrival=0, deadline=1000)
                 for i in (5, 3, 9, 1, 7)]

        def machines():
            return [MachineState(machine_id=mid, type_id=mid, free_slots=2,
                                 tail_pmf=PMF.delta(0)) for mid in range(2)]

        for heuristic in (MinMin(), MSD(), PAM()):
            loop, vector, _, _ = run_both(heuristic, pet, tasks, machines)
            assert loop == vector

    def test_plane_counters_populated(self):
        rng = np.random.default_rng(3)
        pet, tasks, machines = random_plane(rng, num_tasks=8, num_machines=4,
                                            task_types=2, machine_types=2)
        _, _, loop_ctx, vector_ctx = run_both(MinMin(), pet, tasks, machines)
        assert loop_ctx.plane_rounds > 0 and vector_ctx.plane_rounds > 0
        assert loop_ctx.plane_evals > 0 and vector_ctx.plane_evals > 0
        # The vector backend only refills moved columns, so it issues
        # no more evaluations than the re-score-everything loop.
        assert vector_ctx.plane_evals <= loop_ctx.plane_evals

    def test_small_planes_dispatch_identically(self, monkeypatch):
        # Below the dispatch threshold a window runs on the loop; forcing
        # the vector engine instead must not change anything.
        rng = np.random.default_rng(4)
        pet, tasks, machines = random_plane(rng, num_tasks=2, num_machines=3,
                                            task_types=2, machine_types=2)
        dispatched = MSD().map_tasks(tasks, machines(),
                                     MappingContext(pet, now=0))
        loop, vector, _, _ = run_both(MSD(), pet, tasks, machines)
        assert dispatched == loop == vector
        monkeypatch.setattr("repro.mapping.kernel.SMALL_PLANE_TASKS", 0)
        forced = MSD().map_tasks(tasks, machines(),
                                 MappingContext(pet, now=0))
        assert forced == loop

    @pytest.mark.parametrize("heuristic_cls", [PAM, EDF])
    def test_window_width_picks_backend(self, heuristic_cls):
        # A window one task short of SMALL_PLANE_TASKS runs on the loop,
        # a window of exactly SMALL_PLANE_TASKS on the plane.  The plane
        # counters tell the two apart: the ordered heuristics' greedy loop
        # never touches them, and the two-phase loop counts its per-round
        # re-scoring differently from the plane's column fills.
        rng = np.random.default_rng(10)
        pet, tasks, machines = random_plane(
            rng, num_tasks=SMALL_PLANE_TASKS, num_machines=4, task_types=2,
            machine_types=2)
        for width, on_plane in ((SMALL_PLANE_TASKS - 1, False),
                                (SMALL_PLANE_TASKS, True)):
            window = tasks[:width]
            ctx = MappingContext(pet, now=0)
            heuristic_cls().map_tasks(window, machines(), ctx)
            if heuristic_cls is EDF:
                assert (ctx.plane_rounds > 0) is on_plane
                continue
            loop_ctx = MappingContext(pet, now=0)
            _map_loop(heuristic_cls(), window, machines(), loop_ctx)
            plane_ctx = MappingContext(pet, now=0)
            _map_vector(heuristic_cls.score_spec, window, machines(),
                        plane_ctx)
            def counts(c):
                return c.plane_rounds, c.plane_evals

            assert counts(loop_ctx) != counts(plane_ctx)
            assert counts(ctx) == counts(plane_ctx if on_plane else loop_ctx)


class TestPluggability:
    def test_custom_column_and_spec_on_both_backends(self):
        register_score_column(
            "test_laxity",
            lambda ctx, machine, task: float(task.deadline - task.arrival),
            kind="task")
        try:
            class Laxity(TwoPhaseMappingHeuristic):
                name = "LAX"
                score_spec = ScoreSpec(
                    phase1=("expected_completion",),
                    phase2=("test_laxity", "expected_completion"),
                    assign_per_machine=True)

            rng = np.random.default_rng(5)
            pet, tasks, machines = random_plane(rng, num_tasks=10,
                                                num_machines=3,
                                                task_types=2,
                                                machine_types=2)
            loop, vector, _, _ = run_both(Laxity(), pet, tasks, machines)
            assert loop == vector and loop
        finally:
            del SCORE_COLUMNS["test_laxity"]

    def test_custom_pair_column_falls_back_to_scalar_fill(self):
        register_score_column(
            "test_pair_bias",
            lambda ctx, machine, task: ctx.expected_completion(machine, task)
            + machine.machine_id * 0.125,
            kind="pair")
        try:
            class Biased(TwoPhaseMappingHeuristic):
                name = "BIAS"
                score_spec = ScoreSpec(phase1=("test_pair_bias",),
                                       phase2=("test_pair_bias",),
                                       assign_per_machine=True)

            rng = np.random.default_rng(6)
            pet, tasks, machines = random_plane(rng, num_tasks=9,
                                                num_machines=4,
                                                task_types=2,
                                                machine_types=3)
            loop, vector, _, _ = run_both(Biased(), pet, tasks, machines)
            assert loop == vector and loop
        finally:
            del SCORE_COLUMNS["test_pair_bias"]

    def test_register_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="column kind"):
            register_score_column("bad", lambda *a: 0.0, kind="galaxy")

    def test_legacy_imperative_subclass_runs_on_loop(self, monkeypatch):
        class Legacy(TwoPhaseMappingHeuristic):
            name = "LEGACY"
            assign_per_machine = True

            def phase1_score(self, ctx, machine, task):
                return ctx.expected_completion(machine, task)

            def phase2_score(self, ctx, machine, task):
                return (ctx.expected_completion(machine, task),)

        rng = np.random.default_rng(7)
        pet, tasks, machines = random_plane(rng, num_tasks=8, num_machines=3,
                                            task_types=2, machine_types=2)
        # Even a window the width rule would send to the plane runs the
        # legacy scores on the loop, with the declarative MinMin's result.
        monkeypatch.setattr("repro.mapping.kernel.SMALL_PLANE_TASKS", 0)
        legacy = Legacy().map_tasks(tasks, machines(),
                                    MappingContext(pet, now=0))
        loop, vector, _, _ = run_both(MinMin(), pet, tasks, machines)
        assert legacy == loop == vector

    def test_override_of_a_declared_spec_runs_on_loop(self, monkeypatch):
        class Latest(MinMin):
            # A phase-1 score the inherited spec does not describe: prefer
            # the machine that finishes last.
            def phase1_score(self, ctx, machine, task):
                return -ctx.expected_completion(machine, task)

        rng = np.random.default_rng(11)
        pet, tasks, machines = random_plane(rng, num_tasks=12, num_machines=4,
                                            task_types=2, machine_types=2)
        monkeypatch.setattr("repro.mapping.kernel.SMALL_PLANE_TASKS", 0)
        got = Latest().map_tasks(tasks, machines(),
                                 MappingContext(pet, now=0))
        expected = _map_loop(Latest(), tasks, machines(),
                             MappingContext(pet, now=0))
        declared = MinMin().map_tasks(tasks, machines(),
                                      MappingContext(pet, now=0))
        assert got == expected and got != declared

    def test_spec_evaluation_matches_column_scalars(self):
        pet = random_pet(np.random.default_rng(8), 2, 2)
        ctx = MappingContext(pet, now=0)
        machine = MachineState(machine_id=1, type_id=1, free_slots=2,
                               tail_pmf=PMF.delta(4))
        task = TaskView(task_id=3, type_id=1, arrival=0, deadline=60)
        values = evaluate_columns(
            ("expected_completion", "neg_chance_of_success", "deadline",
             "mean_execution"), ctx, machine, task)
        assert values[0] == ctx.expected_completion(machine, task)
        assert values[1] == -ctx.chance_of_success(machine, task)
        assert values[2] == float(task.deadline)
        assert values[3] == ctx.mean_execution(task, machine)

    def test_base_class_without_spec_raises(self):
        class Bare(TwoPhaseMappingHeuristic):
            name = "BARE"

        pet = random_pet(np.random.default_rng(9), 1, 1)
        machines = [MachineState(machine_id=0, type_id=0, free_slots=1,
                                 tail_pmf=PMF.delta(0))]
        tasks = [TaskView(task_id=0, type_id=0, arrival=0, deadline=50)]
        with pytest.raises(TypeError, match="score_spec"):
            Bare().map_tasks(tasks, machines, MappingContext(pet, now=0))
