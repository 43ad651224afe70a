"""Score-plane execution engine of the two-phase mapping heuristics.

Two-phase heuristics *declare* their scores (:class:`~repro.mapping.base.ScoreSpec`);
this module *executes* the declaration.  Every mapping round reduces to a
lexicographic argmin over a (task x machine) score plane, and two backends
implement it:

* ``loop`` -- the reference per-pair implementation: Python ``min`` over
  score tuples, exactly the historical behaviour of
  ``TwoPhaseMappingHeuristic.map_tasks``.  Legacy subclasses that override
  the imperative ``phase1_score`` / ``phase2_score`` callables always run
  here.
* ``vector`` -- the batched engine: phase-1 score columns are materialised
  as NumPy matrices (appended-completion columns through the batched
  kernel in :mod:`repro.core.completion`), only the columns of machines
  whose provisional tail moved are refilled between rounds, and phase 1 is
  a vectorised lexicographic argmin whose explicit tie-break columns
  reproduce the loop backend's pick order bit-for-bit.  A round with one
  free machine has no phase 1: every task targets that machine.

Every exact score either backend computes uses the same arithmetic (same
folds, same ``mean``/``mass_before`` reductions), so both produce
*identical* assignments -- the property pinned by the simulator's
equivalence grid (``tests/sim/test_equivalence.py``).  Neither computes
every score: each selection visits its candidates in ascending order of a
fold-free bound (a column's ``lower_bound``) and stops once a bound loses
to the best exact key (:func:`_bounded_argmin`), which changes which pairs
are scored but not what is picked.

Columns are pluggable: :func:`register_score_column` adds a named column
that declarative heuristics can reference from their spec; custom ``pair``
columns fall back to per-pair scalar evaluation inside the vector backend
while selection stays vectorised.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .base import (Assignment, MachineState, MappingContext, ScoreSpec,
                   TaskView, TwoPhaseMappingHeuristic)

__all__ = ["ScoreColumn", "SCORE_COLUMNS", "register_score_column",
           "evaluate_columns", "plane_spec", "run_two_phase",
           "run_ordered_plane"]

#: Column kinds understood by the vector backend (see :class:`ScoreColumn`).
COLUMN_KINDS = ("appended_mean", "appended_chance", "task", "static_pair",
                "pair")


@dataclass(frozen=True)
class ScoreColumn:
    """One named column of the (task x machine) score plane.

    Attributes
    ----------
    name:
        Registry name referenced by :class:`~repro.mapping.base.ScoreSpec`.
    scalar:
        Per-pair evaluation ``(ctx, machine, task) -> float``; the loop
        backend uses it exclusively, the vector backend only for ``pair`` /
        ``static_pair`` / ``task`` kinds (``task`` columns are called with
        ``machine=None``).
    kind:
        How the vector backend fills the column:

        * ``appended_mean`` / ``appended_chance`` -- served by the batched
          appended-completion kernel (expected completion time / chance of
          success of the task appended to the machine's provisional tail);
          refilled whenever the tail moves.
        * ``task`` -- a per-task value independent of the machine.
        * ``static_pair`` -- a per-(task, machine) value independent of the
          provisional tail (never refilled).
        * ``pair`` -- a general per-(task, machine) value re-evaluated
          whenever the machine tail moves (scalar fallback for custom
          columns).
    negate:
        For ``appended_chance`` columns: store the *negated* chance so the
        engine's minimisation maximises the chance of success.
    lower_bound:
        Optional ``(ctx, machine, task) -> float`` that the column's scalar
        never falls below and that costs no Eq. 1 fold.  Every selection
        whose key reaches this column through cheap exact columns only
        visits its candidates in ascending bound order and stops once a
        bound exceeds the best key found (:func:`_bounded_argmin`).
        ``neg_chance_of_success`` declares ``-ctx.chance_bound``: appending
        never moves mass earlier, so ``chance(fold(tail, e, d)) <=
        tail.mass_before(d - e.origin) * max(1, mass(e))``.
        ``expected_completion`` declares
        ``ctx.expected_completion_bound``: the closed-form mean of the
        append minus a rounding and a pruning margin.
    """

    name: str
    scalar: Callable[[MappingContext, Optional[MachineState], TaskView], float]
    kind: str = "pair"
    negate: bool = False
    lower_bound: Optional[
        Callable[[MappingContext, MachineState, TaskView], float]] = None


#: Registry of score columns available to declarative heuristics.
SCORE_COLUMNS: Dict[str, ScoreColumn] = {}


def register_score_column(name: str,
                          scalar: Callable[..., float],
                          kind: str = "pair",
                          negate: bool = False,
                          lower_bound: Optional[Callable[..., float]] = None,
                          ) -> ScoreColumn:
    """Register a named score column for use in :class:`ScoreSpec` columns."""
    if kind not in COLUMN_KINDS:
        raise ValueError(f"unknown column kind {kind!r}; expected one of "
                         f"{COLUMN_KINDS}")
    column = ScoreColumn(name=str(name), scalar=scalar, kind=kind,
                         negate=bool(negate), lower_bound=lower_bound)
    SCORE_COLUMNS[column.name] = column
    return column


register_score_column(
    "expected_completion",
    lambda ctx, machine, task: ctx.expected_completion(machine, task),
    kind="appended_mean",
    lower_bound=lambda ctx, machine, task:
        ctx.expected_completion_bound(machine, task))
register_score_column(
    "neg_chance_of_success",
    lambda ctx, machine, task: -ctx.chance_of_success(machine, task),
    kind="appended_chance", negate=True,
    lower_bound=lambda ctx, machine, task: -ctx.chance_bound(machine, task))
register_score_column(
    "deadline",
    lambda ctx, machine, task: float(task.deadline),
    kind="task")
register_score_column(
    "mean_execution",
    lambda ctx, machine, task: ctx.mean_execution(task, machine),
    kind="static_pair")
register_score_column(
    "arrival",
    lambda ctx, machine, task: float(task.arrival),
    kind="task")
register_score_column(
    "mean_execution_over_types",
    lambda ctx, machine, task: ctx.mean_execution_over_types(task),
    kind="task")


def _column(name: str) -> ScoreColumn:
    try:
        return SCORE_COLUMNS[name]
    except KeyError:
        known = ", ".join(sorted(SCORE_COLUMNS))
        raise KeyError(f"unknown score column {name!r}; registered columns: "
                       f"{known}") from None


def evaluate_columns(names: Sequence[str], ctx: MappingContext,
                     machine: Optional[MachineState],
                     task: TaskView) -> Tuple[float, ...]:
    """Evaluate named columns for one (task, machine) pair (loop backend)."""
    return tuple(_column(name).scalar(ctx, machine, task) for name in names)


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
#: Window sizes below this have no plane width worth vectorising, so they
#: run on the per-pair loop (identical results; NumPy per-round overhead
#: would dominate a narrow "plane").  The value is the measured
#: vector-vs-loop crossover: timing both backends over forced window
#: widths 1-14 of PAM + react on spec 40k, gamma 5, on the reference
#: machine (min-of-2 timings), the loop wins clearly up to ~9-task planes,
#: the ratio crosses 1.0 around 10-13 (within run-to-run noise), and the
#: vector engine wins from there up.  That crossover was measured against
#: the exhaustive plane, before bound-pruned selection and one-machine
#: rounds; the value stays, since moving it moves ``plane_evals``.  Tests
#: and ``repro bench`` force one backend by rebinding this module constant
#: (``sys.maxsize`` = always the loop, ``0`` = always the plane).
SMALL_PLANE_TASKS = 10


def plane_spec(spec: Optional[ScoreSpec], overridden: bool,
               tasks: Sequence[TaskView]) -> Optional[ScoreSpec]:
    """The spec a mapping call runs on the vector engine, or ``None``.

    ``None`` sends the call to the per-pair loop.  The plane runs for a
    declared ``spec`` without a legacy score/priority override (the engine
    cannot see inside an arbitrary override) once the window holds at
    least :data:`SMALL_PLANE_TASKS` tasks.  Both backends pick identical
    assignments, so the window width is the whole choice.
    """
    if spec is None or overridden or len(tasks) < SMALL_PLANE_TASKS:
        return None
    return spec


def run_two_phase(heuristic: TwoPhaseMappingHeuristic,
                  tasks: Sequence[TaskView],
                  machines: Sequence[MachineState],
                  ctx: MappingContext) -> List[Assignment]:
    """Execute a two-phase heuristic on the backend :func:`plane_spec` picks."""
    spec = plane_spec(heuristic.score_spec, _overrides_scores(heuristic),
                      tasks)
    if spec is not None:
        return _map_vector(spec, tasks, machines, ctx)
    return _map_loop(heuristic, tasks, machines, ctx)


def run_ordered_plane(spec: ScoreSpec, tasks: Sequence[TaskView],
                      machines: Sequence[MachineState],
                      ctx: MappingContext) -> List[Assignment]:
    """Execute an ordered heuristic's one-phase spec on the vector engine.

    The spec (built by ``OrderedMappingHeuristic.__init_subclass__``) maps
    the greedy most-urgent-task-first loop onto the two-phase plane: phase 1
    is the machine choice (minimum expected completion, lowest machine id on
    ties) and phase 2 the static priority key with one global winner per
    round -- so the engine commits tasks in exactly the order the reference
    loop's pre-sort would, while the expected-completion column is filled
    through the batched kernel and only refilled for moved machines.
    """
    return _map_vector(spec, tasks, machines, ctx)


def _overrides_scores(heuristic: TwoPhaseMappingHeuristic) -> bool:
    cls = type(heuristic)
    return (cls.phase1_score is not TwoPhaseMappingHeuristic.phase1_score
            or cls.phase2_score is not TwoPhaseMappingHeuristic.phase2_score)


# ----------------------------------------------------------------------
# Selection
# ----------------------------------------------------------------------
#: Column kinds whose exact value costs no fold (besides the id tie-breaks).
_CHEAP_KINDS = ("task", "static_pair")


class _KeyPlan:
    """Exact key tuples of one selection, and the bounds that stand in.

    A candidate is a pair ``(a, b)`` -- ``(machine, task)`` on the loop
    backend, ``(machine index, task row)`` on the vector backend.
    ``resolve(name)`` returns the getter ``(a, b) -> value`` of one key
    column; ``lower(column)`` the getter of a value the column never falls
    below at a candidate (or ``None`` there), or ``None`` for no bound.
    The *bound* of a candidate is the run of cheap exact columns at the
    head of its key (ids, ``task`` and ``static_pair`` kinds, e.g. MSD's
    ``deadline``) followed by the lower bound of the first costly column,
    so it never exceeds the matching prefix of the exact key.  A legacy
    ``score(a, b)`` callable leads the key instead of declared columns;
    its plan bounds nothing.
    """

    __slots__ = ("getters", "head", "low")

    def __init__(self, names: Sequence[str], resolve: Callable,
                 lower: Callable, score: Optional[Callable] = None):
        self.getters = [resolve(name) for name in names]
        self.head: List[Callable] = []
        self.low: Optional[Callable] = None
        if score is not None:
            self.getters.insert(0, score)
            return
        self.head = self.getters
        for i, name in enumerate(names):
            if name in ("machine_id", "task_id"):
                continue
            column = _column(name)
            if column.kind not in _CHEAP_KINDS:
                self.head, self.low = self.getters[:i], lower(column)
                break

    def key(self, a, b) -> tuple:
        return tuple([get(a, b) for get in self.getters])

    def bound(self, a, b) -> tuple:
        values = [get(a, b) for get in self.head]
        if self.low is not None:
            low = self.low(a, b)
            if low is not None:
                values.append(low)
        return tuple(values)


def _bounded_argmin(plan: _KeyPlan, candidates: Sequence[tuple]) -> int:
    """Position of ``min((plan.key(*c), i) for i, c in enumerate(candidates))``.

    The first-wins lexicographic ``min`` without hopeless keys: candidates
    are visited in ascending bound order (ties by position).  Once a bound
    is strictly greater than the same-length prefix of the best exact key,
    that candidate's key and every later one's are strictly greater too, so
    none can win and none is evaluated.  A lone candidate wins unscored.
    """
    if len(candidates) == 1:
        return 0
    bounds = [plan.bound(a, b) for a, b in candidates]
    order = sorted(range(len(candidates)), key=bounds.__getitem__)
    best = order[0]
    best_key = plan.key(*candidates[best])
    for i in order[1:]:
        bound = bounds[i]
        if bound > best_key[:len(bound)]:
            break
        key = plan.key(*candidates[i])
        if key < best_key or (key == best_key and i < best):
            best, best_key = i, key
    return best


def _loop_plan(names: Sequence[str], ctx: MappingContext,
               score: Optional[Callable] = None) -> _KeyPlan:
    """Plan over ``(machine, task)`` candidates, scored by column scalars."""
    def resolve(name: str) -> Callable:
        if name == "machine_id":
            return lambda machine, task: machine.machine_id
        if name == "task_id":
            return lambda machine, task: task.task_id
        scalar = _column(name).scalar
        return lambda machine, task: scalar(ctx, machine, task)

    def lower(column: ScoreColumn) -> Optional[Callable]:
        bound = column.lower_bound
        if bound is None:
            return None
        return lambda machine, task: bound(ctx, machine, task)

    return _KeyPlan(names, resolve, lower, score)


# ----------------------------------------------------------------------
# Loop backend (reference)
# ----------------------------------------------------------------------
def _map_loop(heuristic: TwoPhaseMappingHeuristic,
              tasks: Sequence[TaskView],
              machines: Sequence[MachineState],
              ctx: MappingContext) -> List[Assignment]:
    """Per-pair reference backend: the historical ``map_tasks`` loop.

    Phase 1 picks ``min(free, key=(score, machine_id))`` per task and
    phase 2 the least ``(phase-2 score, task_id)`` per machine (or
    globally), both through :func:`_bounded_argmin`: a candidate whose
    fold-free bound already loses to the best key found is never scored.
    For PAM's chance column, ``chance(fold(tail, e, d)) <=
    tail.mass_before(d - e.origin) * max(1, mass(e))``; for expected
    completion, the closed-form mean minus its rounding and pruning
    margins.  A legacy score override is scored exhaustively; the other
    phase keeps its declared columns.
    """
    spec = heuristic.score_spec
    tb1 = spec.phase1_tiebreak if spec is not None else ("machine_id",)
    tb2 = spec.phase2_tiebreak if spec is not None else ("task_id",)
    cls, base = type(heuristic), TwoPhaseMappingHeuristic
    if cls.phase1_score is base.phase1_score:
        plan1 = _loop_plan(heuristic._spec().phase1 + tb1, ctx)
    else:
        plan1 = _loop_plan(tb1, ctx, lambda machine, task:
                           heuristic.phase1_score(ctx, machine, task))
    if cls.phase2_score is base.phase2_score:
        plan2 = _loop_plan(heuristic._spec().phase2 + tb2, ctx)
    else:
        plan2 = _loop_plan(tb2, ctx, lambda machine, task:
                           heuristic.phase2_score(ctx, machine, task))

    unmapped: List[TaskView] = list(tasks)
    assignments: List[Assignment] = []

    while unmapped and any(m.has_free_slot for m in machines):
        free_machines = [m for m in machines if m.has_free_slot]
        ctx.plane_rounds += 1
        ctx.plane_evals += len(unmapped) * (len(free_machines) + 1)

        # Phase 1: each task picks its best machine.
        pairs: List[Tuple[MachineState, TaskView]] = []
        for task in unmapped:
            cands = [(machine, task) for machine in free_machines]
            pairs.append(cands[_bounded_argmin(plan1, cands)])

        # Phase 2: resolve contention per machine (or globally).
        if heuristic.assign_per_machine:
            by_machine: Dict[int, List[Tuple[MachineState, TaskView]]] = {}
            for pair in pairs:
                by_machine.setdefault(pair[0].machine_id, []).append(pair)
            committed = [group[_bounded_argmin(plan2, group)]
                         for group in by_machine.values()]
        else:
            # Single global winner per round (PAM).
            committed = [pairs[_bounded_argmin(plan2, pairs)]]

        for machine, task in committed:
            new_tail = ctx.completion_if_appended(machine, task)
            machine.commit(new_tail)
            unmapped.remove(task)
            assignments.append(Assignment(task.task_id, machine.machine_id))
    return assignments


# ----------------------------------------------------------------------
# Vector backend
# ----------------------------------------------------------------------
def _lex_argmin_rows(cols: Sequence[np.ndarray]) -> np.ndarray:
    """Row-wise lexicographic argmin over stacked key columns.

    ``cols`` are equally-shaped (rows x candidates) matrices compared in
    order; the returned index per row is the *first* candidate attaining
    the lexicographic minimum, which matches Python's first-wins ``min``.
    """
    first = cols[0]
    cand = first == first.min(axis=1, keepdims=True)
    for col in cols[1:]:
        masked = np.where(cand, col, np.inf)
        cand &= masked == masked.min(axis=1, keepdims=True)
    return cand.argmax(axis=1)


def _map_vector(spec: ScoreSpec, tasks: Sequence[TaskView],
                machines: Sequence[MachineState],
                ctx: MappingContext) -> List[Assignment]:
    """Batched backend: materialised phase-1 plane + bounded phase 2.

    The plane is filled column-by-column through
    :meth:`MappingContext.score_block`; between rounds only the columns of
    machines whose provisional tail moved (their ``version`` bumped) are
    refilled, for the rows still unmapped.  Candidate matrices keep the
    *input order* of tasks and machines, so full ties beyond the declared
    tie-break columns resolve to the first candidate exactly as the loop
    backend's first-wins ``min`` does.

    A round with a single free machine fills nothing: every task targets
    that machine.  ``plane_evals`` still counts the refill the plane would
    have issued, so the counter is the same whichever rounds are skipped.
    Phase 2 then runs :func:`_bounded_argmin` over each task's own target
    machine, reading phase-1 matrices only where they are current.
    """
    task_list = list(tasks)
    machine_list = list(machines)
    if not task_list or not machine_list:
        return []
    num_tasks, num_machines = len(task_list), len(machine_list)

    # Only phase-1 columns are materialised as full (task x machine)
    # matrices: phase 1 genuinely needs the whole plane, while phase 2 only
    # reads each task's own target machine -- a thin diagonal scored
    # pair-by-pair through the memoised context, and only where a bound
    # cannot rule the pair out.
    plane_names: List[str] = []
    for name in spec.phase1 + spec.phase1_tiebreak:
        if name not in ("machine_id", "task_id") and name not in plane_names:
            plane_names.append(name)
    task_names = [
        name for name in dict.fromkeys(
            spec.phase1 + spec.phase2
            + spec.phase1_tiebreak + spec.phase2_tiebreak)
        if name not in ("machine_id", "task_id")
        and _column(name).kind == "task"]
    plane_cols = [_column(name) for name in plane_names]
    need_mean = any(c.kind == "appended_mean" for c in plane_cols)
    need_chance = any(c.kind == "appended_chance" for c in plane_cols)
    appended_cols = [c for c in plane_cols
                     if c.kind in ("appended_mean", "appended_chance")]
    pair_cols = [c for c in plane_cols if c.kind == "pair"]
    static_cols = [c for c in plane_cols if c.kind == "static_pair"]

    task_ids = np.array([t.task_id for t in task_list], dtype=np.int64)
    machine_ids = np.array([m.machine_id for m in machine_list], dtype=np.int64)
    task_vals: Dict[str, np.ndarray] = {
        name: np.array([_column(name).scalar(ctx, None, t)
                        for t in task_list], dtype=np.float64)
        for name in task_names}
    mats: Dict[str, np.ndarray] = {
        c.name: np.empty((num_tasks, num_machines), dtype=np.float64)
        for c in plane_cols if c.kind != "task"}
    filled_version: List[Optional[int]] = [None] * num_machines

    def key_matrix(name: str, rows: np.ndarray,
                   cols: np.ndarray) -> np.ndarray:
        """Key column over the (rows x cols) candidate sub-plane."""
        if name == "machine_id":
            return np.broadcast_to(machine_ids[cols].astype(np.float64),
                                   (rows.size, cols.size))
        if name == "task_id":
            return np.broadcast_to(
                task_ids[rows].astype(np.float64)[:, None],
                (rows.size, cols.size))
        column = _column(name)
        if column.kind == "task":
            return np.broadcast_to(task_vals[name][rows][:, None],
                                   (rows.size, cols.size))
        return mats[name][np.ix_(rows, cols)]

    def current(j: int) -> bool:
        """True when machine ``j``'s cells of the phase-1 matrices are
        current (a one-machine round leaves them stale)."""
        return filled_version[j] == machine_list[j].version

    def resolve(name: str) -> Callable:
        """Getter of the exact key value of task row ``r`` on machine ``j``."""
        if name == "machine_id":
            return lambda j, r: machine_list[j].machine_id
        if name == "task_id":
            return lambda j, r: task_list[r].task_id
        if name in task_vals:
            values = task_vals[name].tolist()
            return lambda j, r: values[r]
        scalar = _column(name).scalar
        if name not in mats:
            return lambda j, r: scalar(ctx, machine_list[j], task_list[r])
        mat = mats[name]
        return lambda j, r: (float(mat[r, j]) if current(j) else
                             scalar(ctx, machine_list[j], task_list[r]))

    def lower(column: ScoreColumn) -> Callable:
        """Getter of the column's bound: its current plane value, if any."""
        mat = mats.get(column.name)
        bound = column.lower_bound

        def low(j: int, r: int) -> Optional[float]:
            if mat is not None and current(j):
                return float(mat[r, j])
            if bound is None:
                return None
            return bound(ctx, machine_list[j], task_list[r])
        return low

    p2names = spec.phase2 + spec.phase2_tiebreak
    plan2 = _KeyPlan(p2names, resolve, lower)
    # Phase-2 columns outside the plane count one nominal cell per row and
    # round, whether or not a bound spares the pair its score.
    lazy_p2 = sum(1 for name in p2names
                  if name not in ("machine_id", "task_id")
                  and name not in task_vals and name not in mats)
    alive = np.ones(num_tasks, dtype=bool)
    assignments: List[Assignment] = []

    while True:
        rows = np.nonzero(alive)[0]
        if rows.size == 0:
            break
        free = [j for j in range(num_machines)
                if machine_list[j].has_free_slot]
        if not free:
            break
        ctx.plane_rounds += 1

        if len(free) == 1:
            # Phase 1 can only pick the lone free machine: fold no cell,
            # and leave its matrices stale (``current`` says so).
            j = free[0]
            if appended_cols and not current(j):
                ctx.plane_evals += rows.size
            target = [j] * rows.size
        else:
            # (Re)fill stale phase-1 columns for the rows still in play.
            for j in free:
                machine = machine_list[j]
                if current(j):
                    continue
                if filled_version[j] is None:
                    # Tail-independent columns are filled once, on the
                    # machine's first appearance, and never refilled.
                    for c in static_cols:
                        col = mats[c.name]
                        for i in rows:
                            col[i, j] = c.scalar(ctx, machine,
                                                 task_list[int(i)])
                if appended_cols:
                    block = [task_list[int(i)] for i in rows]
                    means, chances = ctx.score_block(
                        machine, block, want_mean=need_mean,
                        want_chance=need_chance)
                    for c in appended_cols:
                        if c.kind == "appended_mean":
                            mats[c.name][rows, j] = means
                        else:
                            mats[c.name][rows, j] = (-chances if c.negate
                                                     else chances)
                for c in pair_cols:
                    col = mats[c.name]
                    for i in rows:
                        col[i, j] = c.scalar(ctx, machine, task_list[int(i)])
                filled_version[j] = machine.version

            # Phase 1: per task, lexicographic argmin over the free machines.
            free_arr = np.array(free, dtype=np.int64)
            keys = [key_matrix(name, rows, free_arr)
                    for name in spec.phase1 + spec.phase1_tiebreak]
            target = free_arr[_lex_argmin_rows(keys)].tolist()

        # Phase 2: resolve contention per machine (or globally), each
        # candidate keyed at its own target machine.
        ctx.plane_evals += lazy_p2 * rows.size
        cands = list(zip(target, rows.tolist()))
        if spec.assign_per_machine:
            # Grouped in the order each machine was first targeted (the
            # insertion order of the loop backend's per-machine grouping).
            groups: Dict[int, List[Tuple[int, int]]] = {}
            for cand in cands:
                groups.setdefault(cand[0], []).append(cand)
            committed = [group[_bounded_argmin(plan2, group)]
                         for group in groups.values()]
        else:
            committed = [cands[_bounded_argmin(plan2, cands)]]

        for j, r in committed:
            task = task_list[r]
            machine = machine_list[j]
            new_tail = ctx.completion_if_appended(machine, task)
            machine.commit(new_tail)
            alive[r] = False
            assignments.append(Assignment(task.task_id, machine.machine_id))
    return assignments
