"""MinCompletion-MinCompletion (MinMin / MM) mapping heuristic.

Phase 1 pairs every unmapped task with the machine offering its minimum
expected completion time; phase 2 assigns, to every machine with a free
slot, the provisionally paired task with the minimum expected completion
time.  Rounds repeat until machine queues are full or the batch window is
exhausted (Section V-B-1).

The scores are *declared* (:class:`~repro.mapping.base.ScoreSpec`) and
executed by the scoring backend the window width selects (see
:mod:`repro.mapping.kernel`).
"""

from __future__ import annotations

from .base import ScoreSpec, TwoPhaseMappingHeuristic

__all__ = ["MinMin"]


class MinMin(TwoPhaseMappingHeuristic):
    """The MinMin (MM) batch-mode mapping heuristic."""

    name = "MM"
    score_spec = ScoreSpec(
        phase1=("expected_completion",),
        phase2=("expected_completion",),
        assign_per_machine=True,
    )
