"""MinCompletion-Soonest Deadline (MSD) mapping heuristic.

Phase 1 is identical to MinMin (minimum expected completion time per task);
phase 2 assigns, to every machine with a free slot, the provisionally paired
task with the soonest deadline, breaking ties by the minimum expected
completion time (Section V-B-2).

The scores are *declared* (:class:`~repro.mapping.base.ScoreSpec`) and
executed by the scoring backend the window width selects (see
:mod:`repro.mapping.kernel`).
"""

from __future__ import annotations

from .base import ScoreSpec, TwoPhaseMappingHeuristic

__all__ = ["MSD"]


class MSD(TwoPhaseMappingHeuristic):
    """The MinCompletion-Soonest-Deadline batch-mode mapping heuristic."""

    name = "MSD"
    score_spec = ScoreSpec(
        phase1=("expected_completion",),
        phase2=("deadline", "expected_completion"),
        assign_per_machine=True,
    )
