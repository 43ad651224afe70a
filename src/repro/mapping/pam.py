"""Pruning-Aware Mapping (PAM) heuristic.

PAM (Gentry et al., IPDPS'19) operates on the PET matrix and the chance of
success of tasks.  Phase 1 pairs every unmapped task with the machine that
offers its highest chance of success; phase 2 picks, among all pairs, the one
with the lowest expected completion time and commits only that pair, breaking
ties by the shortest expected execution time (Section V-B-3).

The original PAM also performs threshold-based dropping and deferring; in
this reproduction those are handled by the separate dropping policies (the
paper disables PAM's deferring and replaces its dropping with the mechanisms
under study).

The scores are *declared* (:class:`~repro.mapping.base.ScoreSpec`) and
executed by the scoring backend the window width selects (see
:mod:`repro.mapping.kernel`).
"""

from __future__ import annotations

from .base import ScoreSpec, TwoPhaseMappingHeuristic

__all__ = ["PAM"]


class PAM(TwoPhaseMappingHeuristic):
    """The Pruning-Aware Mapping batch-mode heuristic (mapping phases only)."""

    name = "PAM"
    score_spec = ScoreSpec(
        # Phase 1 maximises the chance of success (negated for the argmin).
        phase1=("neg_chance_of_success",),
        # Lowest expected completion, ties broken by shortest execution.
        phase2=("expected_completion", "mean_execution"),
        assign_per_machine=False,  # one globally best pair per round
    )
