"""Autonomous proactive task-dropping heuristic (Section IV-E, Fig. 4).

The heuristic walks each machine queue head-to-tail exactly once.  For each
pending task ``i`` it compares the instantaneous robustness of the first
``η`` tasks of its influence zone (its *effective depth*) with and without
provisionally dropping ``i``.  Task ``i`` is dropped iff

    Σ_{n=i+1}^{i+η} p^{(i)}_{nj}  >  β · Σ_{n=i}^{i+η} p_{nj}          (Eq. 8)

where ``β >= 1`` is the *robustness improvement factor*.  ``β → 1`` drops on
any net improvement, ``β → ∞`` disables proactive dropping.

Unlike prior threshold-based pruning mechanisms, no user-supplied chance-of-
success threshold is involved: the decision is autonomous and derives solely
from the robustness comparison.

One pass
--------
The walk folds each Eq. 1 chain PMF once and carries ``(pmf, chance)``
pairs forward.  The *kept window* of position ``i`` -- positions
``i..i+η`` folded from the survivor chain ahead of ``i`` -- is the kept
window of ``i − 1`` shifted by one when ``i − 1`` survives, and the *drop
window* of ``i − 1`` (positions ``i..`` folded with ``i − 1`` skipped) when
it is dropped; either way one new fold extends it.  The survivor chances
of the pass sum to ``robustness_after``.  ``robustness_before`` is the same
sum until the first drop; only then does the pass fold the rest of the
undropped chain.  Every sum adds the same floats in the same order as the
paper-literal evaluation, so decisions and reported values are identical.

Mass bound
----------
The drop window of ``i`` is only folded as far as it can still change the
decision.  One Eq. 1 fold has mass ``m_on·mass(exec) + m_late ≤
mass(prev)·max(1, mass(exec))`` (the on-time branch is convolved, the late
branch passes through), and a chance of success is at most its PMF's mass,
so the chance of window position ``n`` is at most
``mass(prefix)·Π_{m=i+1}^{n} max(1, mass(exec_m))``.  Once the drop chances
folded so far plus these bounds for the rest cannot exceed ``β`` times the
keep score (with the rounding slack of
:func:`~repro.core.completion.mass_bound_slack`), task ``i`` is provably
kept and the window is abandoned.  Execution masses may exceed one by up to
``MASS_TOLERANCE``, hence the ``max(1, ·)`` rather than an assumed ``≤ 1``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..completion import (QueueEntry, chance_of_success, completion_pmf,
                          mass_bound_slack)
from ..pmf import PMF
from .base import DropDecision, DroppingPolicy, MachineQueueView

__all__ = ["ProactiveHeuristicDropping", "DEFAULT_BETA", "DEFAULT_ETA"]

#: Value of the robustness improvement factor used in the paper's evaluation
#: after the sensitivity study of Fig. 6.
DEFAULT_BETA = 1.0

#: Effective depth used in the paper's evaluation after the study of Fig. 5.
DEFAULT_ETA = 2


class ProactiveHeuristicDropping(DroppingPolicy):
    """Single-pass proactive dropping heuristic of Fig. 4.

    Parameters
    ----------
    beta:
        Robustness improvement factor ``β >= 1``.  The dropping of a task
        must improve the windowed instantaneous robustness by at least this
        factor to be enacted.
    eta:
        Effective depth ``η >= 1``: number of influence-zone tasks whose
        robustness gain may compensate the loss of the dropped task.
    prune_eps:
        Probability-mass pruning threshold forwarded to PMF chaining.
    """

    name = "heuristic"
    memoizable = True  # pure function of (base_pmf, entries)
    uses_pressure = False

    def __init__(self, beta: float = DEFAULT_BETA, eta: int = DEFAULT_ETA,
                 prune_eps: float = 1e-12):
        if beta < 1.0:
            raise ValueError("robustness improvement factor beta must be >= 1")
        if eta < 1:
            raise ValueError("effective depth eta must be >= 1")
        self.beta = float(beta)
        self.eta = int(eta)
        self.prune_eps = float(prune_eps)

    def __repr__(self) -> str:
        return f"ProactiveHeuristicDropping(beta={self.beta}, eta={self.eta})"

    # ------------------------------------------------------------------
    def evaluate_queue(self, view: MachineQueueView) -> DropDecision:
        """Single pass over the queue applying the Eq. 8 test to each task.

        Confirmed drops take effect immediately for the remainder of the
        pass: the completion chain of later tasks is computed over the
        surviving predecessors only, mirroring an actual removal from the
        machine queue.
        """
        entries = view.entries
        q = len(entries)
        if q == 0:
            return DropDecision(drop_indices=())
        eps = self.prune_eps
        growth = [max(1.0, entry.exec_pmf.total_mass) for entry in entries]
        exec_terms = sum(entry.exec_pmf.probs.size for entry in entries)

        dropped: List[int] = []
        # ``prefix`` is the completion PMF of the last surviving task ahead of
        # position ``i``; ``kept_*`` hold the kept window of ``i`` folded
        # from it so far.
        prefix = view.base_pmf
        kept_pmfs: List[PMF] = []
        kept_chances: List[float] = []
        after = 0.0
        before: Optional[float] = None
        for i in range(q):
            window_end = min(i + self.eta, q - 1)
            prev = kept_pmfs[-1] if kept_pmfs else prefix
            for n in range(i + len(kept_pmfs), window_end + 1):
                entry = entries[n]
                prev = completion_pmf(prev, entry.exec_pmf, entry.deadline, eps)
                kept_pmfs.append(prev)
                kept_chances.append(chance_of_success(prev, entry.deadline))
            # The last task of a queue has an empty influence zone: dropping
            # it can never improve instantaneous robustness, so it is skipped
            # (Section IV-D).
            if i == q - 1:
                after += kept_chances[0]
                break
            # Σ_{n=i}^{i+η} p_{nj} against Σ_{n=i+1}^{i+η} p^{(i)}_{nj}.
            limit = self.beta * sum(kept_chances)
            window = self._drop_window(prefix, entries, i + 1, window_end,
                                       limit, growth, exec_terms)
            if window is not None and window[2] > limit:
                if before is None:
                    before = self._finish_chain(after, kept_pmfs[-1],
                                                kept_chances,
                                                entries[window_end + 1:])
                dropped.append(i)
                # prefix unchanged: task i vanishes from the chain, and its
                # drop window is the kept window of i + 1.
                kept_pmfs, kept_chances = window[0], window[1]
            else:
                after += kept_chances[0]
                prefix = kept_pmfs[0]
                kept_pmfs, kept_chances = kept_pmfs[1:], kept_chances[1:]

        if before is None:
            before = after
        return DropDecision(drop_indices=dropped, robustness_before=before,
                            robustness_after=after)

    # ------------------------------------------------------------------
    def _drop_window(self, prefix: PMF, entries: Sequence[QueueEntry],
                     start: int, end: int, limit: float, growth: List[float],
                     exec_terms: int
                     ) -> Optional[Tuple[List[PMF], List[float], float]]:
        """Fold positions ``start..end`` from ``prefix``, ``start-1`` dropped.

        Returns ``(pmfs, chances, score)`` with ``score`` their chances
        summed head first, or ``None`` as soon as the mass bound proves that
        ``score`` cannot exceed ``limit``.
        """
        # bounds[j] bounds the chance of position start + j (module docstring).
        mass = prefix.total_mass
        bounds: List[float] = []
        for n in range(start, end + 1):
            mass *= growth[n]
            bounds.append(mass)
        for j in range(len(bounds) - 2, -1, -1):
            bounds[j] += bounds[j + 1]  # now bounds positions start+j..end
        # Every array summed on either side holds at most prefix + exec
        # supports; a fold contributes a convolution and a mixture rounding,
        # a chance or bound a reduction and a product, the window sum one
        # more -- four steps per position plus the prefix and the sum.
        slack = mass_bound_slack(prefix.probs.size + exec_terms,
                                 4 * (len(bounds) + 2))
        pmfs: List[PMF] = []
        chances: List[float] = []
        score = 0.0
        prev = prefix
        for j, n in enumerate(range(start, end + 1)):
            if (score + bounds[j]) * slack <= limit:
                return None
            entry = entries[n]
            prev = completion_pmf(prev, entry.exec_pmf, entry.deadline,
                                  self.prune_eps)
            chance = chance_of_success(prev, entry.deadline)
            pmfs.append(prev)
            chances.append(chance)
            score += chance
        return pmfs, chances, score

    def _finish_chain(self, total: float, prev: PMF, chances: List[float],
                      rest: Sequence[QueueEntry]) -> float:
        """Robustness of the undropped queue, continued from a kept window.

        ``total`` sums the chances ahead of the window, ``chances`` are the
        window's and ``prev`` its last PMF; ``rest`` are the entries behind.
        """
        for chance in chances:
            total += chance
        for entry in rest:
            prev = completion_pmf(prev, entry.exec_pmf, entry.deadline,
                                  self.prune_eps)
            total += chance_of_success(prev, entry.deadline)
        return total
