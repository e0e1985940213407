"""SAT sweeping ("fraiging") for MIGs of any width.

:func:`repro.opt.size_opt.functional_reduce` merges functionally
equivalent gates but needs exhaustive simulation (<= 14 inputs).  This
pass scales to arbitrary widths with the classic FRAIG recipe of
Kuehlmann et al. (ref. [2] of the paper, the original AIG application),
run by the SAT-sweeping engine :class:`repro.sat.sweep.Sweeper` that
also drives SAT-based CEC: random-simulation candidates, one
incremental solver over the rebuilt network, a merge on every proof,
and counterexample refinement on every refutation.

Budget-exhausted queries keep the gate — the pass only merges on proof.
"""

from __future__ import annotations

from ..core.mig import Mig
from ..runtime.budget import Budget
from ..sat.sweep import (
    MAX_REFINEMENTS,
    QUERY_CONFLICTS,
    SIGNATURE_WIDTH,
    SIGNATURE_WORDS,
    Sweeper,
)

__all__ = ["fraig"]


def fraig(
    mig: Mig,
    num_words: int = SIGNATURE_WORDS,
    width: int = SIGNATURE_WIDTH,
    seed: int = 0x5EED,
    conflict_budget: int = QUERY_CONFLICTS,
    max_cex_rounds: int = MAX_REFINEMENTS,
    budget: Budget | None = None,
) -> Mig:
    """Merge provably equivalent gates; returns the swept network.

    *conflict_budget* caps each gate's query.  A shared
    :class:`~repro.runtime.budget.Budget` degrades the pass gracefully:
    once it expires, remaining candidate equivalences are simply kept
    unmerged (always sound — the pass only merges on proof).
    """
    sweeper = Sweeper(
        mig,
        seed=seed,
        num_words=num_words,
        width=width,
        query_conflicts=conflict_budget,
        max_refinements=max_cex_rounds,
        budget=budget,
    )
    return sweeper.run().cleanup()
