"""SAT-based combinational equivalence checking (CEC) for MIGs.

Both networks are strashed into one network over shared PIs
(:func:`~repro.sat.sweep.miter_network`) and SAT-swept
(:class:`~repro.sat.sweep.Sweeper`): every gate of the second network
with a simulation partner is merged into it on proof, so a rewrite's
untouched logic collapses gate by gate and the last query on each output
pair runs over a network the merges have already shrunk.  A pair is
proved when its two signals collapse to one; simulation or a SAT model
that tells a pair apart refutes it with a concrete counterexample;
anything else leaves the check unproven.  Complements the
simulation-based checks of :mod:`repro.core.simulate` for networks too
wide to simulate exhaustively.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..core.mig import Mig
from .portfolio import resolve_backend
from .sweep import Sweeper, miter_network

if TYPE_CHECKING:
    from ..runtime.budget import Budget
    from .portfolio import PortfolioSolver

__all__ = ["CecResult", "check_equivalence_sat"]


@dataclass(frozen=True)
class CecResult:
    """Outcome of a SAT CEC run."""

    equivalent: bool | None  # None = budget exhausted
    counterexample: dict[str, bool] | None
    #: conflicts spent by all of the sweep's queries together
    conflicts: int
    #: per-lane portfolio fates ("<backend>:<outcome>" -> count); empty
    #: on the pure-internal path
    backend_events: dict[str, int] = field(default_factory=dict)


def check_equivalence_sat(
    mig1: Mig,
    mig2: Mig,
    conflict_budget: int | None = None,
    budget: "Budget | None" = None,
    sat_backend: "str | PortfolioSolver | None" = "internal",
) -> CecResult:
    """Prove or refute equivalence of two MIGs with identical interfaces.

    *conflict_budget* caps the conflicts of all the sweep's queries
    together.  A shared :class:`repro.runtime.budget.Budget` bounds the
    sweep by its wall-clock deadline and remaining conflicts; the
    conflicts spent are charged back to it.

    *sat_backend* selects the solving path: a ``--sat-backend`` mode
    string (``"auto"``/``"internal"``/``"portfolio"``), an already-built
    :class:`~repro.sat.portfolio.PortfolioSolver` (shared across calls
    so its event counters accumulate), or ``None`` for internal.
    """
    combined, second = miter_network(mig1, mig2)
    portfolio = (
        resolve_backend(sat_backend, budget=budget)
        if isinstance(sat_backend, str)
        else sat_backend
    )
    sweeper = Sweeper(
        combined,
        conflict_limit=conflict_budget,
        budget=budget,
        portfolio=portfolio,
        query_from=second,
    )
    n = mig1.num_pos
    pairs = list(zip(combined.outputs[:n], combined.outputs[n:]))

    def result(equivalent: bool | None, pattern: list[int] | None) -> CecResult:
        events = portfolio.take_events() if portfolio is not None else {}
        cex = None
        if pattern is not None:
            cex = {name: bool(v) for name, v in zip(mig1.pi_names, pattern)}
        return CecResult(equivalent, cex, sweeper.conflicts, events)

    # Simulation alone refutes most broken rewrites before any SAT call.
    for s1, s2 in pairs:
        pattern = sweeper.refuting_pattern(s1, s2)
        if pattern is not None:
            return result(False, pattern)
    sweeper.run()
    proved = True
    for s1, s2 in pairs:
        verdict, pattern = sweeper.prove_pair(s1, s2)
        if verdict is False:
            return result(False, pattern)
        if verdict is None:
            proved = False
    return result(True if proved else None, None)
