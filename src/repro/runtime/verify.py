"""Post-pass equivalence policy: how to check a rewrite did not miscompile.

Every optimization pass in this code base is supposed to be functionality
preserving; this module decides how much evidence to demand, scaled to
the network and to the remaining :class:`~repro.runtime.budget.Budget`:

* **exhaustive simulation** for small PI counts — a complete proof at
  trivial cost (the same path ``check_equivalence`` uses);
* **sampled simulation** first, then **budgeted SAT CEC** via
  :mod:`repro.sat.cec` for wide networks — sampling refutes cheap bugs in
  microseconds, SAT sweeping proves equivalence when the budget allows.

:func:`verify_rewrite` returns a :class:`VerificationReport`;
``equivalent`` is ``True`` (proved), ``False`` (refuted, counterexample
attached when known), or ``None`` (budget exhausted before a proof —
sampling passed, so equivalence was at least not refuted).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.mig import Mig
from ..core.simulate import equivalent_exhaustive, equivalent_random
from .budget import Budget

__all__ = ["VerificationReport", "verify_rewrite", "EXHAUSTIVE_PI_LIMIT"]

#: widest network checked by complete simulation (2**16 rows, still < 1 ms)
EXHAUSTIVE_PI_LIMIT = 14


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one rewrite verification."""

    #: True = proved equivalent, False = refuted, None = inconclusive
    equivalent: bool | None
    #: "exhaustive", "sampled", "cec", or "off"
    method: str
    #: distinguishing input assignment when the check produced one
    counterexample: dict[str, bool] | None = None
    #: CDCL conflicts spent (CEC only)
    conflicts: int = 0
    #: per-lane portfolio fates from the CEC race (empty off portfolio)
    backend_events: dict[str, int] | None = None

    @property
    def refuted(self) -> bool:
        return self.equivalent is False


def verify_rewrite(
    before: Mig,
    after: Mig,
    mode: str = "sim",
    budget: Budget | None = None,
    sample_rounds: int = 16,
    cec_conflict_cap: int = 50_000,
    sat_backend="internal",
) -> VerificationReport:
    """Check that *after* computes the same functions as *before*.

    *mode* selects the policy: ``"off"`` skips verification, ``"sim"``
    uses simulation only (exhaustive when narrow enough, sampled
    otherwise), ``"cec"`` escalates wide networks from sampling to
    budgeted SAT-sweeping CEC for a definitive answer.  *cec_conflict_cap*
    (and the *budget*'s remaining conflicts) caps the total over all of
    the sweep's queries.

    *sat_backend* (a mode string or a shared
    :class:`~repro.sat.portfolio.PortfolioSolver`) selects which solver
    lanes the CEC queries race; simulation paths ignore it.
    """
    if mode not in ("off", "sim", "cec"):
        raise ValueError(f"unknown verification mode {mode!r}; use off/sim/cec")
    if mode == "off":
        return VerificationReport(None, "off")

    if before.num_pis <= EXHAUSTIVE_PI_LIMIT:
        ok = equivalent_exhaustive(before, after)
        return VerificationReport(ok, "exhaustive")

    # Wide network: cheap refutation first.
    if not equivalent_random(before, after, num_rounds=sample_rounds):
        return VerificationReport(False, "sampled")
    if mode == "sim":
        # Sampling cannot prove equivalence; report inconclusive-positive.
        return VerificationReport(None, "sampled")

    # mode == "cec": budgeted SAT sweeping.
    from ..sat.cec import check_equivalence_sat

    conflict_budget = (
        budget.call_conflict_budget(cec_conflict_cap)
        if budget is not None
        else cec_conflict_cap
    )
    result = check_equivalence_sat(
        before,
        after,
        conflict_budget=conflict_budget,
        budget=budget,
        sat_backend=sat_backend,
    )
    return VerificationReport(
        result.equivalent,
        "cec",
        counterexample=result.counterexample,
        conflicts=result.conflicts,
        backend_events=result.backend_events or None,
    )
