"""SAT encoding of the exact MIG synthesis problem (Sec. III of the paper).

The paper formulates exact synthesis as an SMT decision problem: *does an
MIG with exactly k majority nodes computing f exist?*  Every constraint of
that formulation is finite-domain, so we bit-blast it to CNF and solve it
with the in-tree CDCL solver (the paper used Z3; see DESIGN.md §4).

Variable map, mirroring the paper's Sec. III (gate index ``l`` from 1 to
``k``, truth-table row ``j`` from 0 to ``2**n - 1``, operand ``c`` from 1
to 3):

* ``b[l][j]``   — output value of gate ``l`` on row ``j``        (Eq. 4)
* ``a[c][l][j]``— value of operand ``c`` of gate ``l`` on row ``j``
* ``s[c][l][i]``— one-hot selector: operand ``c`` of gate ``l`` connects
  to node ``i`` where ``i = 0`` is the constant, ``1..n`` are primary
  inputs and ``n+1..n+l-1`` are previous gates                  (Eqs. 5-8)
* ``q[c][l]``   — edge complement (true = complemented; the paper's
  polarity ``p`` is its negation, so the solver's default phase tries
  plain edges first)

Constraints: majority semantics (Eq. 4), connection implications
(Eqs. 6-8) and the output row values (Eq. 9).  Symmetry breaks:

* the output polarity is fixed positive by self-duality, as the paper
  notes;
* operand ordering ``s1 < s2 < s3`` (Eq. 10);
* every non-root gate is referenced by a later gate, which is sound when
  iterating ``k`` upward from 0 (a minimum MIG has no dead gates);
* gate permutation: when gate ``l + 1`` does not read gate ``l`` the two
  gates could be swapped, so their first operand selections must be
  non-decreasing.  Any topological renumbering of a solution can be
  bubble-sorted into one satisfying every such adjacent-pair
  constraint, so satisfiability is preserved (validated exhaustively on
  all 3-variable functions);
* polarity normalization: every non-root gate has at most one
  complemented input.  Self-duality again: ``<a' b' c> = <a b c'>'``, so
  a gate with two or three complemented inputs flips to one with at most
  one, and each reader absorbs the output complement in its own edge
  variable.  Normalizing gates in topological order only ever touches
  the edges of later gates, and no selector, so every other break
  survives.  The root is left free: its output polarity is already
  fixed.

Row constraints are added *lazily* to support counterexample-guided
refinement (CEGAR): :meth:`ExactMigEncoding.solve_cegar` starts from a
couple of rows, extracts a candidate MIG, simulates it against the full
specification and adds any violated row, which keeps individual SAT calls
far smaller than the monolithic encoding.  This is an implementation
strengthening over the paper (which handed the whole formula to Z3);
soundness is unaffected because constraints are only ever added.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ..core.mig import Mig, make_signal, signal_not
from ..core.truth_table import tt_mask, tt_support
from ..sat.cnf import CnfBuilder

__all__ = ["ExactMigEncoding", "encode_exact_mig"]


@dataclass
class ExactMigEncoding:
    """Handle to an (incrementally constructed) exact-synthesis instance."""

    num_vars: int
    num_gates: int
    spec: int
    builder: CnfBuilder
    # select_vars[l][c][i] — one-hot selector literals.
    select_vars: list[list[list[int]]] = field(repr=False)
    # complement_vars[l][c] — true when the edge is complemented.
    complement_vars: list[list[int]] = field(repr=False)
    # output_vars[l][j] / operand_vars[l][c][j], populated per added row.
    output_vars: dict[int, list[int]] = field(repr=False, default_factory=dict)
    operand_vars: dict[int, list[list[int]]] = field(repr=False, default_factory=dict)

    # -- incremental row constraints ------------------------------------

    def add_row(self, j: int) -> None:
        """Constrain the encoding on truth-table row *j* (Eqs. 4, 6-9)."""
        if j in self.output_vars:
            return
        builder = self.builder
        n = self.num_vars
        k = self.num_gates
        b_row = [builder.new_var() for _ in range(k)]
        a_row = [[builder.new_var() for _ in range(3)] for _ in range(k)]
        self.output_vars[j] = b_row
        self.operand_vars[j] = a_row
        for l in range(k):
            builder.maj_gate(b_row[l], a_row[l][0], a_row[l][1], a_row[l][2])
            for c in range(3):
                a = a_row[l][c]
                q = self.complement_vars[l][c]
                s0 = self.select_vars[l][c][0]
                # Constant connection (Eq. 6): value = q.
                builder.add_clause([-s0, -a, q])
                builder.add_clause([-s0, a, -q])
                # Primary-input connection (Eq. 7): value = x_{i-1}(j) xor q.
                for i in range(1, n + 1):
                    s = self.select_vars[l][c][i]
                    if (j >> (i - 1)) & 1:
                        builder.add_clause([-s, -a, -q])
                        builder.add_clause([-s, a, q])
                    else:
                        builder.add_clause([-s, -a, q])
                        builder.add_clause([-s, a, -q])
                # Gate connection (Eq. 8): value = b_i(j) xor q.
                for i in range(1, l + 1):
                    s = self.select_vars[l][c][n + i]
                    b = b_row[i - 1]
                    builder.add_clause([-s, q, -b, a])
                    builder.add_clause([-s, q, b, -a])
                    builder.add_clause([-s, -q, -b, -a])
                    builder.add_clause([-s, -q, b, a])
        # Function semantics (Eq. 9), output polarity fixed positive.
        value = (self.spec >> j) & 1
        builder.add_unit(b_row[k - 1] if value else -b_row[k - 1])

    def add_all_rows(self) -> None:
        """Add every truth-table row (the paper's monolithic formulation)."""
        for j in range(1 << self.num_vars):
            self.add_row(j)

    # -- solving ---------------------------------------------------------

    def solve(
        self, conflict_budget: int | None = None, deadline: float | None = None
    ) -> bool | None:
        """Solve the monolithic instance (all rows)."""
        self.add_all_rows()
        return self.builder.solve(conflict_budget=conflict_budget, deadline=deadline)

    @property
    def rows(self) -> list[int]:
        """The truth-table rows currently constrained, in sorted order."""
        return sorted(self.output_vars)

    def solve_cegar(
        self,
        conflict_budget: int | None = None,
        deadline: float | None = None,
        seed_rows: Iterable[int] | None = None,
    ) -> bool | None:
        """Solve via counterexample-guided row refinement.

        Returns True (a valid MIG can be extracted), False (no MIG with
        this many gates exists), or None on budget exhaustion.

        *seed_rows* constrains additional rows before the first solve.
        The synthesis driver passes the row set that refuted size
        ``k - 1`` here: those counterexamples remain valid for size ``k``
        (row constraints are only ever added), so the refinement loop
        does not have to re-discover them one SAT call at a time.
        """
        # Seed with the two extreme rows — cheap and usually informative.
        rows = 1 << self.num_vars
        self.add_row(0)
        self.add_row(rows - 1)
        if seed_rows is not None:
            for j in seed_rows:
                self.add_row(j)
        budget = conflict_budget
        while True:
            before = self.builder.solver.conflicts
            answer = self.builder.solve(conflict_budget=budget, deadline=deadline)
            if budget is not None:
                budget -= self.builder.solver.conflicts - before
            if answer is None:
                return None
            if answer is False:
                return False
            candidate = self.extract_mig()
            got = candidate.simulate()[0]
            diff = got ^ self.spec
            if diff == 0:
                return True
            # Add the lowest-index violated row and refine.
            self.add_row((diff & -diff).bit_length() - 1)
            if budget is not None and budget <= 0:
                return None

    def extract_mig(self) -> Mig:
        """Decode a satisfying model into an MIG (Theorem 1 of the paper)."""
        builder = self.builder
        n = self.num_vars
        mig = Mig(n)
        node_signals: list[int] = [0] + [make_signal(1 + v) for v in range(n)]
        for l in range(self.num_gates):
            operands = []
            for c in range(3):
                selected = None
                for i, s_var in enumerate(self.select_vars[l][c]):
                    if builder.value(s_var):
                        selected = i
                        break
                if selected is None:
                    raise RuntimeError(f"gate {l + 1} operand {c + 1} has no selection")
                signal = node_signals[selected]
                if builder.value(self.complement_vars[l][c]):
                    signal = signal_not(signal)
                operands.append(signal)
            node_signals.append(mig.maj(*operands))
        mig.add_po(node_signals[-1], "f")
        return mig


def encode_exact_mig(
    spec: int,
    num_vars: int,
    num_gates: int,
    portfolio=None,
    budget=None,
) -> ExactMigEncoding:
    """Encode: does an MIG with *num_gates* majority gates compute *spec*?

    *spec* is a truth table over *num_vars* variables.  ``num_gates`` must
    be at least 1 (the ``k = 0`` cases — constants and literals — are
    checked explicitly by the synthesis driver, as in the paper).  Row
    constraints are added lazily; use :meth:`ExactMigEncoding.solve` for
    the monolithic instance or :meth:`ExactMigEncoding.solve_cegar`.

    *portfolio* (a :class:`~repro.sat.portfolio.PortfolioSolver`) races
    every solve call across external backends; *budget* (a shared
    :class:`~repro.runtime.budget.Budget`) caps each call's wall clock.
    """
    if num_gates < 1:
        raise ValueError("encode_exact_mig requires at least one gate")
    if spec < 0 or spec > tt_mask(num_vars):
        raise ValueError(f"spec 0x{spec:x} out of range for {num_vars} variables")

    n = num_vars
    k = num_gates
    builder = CnfBuilder(portfolio=portfolio, budget=budget)

    select_vars = [
        [[builder.new_var() for _ in range(n + 1 + l)] for _ in range(3)]
        for l in range(k)
    ]
    complement_vars = [[builder.new_var() for _ in range(3)] for _ in range(k)]

    for l in range(k):
        num_options = n + 1 + l
        for c in range(3):
            builder.exactly_one(select_vars[l][c])
        # Symmetry breaking (Eq. 10): s1 < s2 < s3.
        for c in range(2):
            for i1 in range(num_options):
                for i2 in range(i1 + 1):
                    builder.add_clause(
                        [-select_vars[l][c][i1], -select_vars[l][c + 1][i2]]
                    )
        if l < k - 1:
            # Polarity normalization (module docstring): <a' b' c> =
            # <a b c'>', so a non-root gate needs at most one complemented
            # input; its readers absorb the output complement.
            builder.at_most_one(complement_vars[l])

    # Every non-root gate must feed some later gate.
    for l in range(k - 1):
        fanout_lits = []
        for l2 in range(l + 1, k):
            for c in range(3):
                fanout_lits.append(select_vars[l2][c][n + 1 + l])
        builder.add_clause(fanout_lits)

    # Gate-permutation symmetry break: if gate l+1 does not read gate l
    # (so the two are interchangeable, for l+1 below the root), force
    # their first operand selections to be non-decreasing.  (Extending
    # the break to the second operand on ties is sound too, but measured
    # slower: the extra clauses cost more than the pruning saves.)
    for l in range(k - 2):
        reads = [select_vars[l + 1][c][n + 1 + l] for c in range(3)]
        num_options = n + 1 + l  # gate l's option count
        for i1 in range(num_options):
            for i2 in range(i1):
                builder.add_clause(
                    [-select_vars[l][0][i1], -select_vars[l + 1][0][i2], *reads]
                )

    # Every variable in the functional support must be selected somewhere
    # (a network that never reads x_i cannot depend on it) — a sound cut
    # that substantially strengthens UNSAT proofs.
    for i in tt_support(spec, n):
        builder.add_clause(
            [select_vars[l][c][1 + i] for l in range(k) for c in range(3)]
        )

    return ExactMigEncoding(
        num_vars=n,
        num_gates=k,
        spec=spec,
        builder=builder,
        select_vars=select_vars,
        complement_vars=complement_vars,
    )
