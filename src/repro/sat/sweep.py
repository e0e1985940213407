"""SAT sweeping: the one engine behind ``fraig`` and SAT-based CEC.

The FRAIG recipe of Kuehlmann et al. (ref. [2] of the paper, the
original AIG application), on MIGs:

1. simulate the network on seeded random words — gates with equal
   signatures (up to complement) are *candidate* equivalences;
2. rebuild it gate by gate in topological order into a fresh,
   structurally hashed network, Tseitin-encoding gates on demand (only
   the cones a query touches) through :meth:`CnfBuilder.maj_gate`;
3. ask whether each gate can differ from the representative of its
   signature class — one incremental query under an assumption, through
   :meth:`CnfBuilder.solve` (so the portfolio and the deadline apply).
   UNSAT merges the gate into the representative; a model is a
   counterexample that is simulated and appended to every signature,
   splitting the false class, and the gate asks its new class again.

Merges happen only on proof, so the rebuilt network is always equivalent
to the input.  :func:`repro.opt.fraig.fraig` keeps the cleaned-up result;
:func:`repro.sat.cec.check_equivalence_sat` sweeps one network holding
both sides of a check and reads each output pair with
:meth:`Sweeper.prove_pair`: *proved* when the pair collapses to one
signal, *refuted* when simulation or a SAT model tells it apart (the
distinguishing input is returned), *unproven* otherwise.

All queries of one sweep draw on one conflict allowance: *conflict_limit*
caps the sweep's total, a shared :class:`~repro.runtime.budget.Budget` is
charged with every conflict, and *query_conflicts* caps any single
gate's query.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

from ..core.mig import Mig
from ..core.simengine import random_signature_words, simulate_all_nodes
from .cnf import CnfBuilder

if TYPE_CHECKING:
    from ..runtime.budget import Budget
    from .portfolio import PortfolioSolver

__all__ = [
    "MAX_REFINEMENTS",
    "QUERY_CONFLICTS",
    "SIGNATURE_WIDTH",
    "SIGNATURE_WORDS",
    "Sweeper",
    "miter_network",
]

#: random simulation words per node
SIGNATURE_WORDS = 4
#: bits per simulation word
SIGNATURE_WIDTH = 64
#: counterexamples folded back into the signatures per sweep
MAX_REFINEMENTS = 64
#: conflict cap of one gate's query (a sweep's total has its own limit)
QUERY_CONFLICTS = 3000


def miter_network(mig1: Mig, mig2: Mig) -> tuple[Mig, int]:
    """Both networks strashed into one over shared PIs.

    Outputs ``0 .. n-1`` are *mig1*'s, ``n .. 2n-1`` *mig2*'s; gates
    the two share structurally are built once.  Also returns the first
    node index only *mig2* introduced.
    """
    if mig1.num_pis != mig2.num_pis or mig1.num_pos != mig2.num_pos:
        raise ValueError("CEC requires matching PI/PO counts")
    combined = Mig.like(mig1)
    outputs = []
    first_new = []
    for mig in (mig1, mig2):
        first_new.append(combined.num_nodes)
        mapping = {node: node << 1 for node in range(mig.num_pis + 1)}
        for node in mig._reachable_gates():
            a, b, c = mig.fanins(node)
            mapping[node] = combined.maj(
                mapping[a >> 1] ^ (a & 1),
                mapping[b >> 1] ^ (b & 1),
                mapping[c >> 1] ^ (c & 1),
            )
        outputs.extend(mapping[s >> 1] ^ (s & 1) for s in mig.outputs)
    for signal in outputs:
        combined.add_po(signal)
    return combined, first_new[1]


class Sweeper:
    """One SAT sweep of *mig*: construct, :meth:`run`, then read results.

    Construction simulates the signatures; :meth:`run` rebuilds the
    network with merges; :attr:`network` is the rebuilt network (dead
    gates included, outputs attached) and :meth:`prove_pair` settles one
    pair of *mig*'s signals.  Gates below *query_from* only serve as
    representatives: they are rebuilt without a query (CEC starts the
    queries at the second network's first gate).  The sweep is
    deterministic for a fixed *seed*.
    """

    def __init__(
        self,
        mig: Mig,
        seed: int = 0x5EED,
        num_words: int = SIGNATURE_WORDS,
        width: int = SIGNATURE_WIDTH,
        query_conflicts: int | None = QUERY_CONFLICTS,
        max_refinements: int = MAX_REFINEMENTS,
        conflict_limit: int | None = None,
        budget: "Budget | None" = None,
        portfolio: "PortfolioSolver | None" = None,
        query_from: int = 0,
    ) -> None:
        self.mig = mig
        self.query_from = query_from
        self.query_conflicts = query_conflicts
        self.max_refinements = max_refinements
        self.conflict_limit = conflict_limit
        self.budget = budget
        #: conflicts spent by all of this sweep's queries
        self.conflicts = 0
        self.queries = 0
        self.refinements = 0

        # Signatures: one Python int per node, bit k = the node's value
        # under pattern k.  The node-major draw order of the first fraig
        # release is kept so historical seeds reproduce; the words of a
        # node are simulated side by side as one wide value.
        rng = random.Random(seed)
        pi_words = random_signature_words(rng, mig.num_pis, num_words, width)
        wide = [
            sum(word << (w * width) for w, word in enumerate(words))
            for words in pi_words
        ]
        self._bits = num_words * width
        self._sigs = simulate_all_nodes(mig, wide, self._bits)

        self.builder = CnfBuilder(portfolio=portfolio, budget=budget)
        self.network = Mig.like(mig)
        const_var = self.builder.new_var()
        self.builder.add_unit(-const_var)
        # _vars[n] = CNF variable of rebuilt node n (0 = not encoded yet)
        self._vars = [const_var, *self.builder.new_vars(mig.num_pis)]
        self._pi_vars = self._vars[1:]
        # old node -> rebuilt signal
        self._map: dict[int, int] = {
            node: node << 1 for node in range(mig.num_pis + 1)
        }
        # (old node, rebuilt signal in the node's canonical phase)
        self._members: list[tuple[int, int]] = []
        # canonical signature -> rebuilt signal of the class representative
        self._classes: dict[int, int] = {}
        for node in range(mig.num_pis + 1):
            self._register(node, (node << 1) ^ self._phase(node))

    # -- signatures ------------------------------------------------------

    def _phase(self, node: int) -> int:
        """1 when the node's canonical form is its complement."""
        return self._sigs[node] & 1

    def _key(self, node: int) -> int:
        sig = self._sigs[node]
        return sig ^ ((1 << self._bits) - 1) if sig & 1 else sig

    def _register(self, node: int, canon: int) -> None:
        self._members.append((node, canon))
        self._classes.setdefault(self._key(node), canon)

    def _signature(self, signal: int) -> int:
        sig = self._sigs[signal >> 1]
        return sig ^ ((1 << self._bits) - 1) if signal & 1 else sig

    def _pattern_at(self, bit: int) -> list[int]:
        """The PI values of signature bit *bit*."""
        return [(sig >> bit) & 1 for sig in self._sigs[1:self.mig.num_pis + 1]]

    def _model_pattern(self) -> list[int]:
        return [int(self.builder.value(var)) for var in self._pi_vars]

    def _refine(self, pattern: list[int]) -> None:
        """Append one simulated pattern to every signature; re-key."""
        self.refinements += 1
        values = simulate_all_nodes(self.mig, pattern, 1, backend="bigint")
        bit = 1 << self._bits
        self._bits += 1
        sigs = self._sigs
        for node, value in enumerate(values):
            if value:
                sigs[node] |= bit
        members = self._members
        self._members = []
        self._classes = {}
        for node, canon in members:
            self._register(node, canon)

    # -- CNF ---------------------------------------------------------------

    def _lit(self, signal: int) -> int:
        """CNF literal of a rebuilt signal, encoding its cone on demand."""
        node = signal >> 1
        variables = self._vars
        if node >= len(variables):
            variables.extend([0] * (self.network.num_nodes - len(variables)))
        if not variables[node]:
            fanins = self.network.fanins
            pending: set[int] = set()
            stack = [node]
            while stack:
                n = stack.pop()
                if n in pending:
                    continue
                pending.add(n)
                stack.extend(s >> 1 for s in fanins(n) if not variables[s >> 1])
            builder = self.builder
            for n in sorted(pending):
                a, b, c = (
                    -variables[s >> 1] if s & 1 else variables[s >> 1]
                    for s in fanins(n)
                )
                out = builder.new_var()
                builder.maj_gate(out, a, b, c)
                variables[n] = out
        var = variables[node]
        return -var if signal & 1 else var

    def _allowance(self, cap: int | None) -> int | None:
        """Conflicts the next query may spend (0 = nothing left)."""
        if self.conflict_limit is not None:
            left = self.conflict_limit - self.conflicts
            if left <= 0:
                return 0
            cap = left if cap is None else min(cap, left)
        if self.budget is not None:
            if self.budget.expired():
                return 0
            cap = self.budget.call_conflict_budget(cap)
        return cap

    def _differ(self, a: int, b: int, cap: int | None) -> bool | None:
        """Can rebuilt signals *a* and *b* differ?  ``None`` = no answer.

        A proof (``False``) is kept as the clauses ``a <-> b``, which
        later queries reuse.
        """
        allowance = self._allowance(cap)
        if allowance == 0:
            return None
        la, lb = self._lit(a), self._lit(b)
        builder = self.builder
        diff = builder.new_var()
        builder.add_clause([-diff, la, lb])
        builder.add_clause([-diff, -la, -lb])
        before = builder.solver.conflicts
        self.queries += 1
        answer = builder.solve(assumptions=[diff], conflict_budget=allowance)
        spent = builder.solver.conflicts - before
        self.conflicts += spent
        if self.budget is not None:
            self.budget.charge_conflicts(spent)
        if answer is False:
            builder.iff(la, lb)
        return answer

    # -- the sweep ---------------------------------------------------------

    def run(self) -> Mig:
        """Rebuild every live gate, merging the proved equivalences."""
        mig, new, mapping = self.mig, self.network, self._map
        for node in mig._reachable_gates():
            a, b, c = mig.fanins(node)
            signal = new.maj(
                mapping[a >> 1] ^ (a & 1),
                mapping[b >> 1] ^ (b & 1),
                mapping[c >> 1] ^ (c & 1),
            )
            phase = self._phase(node)
            canon = signal ^ phase
            while node >= self.query_from:
                rep = self._classes.get(self._key(node))
                if rep is None or rep == canon:
                    break
                answer = self._differ(rep, canon, self.query_conflicts)
                if answer is False:
                    canon = rep
                    break
                if answer is None or self.refinements >= self.max_refinements:
                    break
                self._refine(self._model_pattern())
            self._register(node, canon)
            mapping[node] = canon ^ phase
        for s, name in zip(mig.outputs, mig.output_names):
            new.add_po(mapping[s >> 1] ^ (s & 1), name)
        return new

    def refuting_pattern(self, s1: int, s2: int) -> list[int] | None:
        """PI values under which simulation tells *s1* and *s2* apart."""
        diff = self._signature(s1) ^ self._signature(s2)
        if not diff:
            return None
        return self._pattern_at((diff & -diff).bit_length() - 1)

    def prove_pair(
        self, s1: int, s2: int
    ) -> tuple[bool | None, list[int] | None]:
        """Settle whether signals *s1* and *s2* of the swept network agree.

        Returns ``(True, None)`` when they collapse to one rebuilt signal
        (an earlier merge, or this call's query proves it), ``(False,
        pattern)`` with the distinguishing PI values when simulation or
        the query's model tells them apart, and ``(None, None)`` when
        the conflict allowance runs out first.  The query may spend all
        that is left of the sweep's allowance.
        """
        pattern = self.refuting_pattern(s1, s2)
        if pattern is not None:
            return False, pattern
        a = self._map[s1 >> 1] ^ (s1 & 1)
        b = self._map[s2 >> 1] ^ (s2 & 1)
        if a == b:
            return True, None
        answer = self._differ(a, b, None)
        if answer is False:
            return True, None
        if answer is True:
            return False, self._model_pattern()
        return None, None
