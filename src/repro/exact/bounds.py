"""MIG size bounds: the Theorem 2 upper bound and synthesis lower bounds.

The paper proves ``C(n) <= 10 * (2**(n-4) - 1) + 7`` for ``n >= 4`` by
induction: the base case is the exhaustively computed worst 4-variable
cost (7 majority gates), and the step is Shannon's expansion written in
majority form::

    f = <1 <0 x' f_x'> <0 x f_x>>        (3 extra gates per variable)

:func:`shannon_upper_bound_mig` implements exactly this construction, so
the bound can be validated experimentally for ``n > 4``
(``benchmarks/bench_theorem2.py``).

:func:`mig_size_lower_bound` is the other direction, used by the exact
synthesis driver to *start* the size loop above sizes that provably
cannot work instead of refuting them with SAT calls:

* support counting — a connected single-output MIG with ``k`` majority
  gates has ``3k`` operand slots of which at least ``k - 1`` feed later
  gates, so it reads at most ``2k + 1`` distinct primary inputs;
* exhaustive membership in the (cached) sets of functions computable
  with one, two or (for ``n <= 4``) three gates, which pushes the bound
  to 3 or 4 for everything else.

:func:`optimal_small_migs` makes those membership sets constructive: it
is an exhaustive enumeration of all MIG structures with up to three
gates (up to two for ``n > 4``, where the three-gate sweep gets
expensive), keyed by truth table, each entry carrying a witness gate
list.  For any function in the table the minimum size is *known* and a
witness MIG can be rebuilt without any SAT call at all; for any function
outside it the synthesis size loop can start at the first unknown size.
The table is a function of ``n`` only, computed once per process and
shared by every synthesis call — the same amortization the paper applies
to its NPN database.

:func:`composed_four_gate_migs` extends the constructive range by one
size for ``n <= 4``: it composes 4-gate witnesses from the exact-size
sets of that table (a 3-gate top plus leaves, a 1-gate and a 2-gate
function side by side, or three 1-gate functions).  Every function it
reaches lies outside the exhaustive <=3-gate table, so four gates is its
proven minimum.  For n = 4 it covers 9,312 functions, 37 of the 42
size-4 NPN classes; it is built lazily, on the first lookup it serves.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..core.mig import CONST0, CONST1, Mig, make_signal, signal_not
from ..core.truth_table import (
    tt_cofactor0,
    tt_cofactor1,
    tt_maj,
    tt_mask,
    tt_support,
    tt_var,
)
from ..database.npn_db import NpnDatabase
from .heuristic import single_gate_functions

__all__ = [
    "theorem2_bound",
    "shannon_upper_bound_mig",
    "composed_four_gate_migs",
    "mig_size_lower_bound",
    "optimal_mig_from_table",
    "optimal_small_migs",
    "two_gate_functions",
]


def theorem2_bound(num_vars: int, base_cost: int = 7) -> int:
    """The Theorem 2 bound ``10 * (2**(n-4) - 1) + 7`` for ``n >= 4``.

    *base_cost* is the worst-case 4-variable MIG size; pass the maximum
    size found in a (possibly unproven) database to get the corresponding
    relaxed bound ``(base_cost + 3) * (2**(n-4) - 1) + base_cost``.
    """
    if num_vars < 4:
        raise ValueError("Theorem 2 is stated for n >= 4")
    return (base_cost + 3) * (2 ** (num_vars - 4) - 1) + base_cost


def shannon_upper_bound_mig(spec: int, num_vars: int, db: NpnDatabase) -> Mig:
    """Build an MIG for *spec* via the Theorem 2 Shannon construction.

    Variables above the 4th are expanded one at a time with the 3-gate
    majority form of Shannon's expansion; 4-variable leaves come from the
    NPN database.  The resulting size respects
    :func:`theorem2_bound` with ``base_cost`` the database maximum.
    """
    if num_vars < 4:
        raise ValueError("use the database directly for n <= 4")
    if spec < 0 or spec > tt_mask(num_vars):
        raise ValueError(f"spec 0x{spec:x} out of range for {num_vars} variables")
    mig = Mig(num_vars)

    def build(tt: int, top_var: int) -> int:
        """Implement *tt* over variables 0..top_var (inclusive)."""
        if top_var < 4:
            leaves = [make_signal(1 + i) for i in range(4)]
            return db.rebuild(mig, tt & tt_mask(4), leaves)
        f0 = tt_cofactor0(tt, top_var, top_var + 1) & tt_mask(top_var)
        f1 = tt_cofactor1(tt, top_var, top_var + 1) & tt_mask(top_var)
        x = make_signal(1 + top_var)
        if f0 == f1:
            return build(f0, top_var - 1)
        low = build(f0, top_var - 1)
        high = build(f1, top_var - 1)
        # <1 <0 x' f0> <0 x f1>>
        left = mig.maj(CONST0, signal_not(x), low)
        right = mig.maj(CONST0, x, high)
        return mig.maj(CONST1, left, right)

    mig.add_po(build(spec, num_vars - 1), "f")
    return mig.cleanup()


@lru_cache(maxsize=8)
def two_gate_functions(num_vars: int) -> frozenset[int]:
    """All truth tables computable by an MIG with at most two gates.

    Enumerated exhaustively: the root gate reads the inner gate (with
    either polarity) plus two literal/constant operands — a two-gate MIG
    whose root ignores the inner gate is really a one-gate MIG, and
    self-duality of majority closes the set under output complement.
    """
    mask = tt_mask(num_vars)
    literals = [0, mask]
    for i in range(num_vars):
        v = tt_var(num_vars, i)
        literals.append(v)
        literals.append(v ^ mask)
    inner = set(single_gate_functions(num_vars))
    table = set(literals) | inner
    for f1 in inner:
        for g in (f1, f1 ^ mask):
            for ia in range(len(literals)):
                for ib in range(ia + 1, len(literals)):
                    table.add(tt_maj(g, literals[ia], literals[ib]))
    return frozenset(table)


# A witness is a tuple of gates; each gate is a triple of operand
# signals ``2 * node + complemented`` where node 0 is the constant,
# 1..n are primary inputs and n+1, n+2, ... are earlier witness gates.
Witness = tuple[tuple[int, int, int], ...]

#: Three-gate enumeration is O(|1-gate|^2) truth-table operations; past
#: this variable count we stop at the (cheap) two-gate sweep.
_THREE_GATE_MAX_VARS = 4


def _leaf_operands(num_vars: int) -> tuple[list[tuple[int, int]], list]:
    """Leaf operands as (signal, truth table), and their distinct-node pairs.

    A node and its complement are the same node, as are 0 and 1, so a
    pair never holds both.
    """
    mask = tt_mask(num_vars)
    leaves = [(CONST0, 0), (CONST1, mask)]
    for i in range(num_vars):
        pos = make_signal(1 + i)
        v = tt_var(num_vars, i)
        leaves.append((pos, v))
        leaves.append((signal_not(pos), v ^ mask))
    leaf_pairs = [
        (leaves[ia], leaves[ib])
        for ia in range(len(leaves))
        for ib in range(ia + 1, len(leaves))
        if leaves[ia][0] >> 1 != leaves[ib][0] >> 1
    ]
    return leaves, leaf_pairs


@lru_cache(maxsize=4)
def optimal_small_migs(num_vars: int) -> dict[int, Witness]:
    """Map truth table -> minimum witness gate list, for all small MIGs.

    Exhaustively enumerates every MIG structure with up to three gates
    (two for ``num_vars > 4``): every gate reads three *distinct* earlier
    nodes with arbitrary edge polarities, and every non-root gate feeds a
    later gate (dead gates never occur in a minimum MIG).  Functions of
    size 0 (constants and literals) are excluded — the synthesis driver
    handles them directly.  Witness length is the exact minimum size:
    each size layer only records functions absent from all smaller ones.
    """
    mask = tt_mask(num_vars)
    one_gate = single_gate_functions(num_vars)
    leaves, leaf_pairs = _leaf_operands(num_vars)
    trivial = {0, mask}
    for _, v in leaves:
        trivial.add(v)

    table: dict[int, Witness] = {}
    # -- size 1 ----------------------------------------------------------
    for tt, ops in one_gate.items():
        if tt not in trivial:
            table.setdefault(tt, (ops,))
    one_tts = [tt for tt in one_gate if tt not in trivial]
    known = trivial | set(table)

    # -- size 2: root reads +/-g1 and two distinct leaf nodes ------------
    g1_ref = make_signal(num_vars + 1)
    two: dict[int, Witness] = {}
    for tt1 in one_tts:
        ops1 = one_gate[tt1]
        for g_sig, g_tt in ((g1_ref, tt1), (signal_not(g1_ref), tt1 ^ mask)):
            for (sa, va), (sb, vb) in leaf_pairs:
                tt = tt_maj(g_tt, va, vb)
                if tt not in known and tt not in two:
                    two[tt] = (ops1, (g_sig, sa, sb))
    table.update(two)
    known |= set(two)
    if num_vars > _THREE_GATE_MAX_VARS:
        return table

    # -- size 3 ----------------------------------------------------------
    g2_ref = make_signal(num_vars + 2)
    # (a) root reads the top of a two-gate chain plus two leaves.  The
    # exact-size-2 set is closed under complement (majority self-duality),
    # so iterating it positively covers both root polarities.
    for tt2, (w1, w2) in two.items():
        for (sa, va), (sb, vb) in leaf_pairs:
            tt = tt_maj(tt2, va, vb)
            if tt not in known:
                table[tt] = (w1, w2, (g2_ref, sa, sb))
    # (b) root reads g1, g2 and a leaf, where g2 also reads g1.  Root
    # polarities on g1/g2 are explicit: g2's construction pins g1.
    for tt1 in one_tts:
        ops1 = one_gate[tt1]
        for (sa, va), (sb, vb) in leaf_pairs:
            for g_sig, g_tt in ((g1_ref, tt1), (signal_not(g1_ref), tt1 ^ mask)):
                tt2 = tt_maj(g_tt, va, vb)
                if tt2 in trivial or tt2 in one_gate:
                    continue  # the whole network would shrink below 3 gates
                ops2 = (g_sig, sa, sb)
                for r1_sig, r1_tt in ((g1_ref, tt1), (signal_not(g1_ref), tt1 ^ mask)):
                    for r2_sig, r2_tt in ((g2_ref, tt2), (signal_not(g2_ref), tt2 ^ mask)):
                        for sc, vc in leaves:
                            tt = tt_maj(r1_tt, r2_tt, vc)
                            if tt not in known:
                                table[tt] = (ops1, ops2, (r1_sig, r2_sig, sc))
    # (c) root reads two independent single gates and a leaf.  The
    # one-gate truth-table set is closed under complement, so unordered
    # pairs over it cover all four root polarity combinations.
    for i1 in range(len(one_tts)):
        tt1 = one_tts[i1]
        ops1 = one_gate[tt1]
        for i2 in range(i1 + 1, len(one_tts)):
            tt2 = one_tts[i2]
            if tt2 == tt1 ^ mask:
                continue  # maj(f, ~f, c) = c: never a new function
            ops2 = one_gate[tt2]
            for sc, vc in leaves:
                tt = tt_maj(tt1, tt2, vc)
                if tt not in known:
                    table[tt] = (ops1, ops2, (g1_ref, g2_ref, sc))
    return table


@lru_cache(maxsize=4)
def composed_four_gate_migs(num_vars: int) -> dict[int, Witness]:
    """Map truth table -> a 4-gate witness, for functions past the <=3 table.

    Only for ``num_vars <= 4``, where :func:`optimal_small_migs` is
    exhaustive up to three gates: every function outside it needs at least
    four gates, so any 4-gate witness is a minimum.  The witnesses are
    composed from the exact-size sets of that table in three shapes,
    evaluated on numpy arrays of truth tables (``tt_maj`` broadcasts):

    (A) the root reads an exact-size-3 function and two distinct leaves;
    (B) the root reads an independent 1-gate function, a 2-gate function
        and a leaf;
    (C) the root reads three independent 1-gate functions.

    Each exact-size set is closed under complement (majority
    self-duality), so iterating it positively covers every root polarity.
    The shapes do not reach every 4-gate function (a root reading two
    gates that share a fanin, say); the synthesis driver proves those by
    SAT.  Keys are disjoint from the <=3 table and from the literals.
    """
    if num_vars > _THREE_GATE_MAX_VARS:
        raise ValueError(
            f"composed witnesses are minimum only for n <= {_THREE_GATE_MAX_VARS}"
        )
    n = num_vars
    small = optimal_small_migs(n)
    by_size: dict[int, list[int]] = {1: [], 2: [], 3: []}
    for tt, witness in small.items():
        by_size[len(witness)].append(tt)
    leaves, leaf_pairs = _leaf_operands(n)
    leaf_tts = np.array([v for _, v in leaves], dtype=np.int64)
    pair_a = np.array([va for (_, va), _ in leaf_pairs], dtype=np.int64)
    pair_b = np.array([vb for _, (_, vb) in leaf_pairs], dtype=np.int64)
    # known[tt]: a literal, in the <=3 table, or already composed
    known = np.zeros(1 << (1 << n), dtype=bool)
    known[leaf_tts] = True
    known[np.array(list(small), dtype=np.int64)] = True
    table: dict[int, Witness] = {}

    def fresh(tts: np.ndarray):
        """(truth table, first flat index) of each unknown entry of *tts*."""
        values, first = np.unique(tts.ravel(), return_index=True)
        new = ~known[values]
        known[values[new]] = True
        return zip(values[new].tolist(), first[new].tolist())

    def shifted(ops: tuple[int, int, int]) -> tuple[int, int, int]:
        """Re-reference the gate operands in *ops* one node later."""
        return tuple(s + 2 if s >> 1 > n else s for s in ops)

    g1_ref, g2_ref, g3_ref = (make_signal(n + i) for i in (1, 2, 3))
    # (A) an exact-size-3 top plus two leaves
    three = by_size[3]
    tts = tt_maj(np.array(three, dtype=np.int64)[:, None], pair_a, pair_b)
    for tt, i in fresh(tts):
        (sa, _), (sb, _) = leaf_pairs[i % len(leaf_pairs)]
        table[tt] = (*small[three[i // len(leaf_pairs)]], (g3_ref, sa, sb))
    # (B) one 1-gate row at a time: a single 3-D broadcast costs memory
    one, two = by_size[1], by_size[2]
    two_tts = np.array(two, dtype=np.int64)[:, None]
    for tt1 in one:
        for tt, i in fresh(tt_maj(tt1, two_tts, leaf_tts)):
            w1, w2 = small[two[i // len(leaves)]]
            root = (g1_ref, g3_ref, leaves[i % len(leaves)][0])
            table[tt] = (small[tt1][0], shifted(w1), shifted(w2), root)
    # (C) unordered triples of 1-gate functions, one first member at a time
    one_tts = np.array(one, dtype=np.int64)
    for i1, tt1 in enumerate(one):
        rest2, rest3 = np.triu_indices(len(one) - i1 - 1, 1)
        rest2 += i1 + 1
        rest3 += i1 + 1
        for tt, i in fresh(tt_maj(tt1, one_tts[rest2], one_tts[rest3])):
            table[tt] = (small[tt1][0], small[one[rest2[i]]][0],
                         small[one[rest3[i]]][0], (g1_ref, g2_ref, g3_ref))
    return table


def optimal_mig_from_table(spec: int, num_vars: int) -> Mig | None:
    """Rebuild a provably minimum MIG for *spec* from the witness table.

    Consults the exhaustive <=3-gate table, then (for ``num_vars <= 4``)
    the composed 4-gate witnesses.  Returns None when *spec* is covered by
    neither.  Size-0 functions (constants and literals) are also
    materialized here for completeness.
    """
    if spec < 0 or spec > tt_mask(num_vars):
        raise ValueError(f"spec 0x{spec:x} out of range for {num_vars} variables")
    mask = tt_mask(num_vars)
    trivial: dict[int, int] = {0: CONST0, mask: CONST1}
    for i in range(num_vars):
        v = tt_var(num_vars, i)
        trivial.setdefault(v, make_signal(1 + i))
        trivial.setdefault(v ^ mask, signal_not(make_signal(1 + i)))
    if spec in trivial:
        mig = Mig(num_vars)
        mig.add_po(trivial[spec], "f")
        return mig
    witness = optimal_small_migs(num_vars).get(spec)
    if witness is None and num_vars <= _THREE_GATE_MAX_VARS:
        witness = composed_four_gate_migs(num_vars).get(spec)
    if witness is None:
        return None
    mig = Mig(num_vars)
    node_signals = [CONST0] + [make_signal(1 + i) for i in range(num_vars)]
    for ops in witness:
        resolved = [node_signals[s >> 1] ^ (s & 1) for s in ops]
        node_signals.append(mig.maj(*resolved))
    mig.add_po(node_signals[-1], "f")
    return mig


def mig_size_lower_bound(spec: int, num_vars: int) -> int:
    """A sound lower bound on the minimum majority-gate count for *spec*.

    Exact for every size the witness table covers (0-3 for ``n <= 4``,
    0-2 above); one past the table for everything else, more when the
    functional support forces it (``k`` gates read at most ``2k + 1``
    distinct inputs).
    """
    if spec < 0 or spec > tt_mask(num_vars):
        raise ValueError(f"spec 0x{spec:x} out of range for {num_vars} variables")
    mask = tt_mask(num_vars)
    if spec in (0, mask):
        return 0
    for i in range(num_vars):
        v = tt_var(num_vars, i)
        if spec in (v, v ^ mask):
            return 0
    support_bound = len(tt_support(spec, num_vars)) // 2  # ceil((s - 1) / 2)
    witness = optimal_small_migs(num_vars).get(spec)
    if witness is not None:
        return max(len(witness), support_bound)
    past_table = 4 if num_vars <= _THREE_GATE_MAX_VARS else 3
    return max(past_table, support_bound)
