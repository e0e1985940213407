"""Tests for the SAT-sweeping engine behind ``fraig`` and SAT CEC."""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.mig import CONST0, Mig
from repro.core.simulate import equivalent_exhaustive, equivalent_random
from repro.generators import epfl
from repro.opt.depth_opt import optimize_depth
from repro.rewriting.engine import functional_hashing
from repro.runtime.budget import Budget
from repro.runtime.verify import verify_rewrite
from repro.sat.cec import check_equivalence_sat
from repro.sat.sweep import Sweeper, miter_network


@st.composite
def random_mig(draw, min_pis=3, max_pis=14, max_gates=30):
    """Random multi-output MIG, narrow enough for exhaustive simulation."""
    num_pis = draw(st.integers(min_value=min_pis, max_value=max_pis))
    mig = Mig(num_pis)
    signals = [CONST0] + mig.pi_signals()
    for _ in range(draw(st.integers(min_value=1, max_value=max_gates))):
        picks = draw(
            st.lists(
                st.tuples(st.integers(0, len(signals) - 1), st.booleans()),
                min_size=3,
                max_size=3,
            )
        )
        signals.append(mig.maj(*(signals[i] ^ int(c) for i, c in picks)))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        idx = draw(st.integers(len(signals) // 2, len(signals) - 1))
        mig.add_po(signals[idx] ^ int(draw(st.booleans())))
    return mig


def complement_one_fanin(mig: Mig, gate_pick: int, fanin_pick: int) -> Mig:
    """Copy of *mig* with one fanin of one live gate complemented."""
    gates = mig._reachable_gates()
    if not gates:
        return mig.clone()
    target = gates[gate_pick % len(gates)]

    def builder(new, node, fanins, mapping):
        if node == target:
            k = fanin_pick % 3
            fanins = tuple(s ^ (i == k) for i, s in enumerate(fanins))
        return new.maj(*fanins)

    return mig.rebuild(builder)


def simulate_pattern(mig: Mig, cex: dict[str, bool]) -> list[int]:
    return mig.simulate_patterns([int(cex[name]) for name in mig.pi_names], 1)


def assert_counterexample(mig1: Mig, mig2: Mig, cex: dict[str, bool] | None) -> None:
    assert cex is not None
    assert set(cex) == set(mig1.pi_names)
    assert simulate_pattern(mig1, cex) != simulate_pattern(mig2, cex)


class TestDifferential:
    """Unlimited sweeps always decide, and agree with exhaustive simulation."""

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        mig=random_mig(),
        variant=st.sampled_from(["BF", "TF", "TFD"]),
        mutate=st.booleans(),
        gate_pick=st.integers(0, 1000),
        fanin_pick=st.integers(0, 2),
    )
    def test_matches_exhaustive(self, db, mig, variant, mutate, gate_pick, fanin_pick):
        other = functional_hashing(mig, db, variant)
        if mutate:
            other = complement_one_fanin(other, gate_pick, fanin_pick)
        result = check_equivalence_sat(mig, other)
        assert result.equivalent is equivalent_exhaustive(mig, other)
        if result.equivalent is False:
            assert_counterexample(mig, other, result.counterexample)
        else:
            assert result.counterexample is None


class TestVerdicts:
    def test_single_minterm_difference_is_refuted(self):
        """``out ^ AND(all PIs)`` slips past sampling; the sweep finds it."""
        width = 20
        good = Mig(width)
        pis = good.pi_signals()
        out = good.xor(good.maj(pis[0], pis[1], pis[2]), pis[3])
        good.add_po(out)
        bad = good.clone()
        conj = pis[0]
        for pi in pis[1:]:
            conj = bad.and_(conj, pi)
        bad._outputs[0] = bad.xor(out, conj)

        assert equivalent_random(good, bad, num_rounds=16)
        report = verify_rewrite(good, bad, mode="cec")
        assert report.method == "cec"
        assert report.equivalent is False
        assert report.counterexample == {name: True for name in good.pi_names}

    def test_one_conflict_budget_is_unproven_not_proved(self):
        before = epfl.adder(16)
        after = optimize_depth(before)
        full = check_equivalence_sat(before, after)
        assert full.equivalent is True and full.conflicts > 1
        starved = check_equivalence_sat(before, after, conflict_budget=1)
        assert starved.equivalent is None
        assert starved.counterexample is None
        assert starved.conflicts <= 1

    def test_conflict_limit_caps_the_total(self):
        before = epfl.multiplier(8)
        after = optimize_depth(before)
        budget = Budget.from_limits(conflict_limit=10_000)
        result = check_equivalence_sat(before, after, conflict_budget=40, budget=budget)
        assert result.conflicts <= 40
        assert budget.conflicts_spent == result.conflicts

    def test_deterministic(self):
        before = epfl.multiplier(8)
        after = optimize_depth(before)
        runs = [check_equivalence_sat(before, after, conflict_budget=300) for _ in range(2)]
        assert runs[0] == runs[1]

    def test_structural_match_needs_no_query(self, full_adder):
        result = check_equivalence_sat(full_adder, full_adder.cleanup())
        assert result.equivalent is True and result.conflicts == 0


class TestEngine:
    def test_miter_network_shares_identical_logic(self, full_adder):
        combined, second = miter_network(full_adder, full_adder.clone())
        assert combined.num_gates == full_adder.num_gates
        assert second == combined.num_nodes
        assert combined.outputs == full_adder.outputs * 2

    def test_sweep_merges_both_sides(self):
        before = epfl.adder(6)
        after = optimize_depth(before)
        combined, _ = miter_network(before, after)
        sweeper = Sweeper(combined)
        swept = sweeper.run()
        assert equivalent_exhaustive(combined, swept)
        n = before.num_pos
        assert swept.outputs[:n] == swept.outputs[n:]
        assert sweeper.queries > 0

    def test_exhausted_budget_keeps_every_gate(self):
        mig = epfl.sine(6)
        sweeper = Sweeper(mig, budget=Budget.from_limits(time_limit=0.0))
        swept = sweeper.run()
        assert sweeper.queries == 0
        assert equivalent_exhaustive(mig, swept)
