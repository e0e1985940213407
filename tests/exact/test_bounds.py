"""Tests for the Theorem 2 size bound and the synthesis lower bounds."""

from __future__ import annotations

import random

import pytest

from repro.core.truth_table import tt_mask, tt_var
from repro.exact.bounds import (
    composed_four_gate_migs,
    mig_size_lower_bound,
    optimal_mig_from_table,
    optimal_small_migs,
    shannon_upper_bound_mig,
    theorem2_bound,
    two_gate_functions,
)
from repro.exact.synthesis import ExactSynthesizer


class TestBoundFormula:
    def test_paper_values(self):
        """C(4) <= 7, C(5) <= 17, C(6) <= 37, C(7) <= 77."""
        assert theorem2_bound(4) == 7
        assert theorem2_bound(5) == 17
        assert theorem2_bound(6) == 37
        assert theorem2_bound(7) == 77

    def test_recurrence(self):
        """The bound satisfies C(n+1) <= 2*C(n) + 3 with equality."""
        for n in range(4, 10):
            assert theorem2_bound(n + 1) == 2 * theorem2_bound(n) + 3

    def test_relaxed_base(self):
        assert theorem2_bound(4, base_cost=9) == 9
        assert theorem2_bound(5, base_cost=9) == 21

    def test_below_four_rejected(self):
        with pytest.raises(ValueError):
            theorem2_bound(3)


class TestShannonConstruction:
    def test_five_variable_functions(self, db):
        rng = random.Random(3)
        base = max(entry.size for entry in db.entries.values())
        bound = theorem2_bound(5, base_cost=base)
        for _ in range(10):
            spec = rng.getrandbits(32)
            mig = shannon_upper_bound_mig(spec, 5, db)
            assert mig.simulate()[0] == spec
            assert mig.num_gates <= bound

    def test_six_variable_functions(self, db):
        rng = random.Random(4)
        base = max(entry.size for entry in db.entries.values())
        bound = theorem2_bound(6, base_cost=base)
        for _ in range(4):
            spec = rng.getrandbits(64)
            mig = shannon_upper_bound_mig(spec, 6, db)
            assert mig.simulate()[0] == spec
            assert mig.num_gates <= bound

    def test_degenerate_function_collapses(self, db):
        # A 5-var function not depending on x4 costs no Shannon step.
        spec5 = tt_var(5, 0) & tt_var(5, 1)
        mig = shannon_upper_bound_mig(spec5, 5, db)
        assert mig.simulate()[0] == spec5
        assert mig.num_gates <= 7

    def test_small_n_rejected(self, db):
        with pytest.raises(ValueError):
            shannon_upper_bound_mig(0x8, 3, db)

    def test_out_of_range_spec(self, db):
        with pytest.raises(ValueError):
            shannon_upper_bound_mig(1 << 32, 5, db)


def _sat_only(conflict_budget=500_000, **kw):
    """An independent oracle: per-size SAT with every fast path off."""
    return ExactSynthesizer(
        use_lower_bound=False, carry_rows=False,
        conflict_budget=conflict_budget, **kw,
    )


class TestSmallMigTable:
    def test_every_three_var_witness_is_correct(self):
        """Exhaustive: all 3-var witnesses simulate to their key."""
        table = optimal_small_migs(3)
        assert len(table) == 152  # 256 functions - 8 trivial - 96 of size 4
        for spec, witness in table.items():
            mig = optimal_mig_from_table(spec, 3)
            assert mig.simulate()[0] == spec
            assert mig.num_gates == len(witness)

    def test_three_var_sizes_match_sat(self):
        """Both tables' sizes agree with SAT-only synthesis on every 3-var class.

        Combined with the NPN closure of minimum size this covers all 256
        functions; the exhaustive non-class check ran during development.
        """
        from repro.core.npn import enumerate_npn_classes

        table = optimal_small_migs(3)
        composed = composed_four_gate_migs(3)
        for rep in enumerate_npn_classes(3):
            result = _sat_only().synthesize(rep, 3)
            assert result.proven
            if result.size == 0:
                assert rep not in table and rep not in composed
            elif result.size <= 3:
                assert len(table[rep]) == result.size, hex(rep)
            else:
                assert rep not in table, hex(rep)
                assert len(composed[rep]) == result.size, hex(rep)

    def test_four_var_witnesses_simulate(self):
        table = optimal_small_migs(4)
        for spec in sorted(table)[::37]:  # deterministic sample
            mig = optimal_mig_from_table(spec, 4)
            assert mig.simulate()[0] == spec
            assert mig.num_gates == len(table[spec])

    def test_four_var_out_of_table_is_unsat_below_four(self):
        """Sizes 1-3 are refuted by SAT for specs the table excludes."""
        rng = random.Random(11)
        table = optimal_small_migs(4)
        mask = tt_mask(4)
        trivial = {0, mask}
        for i in range(4):
            trivial |= {tt_var(4, i), tt_var(4, i) ^ mask}
        picked = 0
        while picked < 3:
            spec = rng.getrandbits(16)
            if spec in table or spec in trivial:
                continue
            picked += 1
            result = _sat_only(max_gates=3).synthesize(spec, 4)
            assert result.mig is None
            assert all(
                v == "unsat" for k, v in result.k_outcomes.items() if k >= 1
            ), (hex(spec), result.k_outcomes)

    def test_trivial_functions_materialize(self):
        mask = tt_mask(4)
        for spec in (0, mask, tt_var(4, 2), tt_var(4, 2) ^ mask):
            mig = optimal_mig_from_table(spec, 4)
            assert mig is not None and mig.num_gates == 0
            assert mig.simulate()[0] == spec

    def test_out_of_range_spec(self):
        with pytest.raises(ValueError):
            optimal_mig_from_table(1 << 16, 4)


def _literals(num_vars):
    mask = tt_mask(num_vars)
    lits = {0, mask}
    for i in range(num_vars):
        lits |= {tt_var(num_vars, i), tt_var(num_vars, i) ^ mask}
    return lits


class TestComposedFourGate:
    def test_three_vars_complete(self):
        """The <=3 table and the composed table answer all 248 functions."""
        small = optimal_small_migs(3)
        composed = composed_four_gate_migs(3)
        answered = set(small) | set(composed)
        assert answered == set(range(256)) - _literals(3)
        assert len(composed) == 96

    @pytest.mark.parametrize("num_vars", [3, 4])
    def test_witnesses_have_four_gates_and_simulate(self, num_vars):
        composed = composed_four_gate_migs(num_vars)
        for spec, witness in composed.items():
            assert len(witness) == 4
            mig = optimal_mig_from_table(spec, num_vars)
            assert mig.num_gates == 4, hex(spec)
            assert mig.simulate()[0] == spec, hex(spec)

    @pytest.mark.parametrize("num_vars", [2, 3, 4])
    def test_keys_disjoint_from_small_table_and_literals(self, num_vars):
        composed = set(composed_four_gate_migs(num_vars))
        assert not composed & set(optimal_small_migs(num_vars))
        assert not composed & _literals(num_vars)

    def test_four_var_coverage(self):
        # 9,312 functions: 37 of the 42 size-4 NPN classes
        assert len(composed_four_gate_migs(4)) == 9312

    def test_rejected_past_four_vars(self):
        with pytest.raises(ValueError):
            composed_four_gate_migs(5)


class TestLowerBound:
    def test_exact_for_table_sizes(self):
        # XOR2 embedded in 3 vars: size 3; MAJ: size 1; AND: size 1.
        assert mig_size_lower_bound(tt_var(3, 0) ^ tt_var(3, 1), 3) == 3
        assert mig_size_lower_bound(tt_var(3, 0) & tt_var(3, 1), 3) == 1
        assert mig_size_lower_bound(0, 3) == 0
        assert mig_size_lower_bound(tt_mask(4), 4) == 0

    def test_four_past_table_on_four_vars(self):
        # 0x1668 is outside the <=3-gate table: the bound starts SAT at 4.
        assert mig_size_lower_bound(0x1668, 4) == 4

    def test_support_bound(self):
        # A function reading all 8 variables needs >= ceil(7/2) = 3 gates
        # even before any membership test (k gates read <= 2k+1 inputs).
        spec = 0
        for i in range(8):
            spec ^= tt_var(8, i)
        assert mig_size_lower_bound(spec, 8) >= 3

    def test_two_gate_set_matches_table(self):
        table = optimal_small_migs(3)
        two = two_gate_functions(3)
        for spec in two:
            witness = table.get(spec)
            assert witness is None or len(witness) <= 2
