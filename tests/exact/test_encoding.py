"""Tests for the exact-synthesis CNF encoding (Sec. III of the paper)."""

from __future__ import annotations

import pytest

from repro.core.truth_table import tt_maj, tt_var
from repro.exact.encoding import encode_exact_mig


class TestEncoding:
    def test_single_gate_maj(self):
        spec = tt_maj(tt_var(3, 0), tt_var(3, 1), tt_var(3, 2))
        enc = encode_exact_mig(spec, 3, 1)
        assert enc.solve() is True
        mig = enc.extract_mig()
        assert mig.num_gates == 1
        assert mig.simulate()[0] == spec

    def test_and_needs_one_gate(self):
        spec = tt_var(2, 0) & tt_var(2, 1)
        enc = encode_exact_mig(spec, 2, 1)
        assert enc.solve() is True
        assert enc.extract_mig().simulate()[0] == spec

    def test_xor_infeasible_below_three(self):
        spec = tt_var(2, 0) ^ tt_var(2, 1)
        assert encode_exact_mig(spec, 2, 1).solve() is False
        assert encode_exact_mig(spec, 2, 2).solve() is False

    def test_xor_feasible_at_three(self):
        spec = tt_var(2, 0) ^ tt_var(2, 1)
        enc = encode_exact_mig(spec, 2, 3)
        assert enc.solve() is True
        assert enc.extract_mig().simulate()[0] == spec

    def test_zero_gates_rejected(self):
        with pytest.raises(ValueError):
            encode_exact_mig(0x8, 2, 0)

    def test_out_of_range_spec(self):
        with pytest.raises(ValueError):
            encode_exact_mig(0x100, 2, 1)


class TestCegar:
    def test_cegar_agrees_with_monolithic_sat(self):
        spec = tt_var(3, 0) ^ tt_var(3, 1) ^ tt_var(3, 2)
        for k in (1, 2, 3, 4):
            mono = encode_exact_mig(spec, 3, k).solve()
            cegar = encode_exact_mig(spec, 3, k).solve_cegar()
            assert mono == cegar, f"disagreement at k={k}"

    def test_cegar_result_is_verified_function(self):
        spec = 0x69  # some 3-var function
        for k in range(1, 6):
            enc = encode_exact_mig(spec, 3, k)
            if enc.solve_cegar() is True:
                assert enc.extract_mig().simulate()[0] == spec
                return
        pytest.fail("no size up to 5 synthesized the function")

    def test_cegar_budget_exhaustion(self):
        spec = 0x1668
        enc = encode_exact_mig(spec, 4, 5)
        assert enc.solve_cegar(conflict_budget=5) is None


class TestSymmetryBreaking:
    def test_extracted_gates_have_distinct_fanin_nodes(self):
        spec = tt_var(3, 0) ^ tt_var(3, 1) ^ tt_var(3, 2)
        enc = encode_exact_mig(spec, 3, 4)
        assert enc.solve_cegar() is True
        mig = enc.extract_mig()
        for node in mig.gates():
            nodes = [s >> 1 for s in mig.fanins(node)]
            assert len(set(nodes)) == 3

    @pytest.mark.parametrize("spec,num_vars,k", [
        (0x96, 3, 4), (0x69, 3, 4), (0x001e, 4, 4), (0x0016, 4, 4), (0x01fe, 4, 5),
    ])
    def test_non_root_gates_have_at_most_one_complemented_input(self, spec, num_vars, k):
        enc = encode_exact_mig(spec, num_vars, k)
        assert enc.solve_cegar() is True
        for l in range(k - 1):
            flips = [enc.builder.value(q) for q in enc.complement_vars[l]]
            assert sum(flips) <= 1, (hex(spec), l, flips)
        assert enc.extract_mig().simulate()[0] == spec
