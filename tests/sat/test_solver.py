"""Tests for the CDCL SAT solver."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sat.solver import SAT, UNKNOWN, UNSAT, Solver, _luby


def brute_force_sat(num_vars: int, clauses: list[list[int]]) -> bool:
    for bits in range(1 << num_vars):
        if all(
            any((bits >> (abs(l) - 1)) & 1 == (1 if l > 0 else 0) for l in cl)
            for cl in clauses
        ):
            return True
    return False


def pigeonhole(holes: int) -> Solver:
    solver = Solver()
    v = [[solver.new_var() for _ in range(holes)] for _ in range(holes + 1)]
    for p in range(holes + 1):
        solver.add_clause(v[p])
    for h in range(holes):
        for p1 in range(holes + 1):
            for p2 in range(p1 + 1, holes + 1):
                solver.add_clause([-v[p1][h], -v[p2][h]])
    return solver


class TestBasics:
    def test_trivial_sat(self):
        s = Solver()
        a = s.new_var()
        s.add_clause([a])
        assert s.solve() is SAT
        assert s.model_value(a)
        assert not s.model_value(-a)

    def test_trivial_unsat(self):
        s = Solver()
        a = s.new_var()
        s.add_clause([a])
        s.add_clause([-a])
        assert s.solve() is UNSAT

    def test_empty_formula_is_sat(self):
        s = Solver()
        s.new_vars(3)
        assert s.solve() is SAT

    def test_tautology_ignored(self):
        s = Solver()
        a, b = s.new_vars(2)
        s.add_clause([a, -a, b])
        assert s.solve() is SAT

    def test_duplicate_literals_collapse(self):
        s = Solver()
        a, b = s.new_vars(2)
        s.add_clause([a, a, b])
        assert s.solve() is SAT

    def test_unallocated_variable_rejected(self):
        s = Solver()
        with pytest.raises(ValueError):
            s.add_clause([1])

    def test_model_requires_sat(self):
        s = Solver()
        s.new_var()
        with pytest.raises(RuntimeError):
            s.model_value(1)

    def test_luby_sequence(self):
        assert [_luby(i) for i in range(15)] == [
            1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8,
        ]


clause_strategy = st.lists(
    st.lists(
        st.integers(min_value=1, max_value=7).flatmap(
            lambda v: st.sampled_from([v, -v])
        ),
        min_size=1,
        max_size=3,
    ),
    min_size=1,
    max_size=30,
)


class TestAgainstBruteForce:
    @given(clause_strategy)
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force(self, clauses):
        s = Solver()
        s.new_vars(7)
        for cl in clauses:
            s.add_clause(cl)
        expected = brute_force_sat(7, clauses)
        got = s.solve()
        assert got == expected
        if got is SAT:
            for cl in clauses:
                assert any(s.model_value(l) for l in cl)


class TestHardInstances:
    @pytest.mark.parametrize("holes", [3, 4, 5])
    def test_pigeonhole_unsat(self, holes):
        assert pigeonhole(holes).solve() is UNSAT

    def test_conflict_budget_returns_unknown(self):
        s = pigeonhole(7)
        assert s.solve(conflict_budget=10) is UNKNOWN

    def test_budget_then_full_solve(self):
        s = pigeonhole(4)
        assert s.solve(conflict_budget=2) is UNKNOWN
        assert s.solve() is UNSAT


class TestAssumptions:
    def test_assumptions_restrict(self):
        s = Solver()
        a, b = s.new_vars(2)
        s.add_clause([a, b])
        assert s.solve(assumptions=[-a, -b]) is UNSAT
        assert s.solve(assumptions=[-a]) is SAT
        assert s.model_value(b)
        assert s.solve() is SAT  # unaffected afterwards

    def test_assumption_conflicting_with_units(self):
        s = Solver()
        a = s.new_var()
        s.add_clause([a])
        assert s.solve(assumptions=[-a]) is UNSAT
        assert s.solve() is SAT

    def test_incremental_clause_addition(self):
        s = Solver()
        a, b, c = s.new_vars(3)
        s.add_clause([a, b])
        assert s.solve() is SAT
        s.add_clause([-a])
        s.add_clause([-b, c])
        assert s.solve() is SAT
        assert not s.model_value(a)
        assert s.model_value(b)
        assert s.model_value(c)
        s.add_clause([-c])
        assert s.solve() is UNSAT


class TestStatistics:
    def test_counters_advance(self):
        s = pigeonhole(4)
        s.solve()
        assert s.conflicts > 0
        assert s.propagations > 0

    def test_analysis_marks_cleared_between_conflicts(self):
        # Conflict analysis reuses one mark array and clears only what it
        # marked; a stale mark would silently change later learnt clauses.
        s = pigeonhole(5)
        assert s.solve() is UNSAT
        assert s.conflicts > 0
        assert not any(s._seen)
        assert len(s._seen) == s.num_vars + 1
