"""Tests for the CDCL solver, the DPLL baseline, and their agreement.

The CDCL solver substitutes Glucose in the reproduction, so its
correctness is load-bearing: beyond unit tests, it is differential-tested
against DPLL and a truth-table oracle on random formulas.
"""

import itertools
import random

import pytest

from repro.sat.cnf import CNF
from repro.sat.dpll import enumerate_models_dpll, solve_dpll
from repro.sat.enumeration import all_models, count_models, enumerate_models
from repro.sat.solver import CDCLSolver, _luby, solve_cnf


def brute_force_satisfiable(cnf: CNF) -> bool:
    for bits in itertools.product((False, True), repeat=cnf.num_vars):
        assignment = {i + 1: bits[i] for i in range(cnf.num_vars)}
        if cnf.evaluate(assignment):
            return True
    return False


def random_cnf(num_vars: int, num_clauses: int, width: int, seed: int) -> CNF:
    rng = random.Random(seed)
    cnf = CNF(num_vars)
    for _ in range(num_clauses):
        size = rng.randint(1, width)
        variables = rng.sample(range(1, num_vars + 1), min(size, num_vars))
        cnf.add_clause(
            tuple(v if rng.random() < 0.5 else -v for v in variables)
        )
    return cnf


class TestLuby:
    def test_prefix(self):
        assert [_luby(i) for i in range(1, 16)] == [
            1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8,
        ]


class TestCDCLBasics:
    def test_trivial_sat(self):
        cnf = CNF(1)
        cnf.add_clause((1,))
        model = solve_cnf(cnf)
        assert model == {1: True}

    def test_trivial_unsat(self):
        cnf = CNF(1)
        cnf.add_clause((1,))
        cnf.add_clause((-1,))
        assert solve_cnf(cnf) is None

    def test_empty_clause_unsat(self):
        cnf = CNF(1)
        cnf.add_clause(())
        solver = CDCLSolver()
        # add_cnf of an empty clause must mark the solver unsatisfiable.
        solver.add_cnf(cnf)
        assert solver.solve() is False

    def test_propagation_chain(self):
        cnf = CNF(4)
        cnf.add_clause((1,))
        cnf.add_clause((-1, 2))
        cnf.add_clause((-2, 3))
        cnf.add_clause((-3, 4))
        model = solve_cnf(cnf)
        assert model == {1: True, 2: True, 3: True, 4: True}

    def test_model_satisfies_formula(self):
        cnf = random_cnf(12, 40, 3, seed=5)
        model = solve_cnf(cnf)
        if model is not None:
            assert cnf.evaluate(model)

    def test_pigeonhole_unsat(self):
        # 4 pigeons, 3 holes: var p(i,h) = 3*i + h + 1.
        cnf = CNF(12)
        for i in range(4):
            cnf.add_clause(tuple(3 * i + h + 1 for h in range(3)))
        for h in range(3):
            for i in range(4):
                for j in range(i + 1, 4):
                    cnf.add_clause((-(3 * i + h + 1), -(3 * j + h + 1)))
        assert solve_cnf(cnf) is None

    def test_conflict_limit_returns_none(self):
        cnf = CNF(12)
        for i in range(4):
            cnf.add_clause(tuple(3 * i + h + 1 for h in range(3)))
        for h in range(3):
            for i in range(4):
                for j in range(i + 1, 4):
                    cnf.add_clause((-(3 * i + h + 1), -(3 * j + h + 1)))
        solver = CDCLSolver()
        solver.add_cnf(cnf)
        assert solver.solve(conflict_limit=1) is None

    def test_tautology_skipped(self):
        solver = CDCLSolver(2)
        assert solver.add_clause((1, -1))
        assert solver.solve() is True


class TestAssumptions:
    def test_assumptions_restrict_models(self):
        cnf = CNF(2)
        cnf.add_clause((1, 2))
        solver = CDCLSolver()
        solver.add_cnf(cnf)
        assert solver.solve(assumptions=[-1]) is True
        assert solver.model()[2] is True
        # Assumptions are not permanent.
        assert solver.solve(assumptions=[1]) is True
        assert solver.solve(assumptions=[-1, -2]) is False
        assert solver.solve() is True

    def test_conflicting_assumption_pair(self):
        cnf = CNF(2)
        cnf.add_clause((1, 2))
        solver = CDCLSolver()
        solver.add_cnf(cnf)
        assert solver.solve(assumptions=[1, -1]) is False
        assert solver.solve() is True


class TestIncremental:
    def test_add_clause_between_solves(self):
        cnf = CNF(2)
        cnf.add_clause((1, 2))
        solver = CDCLSolver()
        solver.add_cnf(cnf)
        assert solver.solve() is True
        model = solver.model()
        blocking = [(-v if model[v] else v) for v in (1, 2)]
        assert solver.add_clause(blocking)
        assert solver.solve() is True
        assert solver.model() != model

    def test_phase_hints(self):
        cnf = CNF(3)
        cnf.add_clause((1, 2, 3))
        solver = CDCLSolver()
        solver.add_cnf(cnf)
        solver.set_phases({1: False, 2: True, 3: False})
        assert solver.solve() is True
        assert solver.model()[2] is True


class TestDPLL:
    def test_simple(self):
        cnf = CNF(2)
        cnf.add_clause((1,))
        cnf.add_clause((-1, -2))
        model = solve_dpll(cnf)
        assert model == {1: True, 2: False}

    def test_assumption_conflict(self):
        cnf = CNF(1)
        cnf.add_clause((1,))
        assert solve_dpll(cnf, assumptions=[-1]) is None

    def test_budget(self):
        from repro.sat.dpll import DPLLBudgetExceeded

        # Pigeonhole (4 pigeons, 3 holes) forces real branching.
        cnf = CNF(12)
        for i in range(4):
            cnf.add_clause(tuple(3 * i + h + 1 for h in range(3)))
        for h in range(3):
            for i in range(4):
                for j in range(i + 1, 4):
                    cnf.add_clause((-(3 * i + h + 1), -(3 * j + h + 1)))
        with pytest.raises(DPLLBudgetExceeded):
            solve_dpll(cnf, max_nodes=2)


class TestDifferential:
    @pytest.mark.parametrize("seed", range(30))
    def test_cdcl_agrees_with_brute_force(self, seed):
        cnf = random_cnf(8, 30, 3, seed=seed)
        expected = brute_force_satisfiable(cnf)
        model = solve_cnf(cnf)
        assert (model is not None) == expected
        if model is not None:
            assert cnf.evaluate(model)

    @pytest.mark.parametrize("seed", range(30))
    def test_cdcl_agrees_with_dpll(self, seed):
        cnf = random_cnf(14, 55, 3, seed=seed + 100)
        assert (solve_cnf(cnf) is not None) == (solve_dpll(cnf) is not None)

    @pytest.mark.parametrize("seed", range(10))
    def test_unsat_cores_harder_instances(self, seed):
        # Over-constrained random instances are mostly UNSAT; verify
        # agreement either way.
        cnf = random_cnf(10, 70, 3, seed=seed + 500)
        assert (solve_cnf(cnf) is not None) == brute_force_satisfiable(cnf)


class TestEnumeration:
    # Every enumeration here is capped one past the expected count, so a
    # blocking fault that repeats a model fails instead of looping.

    def test_count_models_full_projection(self):
        cnf = CNF(3)
        cnf.add_clause((1, 2, 3))
        assert count_models(cnf, limit=8) == 7

    def test_projection_collapses_models(self):
        cnf = CNF(3)
        cnf.add_clause((1, 2, 3))
        assert count_models(cnf, projection=[1], limit=3) == 2

    def test_matches_dpll_enumeration(self):
        cnf = random_cnf(6, 12, 3, seed=7)
        dpll_models = {
            frozenset(m.items()) for m in enumerate_models_dpll(cnf)
        }
        cdcl_models = [
            frozenset(m.items()) for m in all_models(cnf, limit=len(dpll_models) + 1)
        ]
        assert len(cdcl_models) == len(dpll_models)
        assert set(cdcl_models) == dpll_models

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("projected", [8, 5, 2])
    def test_projected_models_match_dpll_without_repeats(self, seed, projected):
        # Each model is blocked by a backjump, not a restart; over full and
        # partial projections the stream must still be exactly DPLL's set.
        cnf = random_cnf(8, 10 + seed, 3, seed=seed)
        projection = list(range(1, 9))[-projected:]
        dpll = {
            tuple(sorted(m.items()))
            for m in enumerate_models_dpll(cnf, variables=projection)
        }
        cdcl = [
            tuple(sorted(m.items()))
            for m in all_models(cnf, projection=projection, limit=len(dpll) + 1)
        ]
        assert len(cdcl) == len(set(cdcl))
        assert set(cdcl) == dpll

    def test_limit(self):
        cnf = CNF(4)
        cnf.add_clause((1, 2, 3, 4))
        assert count_models(cnf, limit=5) == 5

    def test_records_carry_delays(self):
        cnf = CNF(2)
        cnf.add_clause((1, 2))
        records = list(enumerate_models(cnf, limit=4))
        assert len(records) == 3
        assert all(r.delay_seconds >= 0 for r in records)
        assert [r.index for r in records] == [0, 1, 2]
