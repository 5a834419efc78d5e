"""Deeper tests of CDCL solver internals and robustness.

These complement test_sat_solvers.py with adversarial incremental usage
patterns (the exact patterns the enumerator and deciders produce) and
statistics bookkeeping.
"""

import random

import pytest

from repro.sat.cnf import CNF
from repro.sat.dpll import solve_dpll
from repro.sat.solver import CDCLSolver
from strategies import pigeonhole


def random_cnf(num_vars, num_clauses, seed):
    rng = random.Random(seed)
    cnf = CNF(num_vars)
    for _ in range(num_clauses):
        size = rng.randint(1, 3)
        variables = rng.sample(range(1, num_vars + 1), size)
        cnf.add_clause(tuple(v if rng.random() < 0.5 else -v for v in variables))
    return cnf


class TestIncrementalTorture:
    @pytest.mark.parametrize("seed", range(8))
    def test_interleaved_solves_and_additions(self, seed):
        """Clauses added between solves must behave as if present from the
        start — checked against a fresh DPLL solve each round."""
        rng = random.Random(seed)
        accumulated = CNF(8)
        solver = CDCLSolver(8)
        for round_no in range(12):
            size = rng.randint(1, 3)
            variables = rng.sample(range(1, 9), size)
            clause = tuple(v if rng.random() < 0.5 else -v for v in variables)
            accumulated.add_clause(clause)
            solver.add_clause(clause)
            expected = solve_dpll(accumulated) is not None
            got = solver.solve()
            assert bool(got) == expected, f"round {round_no}"
            if not expected:
                break

    @pytest.mark.parametrize("seed", range(5))
    def test_blocking_loop_terminates_with_exact_count(self, seed):
        """Blocking full models enumerates exactly the truth-table count."""
        cnf = random_cnf(5, 8, seed)
        import itertools

        expected = sum(
            1
            for bits in itertools.product((False, True), repeat=5)
            if cnf.evaluate({i + 1: bits[i] for i in range(5)})
        )
        solver = CDCLSolver()
        solver.add_cnf(cnf)
        count = 0
        while solver.solve():
            model = solver.model()
            count += 1
            assert cnf.evaluate(model)
            blocking = [(-v if model[v] else v) for v in range(1, 6)]
            if not solver.add_clause(blocking):
                break
            assert count <= 32
        assert count == expected

    def test_solve_after_unsat_stays_unsat(self):
        solver = CDCLSolver(1)
        solver.add_clause((1,))
        solver.add_clause((-1,))
        assert solver.solve() is False
        assert solver.solve() is False
        assert solver.add_clause((1,)) is False


class TestAssumptionPatterns:
    def test_many_assumption_rounds(self):
        """The decider pattern: one formula, many assumption sets."""
        cnf = random_cnf(10, 25, seed=3)
        solver = CDCLSolver()
        solver.add_cnf(cnf)
        rng = random.Random(0)
        for _ in range(20):
            assumptions = [
                (v if rng.random() < 0.5 else -v)
                for v in rng.sample(range(1, 11), 4)
            ]
            expected = solve_dpll(cnf, assumptions=assumptions) is not None
            assert bool(solver.solve(assumptions=assumptions)) == expected

    def test_assumptions_on_fresh_variables(self):
        solver = CDCLSolver()
        solver.add_clause((1, 2))
        # Assumption mentions a variable the solver has never seen.
        assert solver.solve(assumptions=[5]) is True
        assert solver.model()[5] is True


class TestTimeout:
    def test_timeout_returns_none_on_hard_instance(self):
        # A large pigeonhole instance cannot be solved in ~zero time.
        n = 9
        cnf = CNF(n * (n - 1))

        def var(i, h):
            return i * (n - 1) + h + 1

        for i in range(n):
            cnf.add_clause(tuple(var(i, h) for h in range(n - 1)))
        for h in range(n - 1):
            for i in range(n):
                for j in range(i + 1, n):
                    cnf.add_clause((-var(i, h), -var(j, h)))
        solver = CDCLSolver()
        solver.add_cnf(cnf)
        result = solver.solve(timeout_seconds=0.05)
        assert result is None
        # The solver remains usable afterwards.
        assert solver.solve(assumptions=[var(0, 0)], timeout_seconds=0.05) in (
            None,
            True,
            False,
        )

    def test_generous_timeout_still_answers(self):
        cnf = random_cnf(8, 20, seed=11)
        solver = CDCLSolver()
        solver.add_cnf(cnf)
        expected = solve_dpll(cnf) is not None
        assert bool(solver.solve(timeout_seconds=60)) == expected


class TestStatistics:
    def test_counters_move(self):
        cnf = random_cnf(12, 50, seed=2)
        solver = CDCLSolver()
        solver.add_cnf(cnf)
        solver.solve()
        stats = solver.stats.as_dict()
        assert stats["propagations"] > 0
        assert stats["decisions"] >= 0
        assert set(stats) == {
            "conflicts", "decisions", "propagations", "restarts", "learned", "removed",
        }

    def test_clause_db_reduction_triggers_on_long_runs(self):
        # Pigeonhole 8/7 learns past the 1,000 clauses at which the first
        # reduction runs.
        solver = CDCLSolver()
        solver.add_cnf(pigeonhole(8, 7))
        assert solver.solve() is False
        assert solver.stats.removed > 0
        assert len(solver._learned) < solver.stats.learned
        assert_watch_invariant(solver)


def assert_watch_invariant(solver):
    """The literal-indexed state agrees with the clauses, trail and heap.

    * Every clause of width >= 2 is watched exactly at ``literals[0:2]``,
      and no watch entry points at a dropped clause.
    * Every trail literal reads true and its negation false; every other
      variable reads unassigned in both signs.
    * Every unassigned variable has a heap entry keyed by minus its
      current activity, and ``_heap_key`` names that entry, so the next
      branch pick is the unassigned variable of highest activity.
    """
    variables = range(1, solver.num_vars + 1)
    literals = [lit for var in variables for lit in (var, -var)]
    live = {}
    for clause in solver._clauses + solver._learned:
        if len(clause.literals) >= 2:
            live[id(clause)] = sorted(clause.literals[:2])
    watched = {}
    for lit in literals:
        for clause in solver._watches[lit]:
            assert id(clause) in live, "stale watch entry for a dropped clause"
            watched.setdefault(id(clause), []).append(lit)
    for key, lits in live.items():
        assert sorted(watched.get(key, [])) == lits
    # Slots past the last variable (room for growth) watch nothing.
    assert sum(len(bucket) for bucket in solver._watches) == sum(
        len(solver._watches[lit]) for lit in literals
    )
    values = solver._values
    on_trail = set(solver._trail)
    assert len(on_trail) == len(solver._trail)
    for lit in solver._trail:
        assert values[lit] == 1 and values[-lit] == -1
    for var in variables:
        if var not in on_trail and -var not in on_trail:
            assert values[var] == 0 and values[-var] == 0
    entries = set(solver._heap)
    for var in variables:
        if values[var] == 0:
            key = -solver._activity[var]
            assert (key, var) in entries, f"unassigned variable {var} has no current heap entry"
            assert solver._heap_key[var] == key


class TestLiteralIndexedState:
    def test_values_are_indexed_by_signed_literal(self):
        solver = CDCLSolver(2)
        assert solver.add_clause((-2,))
        # Both signs of variable 2 are written; -2 reads from the end.
        assert solver._values[2] == -1 and solver._values[-2] == 1
        assert solver.value(2) is False and solver.value(1) is None
        assert solver.add_clause((1, 2))  # unit on 1 after 2 is false
        assert solver.value(1) is True
        # Growing past the capacity re-lays out both literal-indexed lists:
        # assignments and watches stay with their literals.
        assert solver.add_clause((3, 4, -5))
        capacity = solver._cap
        assert solver.add_clause((-3, 6, 4 + capacity))
        assert solver._cap >= 4 + capacity
        assert len(solver._values) == len(solver._watches) == 2 * solver._cap + 1
        assert solver._values[1] == 1 and solver._values[-1] == -1
        assert solver._values[2] == -1 and solver._values[-2] == 1
        assert [clause.literals for clause in solver._watches[4]] == [[3, 4, -5]]
        assert_watch_invariant(solver)
        assert solver.solve() is True
        assert_watch_invariant(solver)

    def test_heap_invariant_across_conflict_limited_slices(self):
        # Each slice ends with a backtrack to level 0 after bumping the
        # activities of the conflict's variables, so unassigned variables
        # carry fresh and stale heap entries alike.
        solver = CDCLSolver()
        solver.add_cnf(pigeonhole(5, 4))  # unsatisfiable, dozens of conflicts
        slices = 0
        while solver.solve(conflict_limit=3) is None:
            slices += 1
            assert_watch_invariant(solver)
        assert slices > 0
        assert_watch_invariant(solver)


class TestTypedArrays:
    """Watch, trail and heap invariants after solving, backtracking and blocking.

    The class is named for the typed arrays that held this state before the
    literal-indexed lists; the name is kept so that these cases keep their ids.
    """

    @pytest.mark.parametrize("seed", range(6))
    def test_watch_invariant_after_solve(self, seed):
        cnf = random_cnf(10, 32, seed)
        solver = CDCLSolver()
        solver.add_cnf(cnf)
        solver.solve()
        assert_watch_invariant(solver)

    @pytest.mark.parametrize("seed", range(4))
    def test_watch_invariant_after_assumption_backtracking(self, seed):
        cnf = random_cnf(9, 24, seed)
        solver = CDCLSolver()
        solver.add_cnf(cnf)
        rng = random.Random(seed)
        for _ in range(6):
            assumptions = [
                (v if rng.random() < 0.5 else -v)
                for v in rng.sample(range(1, 10), 3)
            ]
            solver.solve(assumptions=assumptions)
            assert_watch_invariant(solver)

    def test_watch_invariant_survives_blocking_enumeration(self):
        cnf = random_cnf(6, 12, seed=5)
        solver = CDCLSolver()
        solver.add_cnf(cnf)
        while solver.solve():
            model = solver.model()
            blocking = [(-v if model[v] else v) for v in range(1, 7)]
            assert_watch_invariant(solver)
            if not solver.add_clause(blocking):
                break
        assert_watch_invariant(solver)
