"""Deeper tests of CDCL solver internals and robustness.

These complement test_sat_solvers.py with adversarial incremental usage
patterns (the exact patterns the enumerator and deciders produce) and
statistics bookkeeping.
"""

import random

import pytest

from repro.sat.cnf import CNF
from repro.sat.dpll import enumerate_models_dpll, solve_dpll
from repro.sat.solver import CDCLSolver
from strategies import pigeonhole, random_3sat


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



def load_state(solver):
    """What loading clauses leaves in a solver, comparable across solvers."""
    position = {id(clause): i for i, clause in enumerate(solver._clauses)}
    literals = [lit for var in range(1, solver.num_vars + 1) for lit in (var, -var)]
    return {
        "clauses": [list(clause.literals) for clause in solver._clauses],
        "watches": {lit: [position[id(c)] for c in solver._watches[lit]] for lit in literals},
        "trail": list(solver._trail),
        "trail_lim": list(solver._trail_lim),
        "values": list(solver._values),
        "unsat": solver._unsat,
        "resume": solver._resume,
        "propagations": solver.stats.propagations,
        "num_vars": solver.num_vars,
        "heap": list(solver._heap),
    }


def messy_cnf(seed, num_vars=20, num_clauses=40):
    """Random clauses, appended without ``CNF.add_clause``'s checks.

    Units propagate mid-load, literals repeat, some clauses are
    tautologies, and some seeds add the empty clause, a ``0`` or a
    literal beyond ``num_vars``.
    """
    rng = random.Random(seed)
    cnf = CNF(num_vars)
    for _ in range(num_clauses):
        size = rng.choice((1, 2, 2, 2, 3, 3, 3, 4))
        clause = [rng.choice((1, -1)) * rng.randint(1, num_vars) for _ in range(size)]
        roll = rng.random()
        if roll < 0.1:
            clause.append(clause[0])  # duplicate
        elif roll < 0.2:
            clause.insert(rng.randrange(len(clause) + 1), -clause[0])  # tautology
        elif roll < 0.21:
            clause.insert(rng.randrange(len(clause) + 1), 0)
        elif roll < 0.25:
            beyond = num_vars + rng.randint(1, 40)
            clause.insert(rng.randrange(len(clause) + 1), rng.choice((1, -1)) * beyond)
        elif roll < 0.255:
            clause = []
        cnf.clauses.append(tuple(clause))
    return cnf


def load(cnf, bulk, preload=()):
    """Load *cnf* one way; returns the error raised (if any) and the state."""
    solver = CDCLSolver()
    for clause in preload:
        solver.add_clause(clause)
    if preload:
        solver.solve()  # leaves a model's trail above level 0
    error = None
    try:
        if bulk:
            solver.add_cnf(cnf)
        else:
            solver.ensure_vars(cnf.num_vars)
            for clause in cnf.clauses:
                solver.add_clause(clause)
    except ValueError as exc:
        error = str(exc)
    return error, load_state(solver)


class TestAddCnf:
    """``add_cnf`` leaves exactly what a loop of ``add_clause`` leaves."""

    SEEDS = range(60)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_a_loop_of_add_clause(self, seed):
        cnf = messy_cnf(seed)
        assert load(cnf, bulk=True) == load(cnf, bulk=False)

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_on_a_solver_that_already_solved(self, seed):
        preload = [clause for clause in random_cnf(12, 10, seed).clauses]
        cnf = messy_cnf(seed + 1000, num_clauses=12)
        assert load(cnf, True, preload) == load(cnf, False, preload)
        # An empty CNF leaves the model's trail where it is.
        empty = CNF(14)
        assert load(empty, True, preload) == load(empty, False, preload)

    def test_the_seeds_cover_every_case(self):
        outcomes = set()
        for seed in self.SEEDS:
            cnf = messy_cnf(seed)
            error, state = load(cnf, bulk=True)
            if error is not None:
                outcomes.add("raises on 0")
            elif state["unsat"]:
                outcomes.add("unsat")
            else:
                outcomes.add("loaded")
            if state["num_vars"] > cnf.num_vars:
                outcomes.add("grew")
            if state["propagations"] > len([c for c in cnf.clauses if len(c) == 1]):
                outcomes.add("propagated past the units")
        assert outcomes == {
            "raises on 0", "unsat", "loaded", "grew", "propagated past the units"
        }


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


def projected_models_dpll(cnf, projection):
    return {
        tuple(model[var] for var in projection)
        for model in enumerate_models_dpll(cnf, variables=projection)
    }


def decided_solver(num_vars, clauses=()):
    """A solver whose first ``solve`` decides variables 1, 2, ... true.

    With no conflict every activity stays 0, so branching takes the
    lowest unassigned variable, in the phase set here.
    """
    solver = CDCLSolver(num_vars)
    for clause in clauses:
        assert solver.add_clause(clause)
    solver.set_phases({var: True for var in range(1, num_vars + 1)})
    assert solver.solve() is True
    assert solver.stats.conflicts == 0
    return solver


class TestBlockModel:
    """``block_model`` backjumps to where the blocking clause asserts."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("width", [None, 4])
    def test_watch_invariant_after_every_block_and_solve(self, seed, width):
        cnf = random_cnf(8, 14, seed)
        projection = list(range(1, 9))[:width]
        expected = projected_models_dpll(cnf, projection)
        solver = CDCLSolver()
        solver.add_cnf(cnf)
        found = []
        # At most one model past DPLL's count: a repeat stops the loop.
        while len(found) <= len(expected) and solver.solve():
            assert_watch_invariant(solver)
            model = solver.model()
            assert cnf.evaluate(model)
            found.append(tuple(model[var] for var in projection))
            if not solver.block_model([-v if model[v] else v for v in projection]):
                break
            assert_watch_invariant(solver)
        assert_watch_invariant(solver)
        assert len(found) == len(set(found))
        assert set(found) == expected

    @pytest.mark.parametrize("seed", range(4))
    def test_watch_invariant_after_a_sliced_solve_between_blocks(self, seed):
        # A one-conflict slice that runs out in the middle of an
        # enumeration backtracks to level 0; the next solve starts there
        # and the enumeration stays complete.
        cnf = random_3sat(14, 50, seed)
        projection = list(range(1, 8))
        expected = projected_models_dpll(cnf, projection)
        solver = CDCLSolver()
        solver.add_cnf(cnf)
        found, slices = [], 0
        while len(found) <= len(expected):
            result = solver.solve(conflict_limit=1)
            while result is None:
                slices += 1
                assert solver._trail_lim == []
                assert_watch_invariant(solver)
                result = solver.solve(conflict_limit=1)
            if not result:
                break
            model = solver.model()
            found.append(tuple(model[var] for var in projection))
            if not solver.block_model([-v if model[v] else v for v in projection]):
                break
        assert slices > 0
        assert_watch_invariant(solver)
        assert len(found) == len(set(found))
        assert set(found) == expected

    def test_backjumps_to_the_second_highest_level_instead_of_restarting(self):
        solver = decided_solver(4)
        assert solver._trail == [1, 2, 3, 4] and len(solver._trail_lim) == 4
        # Literals at levels 2 and 4: the clause asserts -4 at level 2.
        assert solver.block_model([-2, -4]) is True
        assert len(solver._trail_lim) == 2
        assert solver._trail == [1, 2, -4]
        clause = solver._clauses[-1]
        assert clause.literals == [-4, -2]
        assert solver._reason[4] is clause
        assert_watch_invariant(solver)
        assert solver.solve() is True
        # The resumed solve only decided variable 3.
        assert solver.stats.decisions == 5
        assert solver.model() == {1: True, 2: True, 3: True, 4: False}

    def test_single_literal_goes_back_to_level_zero_as_a_unit(self):
        # Variable 1 is true at the root; its literal is dropped, and the
        # one literal left becomes a unit at level 0.
        solver = decided_solver(3, clauses=[(1,)])
        assert solver.block_model([-1, -3]) is True
        assert solver._trail_lim == [] and solver._trail == [1, -3]
        assert solver._clauses == []
        assert solver.solve() is True
        assert solver.model() == {1: True, 2: True, 3: False}

    def test_tie_at_the_top_level_watches_both_and_asserts_nothing(self):
        # Deciding 2 at level 2 propagates 3 at level 2 as well.
        for literals, watched in (([-2, -3, -1], [-2, -3]), ([-1, -3, -2], [-3, -2])):
            solver = decided_solver(4, clauses=[(-2, 3)])
            assert solver._trail == [1, 2, 3, 4] and solver._level[3] == 2
            assert solver.block_model(literals) is True
            # One level below the tie, where both watches are unassigned.
            assert len(solver._trail_lim) == 1 and solver._trail == [1]
            clause = solver._clauses[-1]
            assert clause.literals[:2] == watched
            assert solver.value(2) is None and solver.value(3) is None
            assert_watch_invariant(solver)
            assert solver.solve() is True
            model = solver.model()
            assert (model[1], model[2], model[3]) != (True, True, True)

    def test_every_literal_false_at_the_root_means_no_further_model(self):
        solver = decided_solver(3, clauses=[(1,), (-2,)])
        assert solver.block_model([-1, 2]) is False
        assert solver.solve() is False

    @pytest.mark.parametrize("literal", [4, 9, 0])
    def test_a_literal_that_is_not_false_is_refused(self, literal):
        # 4 is true, 9 names no variable, 0 is no literal.
        solver = decided_solver(4)
        trail = list(solver._trail)
        with pytest.raises(ValueError):
            solver.block_model([-1, literal])
        assert solver._trail == trail and solver._clauses == []

    def test_searches_after_other_entries_start_at_level_zero(self):
        # Resuming from the trail [1, 2, -4] under the assumption -1 would
        # answer False; a solve under assumptions starts at level 0.
        solver = decided_solver(4)
        assert solver.block_model([-2, -4])
        assert solver.solve(assumptions=[-1]) is True
        assert solver.value(1) is False
        # add_clause backtracks to level 0, and the next solve starts there.
        solver = decided_solver(4)
        assert solver.block_model([-2, -4])
        assert solver.add_clause([1, 2, 3])
        assert solver._trail_lim == [] and not solver._resume
