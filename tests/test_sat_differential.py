"""Solver differential-test battery.

Every way the pipeline reaches a SAT verdict must agree with the DPLL
reference on SAT/UNSAT for every formula, and every SAT answer must come
with a genuine model: one uninterrupted CDCL solve, and the same solver
resumed after a one-conflict budget runs out, again and again, until it
answers. The inputs are the classic hard families: uniform random 3-SAT
near the phase transition, pigeonhole, and random-graph coloring
(generators in ``tests/strategies.py``), exercised both on fixed seed
grids (failures reproducible from the test id) and through Hypothesis.
"""

import pytest
from hypothesis import given, settings

from repro.sat.cnf import CNF
from repro.sat.dpll import solve_dpll
from repro.sat.solver import CDCLSolver

from strategies import (
    cnf_formulas,
    graph_coloring,
    pigeonhole,
    random_3sat,
)

#: How the CDCL reaches its verdict: ``pure`` is one uninterrupted
#: ``solve``; ``sliced`` calls ``solve(conflict_limit=1)`` until it
#: answers, the resume path a conflict or wall-clock budget cuts into.
SOLVE_MODES = ["pure", "sliced"]

#: Fixed 3-SAT grid: seeds near the phase transition (ratio ~4.26).
PHASE_SEEDS = list(range(20))

#: Pigeonhole shapes: (pigeons, holes) — UNSAT iff pigeons > holes.
PHP_SHAPES = [
    (2, 1), (2, 2), (3, 2), (3, 3), (4, 3),
    (4, 4), (5, 4), (1, 1), (1, 2), (5, 5),
]

#: Coloring shapes: (nodes, edge_prob, colors, seed).
COLORING_SHAPES = [
    (4, 0.5, 2, 0), (5, 0.4, 2, 1), (5, 0.8, 2, 2), (6, 0.5, 3, 3),
    (6, 0.9, 2, 4), (7, 0.3, 3, 5), (7, 0.7, 2, 6), (4, 1.0, 3, 7),
    (5, 1.0, 2, 8), (6, 0.6, 3, 9),
]


def dpll_verdict(cnf: CNF) -> bool:
    """The DPLL reference verdict (no budget; battery formulas are small)."""
    return solve_dpll(cnf) is not None


def assert_valid_model(cnf: CNF, model) -> None:
    """A SAT claim must be backed by a total satisfying assignment."""
    full = {var: bool(model.get(var, False)) for var in range(1, cnf.num_vars + 1)}
    assert cnf.evaluate(full), "claimed model does not satisfy the formula"


def solve(solver: CDCLSolver, mode: str, assumptions=()) -> bool:
    """The verdict of *solver*, reached the way *mode* names."""
    if mode == "pure":
        return solver.solve(assumptions=assumptions)
    while True:
        verdict = solver.solve(assumptions=assumptions, conflict_limit=1)
        if verdict is not None:
            return verdict


def check_agreement(cnf: CNF, mode: str):
    """CDCL under *mode* agrees with DPLL on *cnf*; returns its model or None."""
    solver = CDCLSolver()
    solver.add_cnf(cnf)
    verdict = solve(solver, mode)
    assert verdict is dpll_verdict(cnf), f"{mode} CDCL disagrees with DPLL"
    if not verdict:
        return None
    model = solver.model()
    assert_valid_model(cnf, model)
    return model


class TestRandom3SATGrid:
    """20 phase-transition seeds x every solve mode."""

    @pytest.mark.parametrize("seed", PHASE_SEEDS)
    @pytest.mark.parametrize("mode", SOLVE_MODES)
    def test_verdicts_agree(self, seed, mode):
        check_agreement(random_3sat(num_vars=8, num_clauses=34, seed=seed), mode)


class TestPigeonhole:
    @pytest.mark.parametrize("mode", SOLVE_MODES)
    @pytest.mark.parametrize("pigeons,holes", PHP_SHAPES)
    def test_verdict_matches_principle(self, pigeons, holes, mode):
        model = check_agreement(pigeonhole(pigeons, holes), mode)
        assert (model is not None) is (pigeons <= holes)


class TestGraphColoring:
    @pytest.mark.parametrize("mode", SOLVE_MODES)
    @pytest.mark.parametrize("shape", COLORING_SHAPES, ids=str)
    def test_verdicts_agree_and_decode(self, shape, mode):
        nodes, prob, colors, seed = shape
        cnf, edges = graph_coloring(nodes, prob, colors, seed)
        model = check_agreement(cnf, mode)
        if model is not None:
            coloring = {
                n: next(
                    c for c in range(1, colors + 1)
                    if model.get((n - 1) * colors + c, False)
                )
                for n in range(1, nodes + 1)
            }
            for u, v in edges:
                assert coloring[u] != coloring[v]


class TestAssumptionDifferential:
    """Solve-under-assumptions == solving the strengthened formula."""

    ASSUMPTION_CASES = [
        (0, (1,)), (1, (-1,)), (2, (1, 2)), (3, (-2, 3)),
        (4, (1, -3)), (5, (2,)), (6, (-1, -2)), (7, (3, -4)),
    ]

    @pytest.mark.parametrize("seed,assumptions", ASSUMPTION_CASES)
    def test_assumptions_equal_units(self, seed, assumptions):
        cnf = random_3sat(num_vars=7, num_clauses=29, seed=seed)
        strengthened = cnf.copy()
        for lit in assumptions:
            strengthened.add_clause([lit])
        expected = dpll_verdict(strengthened)
        for mode in SOLVE_MODES:
            solver = CDCLSolver()
            solver.add_cnf(cnf)
            assert solve(solver, mode, list(assumptions)) is expected
            # The solver must be reusable after an assumption solve:
            # the unconstrained question is unchanged.
            assert solve(solver, mode) is dpll_verdict(cnf)


class TestIncrementalInterleaving:
    """One solver, interrupted by its conflict budget and resumed."""

    def test_conflict_limited_pool_solver_resumes(self):
        # A capped solve may return None, but the question's answer
        # must survive the interruption.
        solver = CDCLSolver()
        php = pigeonhole(5, 4)
        solver.add_cnf(php)
        capped = solver.solve(conflict_limit=1)
        assert capped in (None, False)
        assert solver.solve() is False


class TestExhaustiveSmall:
    """Brute-force cross-check on every formula over <= 4 variables."""

    @pytest.mark.parametrize("seed", range(5))
    def test_truth_table_agreement(self, seed):
        cnf = random_3sat(num_vars=4, num_clauses=17, seed=seed)
        brute = any(
            cnf.evaluate(
                {
                    var: bool(mask >> (var - 1) & 1)
                    for var in range(1, cnf.num_vars + 1)
                }
            )
            for mask in range(1 << cnf.num_vars)
        )
        for mode in SOLVE_MODES:
            assert (check_agreement(cnf, mode) is not None) is brute


class TestHypothesisProperties:
    """Randomized closure over all three families."""

    @given(cnf=cnf_formulas)
    @settings(max_examples=40, deadline=None)
    def test_cdcl_matches_dpll(self, cnf):
        solver = CDCLSolver()
        solver.add_cnf(cnf)
        verdict = solver.solve()
        assert verdict is dpll_verdict(cnf)
        if verdict:
            assert_valid_model(cnf, solver.model())
