"""SAT substrate: CNF, CDCL and DPLL solvers, enumeration, acyclicity."""

from .acyclicity import (
    AcyclicityStats,
    arcs_are_acyclic,
    encode_transitive_closure,
    encode_vertex_elimination,
    min_degree_order,
    selected_arcs,
)
from .cardinality import Totalizer, add_at_least_k, add_at_most_k, add_exactly_k
from .cnf import CNF
from .dpll import DPLLBudgetExceeded, enumerate_models_dpll, solve_dpll
from .enumeration import EnumerationRecord, all_models, count_models, enumerate_models
from .solver import CDCLSolver, SolverStatistics, solve_cnf

__all__ = [
    "AcyclicityStats",
    "CDCLSolver",
    "CNF",
    "DPLLBudgetExceeded",
    "EnumerationRecord",
    "SolverStatistics",
    "Totalizer",
    "add_at_least_k",
    "add_at_most_k",
    "add_exactly_k",
    "all_models",
    "arcs_are_acyclic",
    "count_models",
    "encode_transitive_closure",
    "encode_vertex_elimination",
    "enumerate_models",
    "enumerate_models_dpll",
    "min_degree_order",
    "selected_arcs",
    "solve_cnf",
    "solve_dpll",
]
