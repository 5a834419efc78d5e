"""repro — why-provenance for Datalog queries via SAT solvers.

A full reproduction of "The Complexity of Why-Provenance for Datalog
Queries" (Calautti, Livshits, Pieris, Schneider; arXiv:2303.12773),
including every substrate the paper relies on: a Datalog engine, proof
trees/DAGs, the downward-closure grounding, a CDCL SAT solver with
Glucose-style LBD heuristics, propositional acyclicity encodings, the
hardness reductions, the FO rewriting for non-recursive queries, the
experimental scenarios of Table 1 and the harness that regenerates every
table and figure of the evaluation.

Beyond the paper, the library ships the surrounding ecosystem a user
would expect: the full semiring-provenance framework
(:mod:`repro.semiring` — the why semiring reproduces ``why(t, D, Q)``
exactly), minimal-explanation extraction via cardinality constraints
(:mod:`repro.core.minimal`), Souffle-style single-witness provenance and
tabled top-down evaluation (:mod:`repro.baselines`), DOT rendering of
every proof object (:mod:`repro.provenance.render`), TSV fact I/O
(:mod:`repro.datalog.io`), seeded synthetic workload families at
arbitrary scale (:mod:`repro.scenarios.synthetic`) and the cross-stack
differential oracle behind ``python -m repro fuzz``
(:mod:`repro.testing.oracle`).
"""

from .baselines import (
    all_at_once_why,
    answers_top_down,
    explain_answer,
    single_witness_why,
)
from .core import (
    BatchResult,
    FactResult,
    FORewriting,
    ParallelProvenanceExplainer,
    ProvenanceSession,
    SessionStats,
    SessionUpdate,
    WhyProvenanceEncoding,
    WhyProvenanceEnumerator,
    decide_membership,
    decide_why,
    decide_why_minimal_depth,
    decide_why_nonrecursive,
    decide_why_unambiguous,
    decide_why_via_rewriting,
    encode_why_provenance,
    minimal_members,
    rewrite,
    smallest_member,
    why_provenance_unambiguous,
)
from .semiring import (
    SEMIRINGS,
    get_semiring,
    provenance_circuit,
    semiring_provenance,
)
from .datalog import (
    Atom,
    Database,
    DatalogQuery,
    Delta,
    Program,
    Rule,
    Variable,
    answers,
    evaluate,
    parse_database,
    parse_program,
    parse_rule,
)
from .provenance import (
    CompressedDAG,
    DownwardClosure,
    ProofDAG,
    ProofTree,
    downward_closure,
    enumerate_why,
    enumerate_why_minimal_depth,
    enumerate_why_nonrecursive,
    enumerate_why_unambiguous,
)
from .sat import CDCLSolver, CNF, solve_cnf

__version__ = "1.8.0"

__all__ = [
    "Atom",
    "BatchResult",
    "CDCLSolver",
    "FactResult",
    "ParallelProvenanceExplainer",
    "CNF",
    "CompressedDAG",
    "Database",
    "DatalogQuery",
    "Delta",
    "DownwardClosure",
    "FORewriting",
    "ProofDAG",
    "ProofTree",
    "Program",
    "ProvenanceSession",
    "SessionStats",
    "SessionUpdate",
    "Rule",
    "Variable",
    "WhyProvenanceEncoding",
    "WhyProvenanceEnumerator",
    "SEMIRINGS",
    "all_at_once_why",
    "answers",
    "answers_top_down",
    "decide_membership",
    "decide_why",
    "decide_why_minimal_depth",
    "decide_why_nonrecursive",
    "decide_why_unambiguous",
    "decide_why_via_rewriting",
    "downward_closure",
    "encode_why_provenance",
    "enumerate_why",
    "enumerate_why_minimal_depth",
    "enumerate_why_nonrecursive",
    "enumerate_why_unambiguous",
    "evaluate",
    "explain_answer",
    "get_semiring",
    "minimal_members",
    "parse_database",
    "parse_program",
    "parse_rule",
    "provenance_circuit",
    "rewrite",
    "semiring_provenance",
    "single_witness_why",
    "smallest_member",
    "solve_cnf",
    "why_provenance_unambiguous",
    "__version__",
]
