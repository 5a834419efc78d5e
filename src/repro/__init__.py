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
(:mod:`repro.core.minimal`), minimal-depth witness trees read off the
engine's ranks (:mod:`repro.provenance.extract`), the all-at-once
comparator of Figure 5 (:mod:`repro.baselines`), DOT rendering of
every proof object (:mod:`repro.provenance.render`), TSV fact I/O
(:mod:`repro.datalog.io`), seeded synthetic workload families at
arbitrary scale (:mod:`repro.scenarios.synthetic`) and the cross-stack
differential oracle behind ``python -m repro fuzz``
(:mod:`repro.testing.oracle`).
"""

from importlib import import_module

#: Where each public name lives. :func:`__getattr__` imports a name's
#: subpackage on first access (PEP 562), so ``import repro`` — and the
#: daemon, which never touches the baselines or semirings — loads none.
_EXPORTS = {
    ".baselines": ("all_at_once_why",),
    ".core": (
        "BatchResult",
        "FactResult",
        "FORewriting",
        "ParallelProvenanceExplainer",
        "ProvenanceSession",
        "SessionStats",
        "SessionUpdate",
        "WhyProvenanceEncoding",
        "WhyProvenanceEnumerator",
        "decide_membership",
        "decide_why",
        "decide_why_minimal_depth",
        "decide_why_nonrecursive",
        "decide_why_unambiguous",
        "decide_why_via_rewriting",
        "encode_why_provenance",
        "minimal_members",
        "rewrite",
        "smallest_member",
        "why_provenance_unambiguous",
    ),
    ".semiring": (
        "SEMIRINGS",
        "get_semiring",
        "provenance_circuit",
        "semiring_provenance",
    ),
    ".datalog": (
        "Atom",
        "Database",
        "DatalogQuery",
        "Delta",
        "Program",
        "Rule",
        "Variable",
        "answers",
        "evaluate",
        "parse_database",
        "parse_program",
        "parse_rule",
    ),
    ".provenance": (
        "CompressedDAG",
        "DownwardClosure",
        "ProofDAG",
        "ProofTree",
        "downward_closure",
        "enumerate_why",
        "enumerate_why_minimal_depth",
        "enumerate_why_nonrecursive",
        "enumerate_why_unambiguous",
    ),
    ".sat": ("CDCLSolver", "CNF", "solve_cnf"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "1.8.0"

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(module, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
