"""Materializing witness proof trees.

The decision problems only ask *whether* a subset is a member; users
debugging a query usually want to *see* a derivation. This module extracts
concrete proof trees from a database:

* :func:`extract_minimal_depth_tree` — the canonical "shallowest"
  derivation, built greedily along the rank stratification (Prop. 28);
* :func:`extract_tree_with_support` — a witness tree for a given member of
  the why-provenance (via the SAT pipeline for unambiguous trees);
* :func:`enumerate_witness_trees` — stream distinct unambiguous proof
  trees, one per member of ``whyUN``.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

from ..datalog.atoms import Atom
from ..datalog.database import Database
from ..datalog.engine import EvaluationResult, evaluate
from ..datalog.program import DatalogQuery, Program
from .grounding import DownwardClosure, FactNotDerivable, downward_closure
from .proof_dag import CompressedDAG
from .proof_tree import ProofTree, ProofTreeNode


def extract_minimal_depth_tree(
    program: Program,
    database: Database,
    fact: Atom,
    evaluation: Optional[EvaluationResult] = None,
) -> ProofTree:
    """A minimal-depth proof tree of *fact* (Definition 26).

    Built top-down: every node of rank ``r`` is expanded with a rule
    instance whose body facts all have rank below ``r`` (one exists by the
    definition of the immediate-consequence stage), so the tree depth is
    exactly ``rank(fact)`` — the minimum (Proposition 28). The result is
    also unambiguous: each fact is always expanded the same way.
    """
    if evaluation is None:
        evaluation = evaluate(program, database, record_instances=True)
    ranks = evaluation.ranks
    if fact not in ranks:
        raise FactNotDerivable(f"{fact} is not derivable from the database")
    closure = downward_closure(program, database, fact, evaluation=evaluation)
    chosen = {}

    def expand(node_fact: Atom) -> ProofTreeNode:
        if node_fact in database:
            return ProofTreeNode(node_fact)
        instance = chosen.get(node_fact)
        if instance is None:
            instance = min(
                (
                    inst
                    for inst in closure.instances_by_head.get(node_fact, ())
                    if all(ranks.get(b, 10 ** 9) < ranks[node_fact] for b in inst.body)
                ),
                key=lambda inst: (max((ranks[b] for b in inst.body), default=0), str(inst)),
            )
            chosen[node_fact] = instance
        children = [expand(body_fact) for body_fact in instance.body]
        return ProofTreeNode(node_fact, children)

    return ProofTree(expand(fact))


def extract_tree_with_support(
    query: DatalogQuery,
    database: Database,
    tup: Tuple,
    support,
    session=None,
) -> Optional[ProofTree]:
    """An unambiguous proof tree of ``R(t)`` with exactly *support*.

    Returns ``None`` when *support* is not a member of ``whyUN``. The tree
    is obtained by solving ``phi(t, D, Q)`` under exact-support
    assumptions and unravelling the model's compressed DAG. The formula
    comes from the *session*'s cache (a session is built for this call
    when none is given); each call solves on a fresh solver, so the tree
    depends only on the formula and *support*, not on earlier calls.
    """
    from ..core.session import ProvenanceSession
    from ..sat.solver import CDCLSolver

    if session is None:
        session = ProvenanceSession(query, database)
    encoding = session.encoding_or_none(tup)
    if encoding is None:
        return None
    assumptions = encoding.membership_assumptions(frozenset(support))
    if assumptions is None:
        return None
    solver = CDCLSolver()
    solver.add_cnf(encoding.cnf)
    if not solver.solve(assumptions=assumptions):
        return None
    dag = encoding.decode_compressed_dag(solver.model())
    return dag.unravel(query.program)


def enumerate_witness_trees(
    query: DatalogQuery,
    database: Database,
    tup: Tuple,
    limit: Optional[int] = None,
    timeout_seconds: Optional[float] = None,
) -> Iterator[ProofTree]:
    """Stream one unambiguous proof tree per member of ``whyUN(t, D, Q)``.

    The enumerator and every tree extraction share one session, so the
    database is evaluated and the formula built once for all trees.
    """
    from ..core.enumerator import WhyProvenanceEnumerator
    from ..core.session import ProvenanceSession

    session = ProvenanceSession(query, database)
    try:
        enumerator = WhyProvenanceEnumerator(query, database, tup, session=session)
    except FactNotDerivable:
        return
    for record in enumerator.enumerate(limit=limit, timeout_seconds=timeout_seconds):
        tree = extract_tree_with_support(
            query, database, tup, record.support, session=session
        )
        if tree is not None:
            yield tree
