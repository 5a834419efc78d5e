"""Membership deciders for the problems ``Why-Provenance^X[Q]``.

Given ``Q = (Sigma, R)``, a database ``D`` over ``edb(Sigma)``, a tuple
``t``, and ``D' subseteq D``, decide whether ``D'`` belongs to the
why-provenance of ``t`` — for each of the paper's four proof-tree classes:

* ``unambiguous``  (Section 5, Theorem 14)  — SAT: assume the exact leaf
  set in ``phi_(t, D, Q)`` and ask for satisfiability;
* ``arbitrary``    (Section 4, Theorem 3)   — the bounded-copies SAT
  procedure of Proposition 5 (sound for every bound, complete for the
  polynomial bound of Lemma 8) with the exact fixpoint oracle as the
  default complete fallback;
* ``nonrecursive`` (Appendix B, Theorem 19) — for linear programs
  non-recursive and unambiguous proof trees coincide (Appendix D.1), so the
  SAT decider applies; otherwise the exact path-aware oracle decides;
* ``minimal-depth`` (Appendix C, Theorem 27) — depth-bounded search with
  the budget ``rank(R(t), D)`` computed by the engine (Proposition 28).

A useful observation shared by all deciders: a proof tree w.r.t. ``D``
whose support is exactly ``D'`` is a proof tree w.r.t. ``D'`` (its leaves
all lie in ``D'``), so the search can run over the subset database —
except for the minimal-depth budget, which by Definition 26 refers to the
*full* database ``D``.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Optional, Tuple

from ..datalog.atoms import Atom
from ..datalog.database import Database, check_over_schema
from ..datalog.engine import evaluate
from ..datalog.program import DatalogQuery
from ..provenance.enumerate import (
    _SupportSearch,
    enumerate_why,
    enumerate_why_minimal_depth,
    enumerate_why_nonrecursive,
)
from ..provenance.grounding import FactNotDerivable, downward_closure
from ..sat.solver import CDCLSolver
from .encoder import encode_why_provenance

TREE_CLASSES = ("arbitrary", "unambiguous", "nonrecursive", "minimal-depth")


def decide_membership(
    query: DatalogQuery,
    database: Database,
    tup: Tuple,
    subset: Iterable[Atom],
    tree_class: str = "arbitrary",
    session=None,
) -> bool:
    """Uniform front end dispatching on *tree_class*.

    An optional :class:`~repro.core.session.ProvenanceSession` lets all
    deciders share one evaluation, GRI, closure and warm solver per tuple
    instead of recomputing them per call.
    """
    if tree_class == "arbitrary":
        return decide_why(query, database, tup, subset, session=session)
    if tree_class == "unambiguous":
        return decide_why_unambiguous(query, database, tup, subset, session=session)
    if tree_class == "nonrecursive":
        return decide_why_nonrecursive(query, database, tup, subset, session=session)
    if tree_class == "minimal-depth":
        return decide_why_minimal_depth(query, database, tup, subset, session=session)
    raise ValueError(f"unknown tree class {tree_class!r}; expected one of {TREE_CLASSES}")


def _validated_subset(database: Database, subset: Iterable[Atom]) -> FrozenSet[Atom]:
    facts = frozenset(subset)
    for fact in facts:
        if fact not in database:
            raise ValueError(f"{fact} is not a fact of the input database")
    return facts


def decide_why_unambiguous(
    query: DatalogQuery,
    database: Database,
    tup: Tuple,
    subset: Iterable[Atom],
    acyclicity: Optional[str] = None,
    session=None,
) -> bool:
    """``D' in whyUN(t, D, Q)?`` via one SAT call on ``phi_(t, D, Q)``.

    The assumptions pin the ``x`` variable of every database fact of the
    downward closure: true inside ``D'``, false outside. The formula is
    then satisfiable iff a compressed DAG with support exactly ``D'``
    exists (Lemma 44), iff ``D'`` is a member (Proposition 41).

    With a *session*, the encoding comes from the session cache and the
    query runs on the session's warm assumption-only solver, so N
    membership checks for one tuple pay for one encoding and share
    learned clauses.
    """
    check_over_schema(database, query.program.edb)
    facts = _validated_subset(database, subset)
    if acyclicity is None:
        # Follow the session's configured encoding so one session never
        # mixes acyclicity regimes across its own methods.
        acyclicity = session.acyclicity if session is not None else "vertex-elimination"
    if session is not None:
        encoding = session.encoding_or_none(tup, acyclicity=acyclicity)
        if encoding is None:
            return False
        assumptions = encoding.membership_assumptions(facts)
        if assumptions is None:
            return False
        solver = session.decision_solver(tup, acyclicity=acyclicity)
        return bool(solver.solve(assumptions=assumptions))
    try:
        encoding = encode_why_provenance(query, database, tup, acyclicity=acyclicity)
    except FactNotDerivable:
        return False
    assumptions = encoding.membership_assumptions(facts)
    if assumptions is None:
        return False
    solver = CDCLSolver()
    solver.add_cnf(encoding.cnf)
    return bool(solver.solve(assumptions=assumptions))


def decide_why(
    query: DatalogQuery,
    database: Database,
    tup: Tuple,
    subset: Iterable[Atom],
    max_copies: int = 3,
    use_oracle_fallback: bool = True,
    session=None,
) -> bool:
    """``D' in why(t, D, Q)?`` (arbitrary proof trees, Definition 2).

    Strategy:

    1. Restrict to the subset database (leaves of a witnessing tree are
       exactly ``D'``). If ``R(t)`` is not derivable from ``D'`` alone,
       membership fails immediately.
    2. Try the bounded-copies SAT encoding for ``k = 1 .. max_copies``
       (``k = 1`` is the unambiguous case, a frequent early accept). Any
       SAT answer proves membership (models unravel to proof trees).
    3. If still undecided and *use_oracle_fallback*, run the exact
       fixpoint oracle on the subset database — complete, exponential in
       the worst case (the problem is NP-hard, Theorem 3).

    With ``use_oracle_fallback=False`` the procedure is sound but may
    return ``False`` for exotic members that need more than *max_copies*
    nodes per fact in every witnessing compact proof DAG.
    """
    check_over_schema(database, query.program.edb)
    facts = _validated_subset(database, subset)
    if session is not None:
        # Fast rejects from the session caches: the tuple must be an
        # answer, and every fact of D' must lie in the closure over the
        # *full* database (leaves of any witnessing tree are closure
        # nodes). The per-subset work below is inherently subset-local.
        full_closure = session.closure_or_none(query.answer_atom(tup))
        if full_closure is None or not facts <= full_closure.nodes:
            return False
    sub_db = Database(facts)
    fact = query.answer_atom(tup)
    try:
        closure = downward_closure(query.program, sub_db, fact)
    except FactNotDerivable:
        return False
    # Every fact of D' must at least appear in the closure to be a leaf.
    if not facts <= closure.nodes:
        return False
    for copies in range(1, max_copies + 1):
        encoding = encode_why_provenance(
            query, sub_db, tup, closure=closure, copies=copies
        )
        assumptions = encoding.membership_assumptions(facts)
        if assumptions is None:
            return False
        solver = CDCLSolver()
        solver.add_cnf(encoding.cnf)
        if solver.solve(assumptions=assumptions):
            return True
    if not use_oracle_fallback:
        return False
    family = enumerate_why(query, sub_db, tup)
    return facts in family


def decide_why_nonrecursive(
    query: DatalogQuery,
    database: Database,
    tup: Tuple,
    subset: Iterable[Atom],
    session=None,
) -> bool:
    """``D' in whyNR(t, D, Q)?`` (non-recursive proof trees, Def. 18).

    For linear programs, whyNR and whyUN coincide (Appendix D.1): a
    non-recursive linear proof tree repeats no intensional fact at all, so
    it is trivially unambiguous — and unambiguous trees are always
    non-recursive. The SAT decider therefore answers directly. For
    non-linear programs the exact path-aware oracle is used.
    """
    check_over_schema(database, query.program.edb)
    facts = _validated_subset(database, subset)
    if query.is_linear():
        return decide_why_unambiguous(query, database, tup, facts, session=session)
    sub_db = Database(facts)
    family = enumerate_why_nonrecursive(query, sub_db, tup)
    return facts in family


def decide_why_minimal_depth(
    query: DatalogQuery,
    database: Database,
    tup: Tuple,
    subset: Iterable[Atom],
    session=None,
) -> bool:
    """``D' in whyMD(t, D, Q)?`` (minimal-depth proof trees, Def. 26).

    The depth budget is ``rank(R(t))`` over the *full* database ``D``
    (minimality quantifies over all proof trees w.r.t. ``D``; Prop. 28
    computes the minimum in polynomial time). The witnessing tree itself
    lives over ``D'``; if even the best tree over ``D'`` is deeper than
    the global minimum, membership fails. With a *session*, the budget
    comes from the session's cached ranks — the full-database evaluation
    is not repeated per query.
    """
    check_over_schema(database, query.program.edb)
    facts = _validated_subset(database, subset)
    fact = query.answer_atom(tup)
    evaluation = session.evaluation if session is not None else evaluate(query.program, database)
    if fact not in evaluation.ranks:
        return False
    budget = evaluation.ranks[fact]
    sub_db = Database(facts)
    sub_eval = evaluate(query.program, sub_db)
    if fact not in sub_eval.ranks or sub_eval.ranks[fact] > budget:
        return False
    family = _bounded_depth_supports(query, sub_db, tup, budget)
    return facts in family


def _bounded_depth_supports(
    query: DatalogQuery,
    database: Database,
    tup: Tuple,
    budget: int,
) -> FrozenSet[FrozenSet[Atom]]:
    """Supports of proof trees with depth <= budget over *database*.

    Depth ``budget`` equals the global minimum here, so "depth <= budget"
    coincides with "minimal depth" for the root fact (every tree is at
    least rank-deep, Prop. 28) — but only when ``rank`` w.r.t. this
    database equals the budget, which the caller has checked.
    """
    fact = query.answer_atom(tup)
    try:
        closure = downward_closure(query.program, database, fact)
    except FactNotDerivable:
        return frozenset()
    return _SupportSearch(database, closure.instances_by_head).within_depth(fact, budget)
