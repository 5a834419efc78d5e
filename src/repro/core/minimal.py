"""Minimal explanations: the smallest members of the why-provenance.

The paper enumerates the why-provenance in an arbitrary order; in an
explanation setting users usually want the most parsimonious witnesses
first.  This module extracts them directly from the SAT encoding:

* :func:`smallest_member` — a cardinality-minimum member of
  ``whyUN(t, D, Q)``, found by repeatedly tightening a totalizer bound
  over the database-fact variables (the set ``S`` of Section 5.2);
* :func:`minimal_members` — all subset-minimal members, by the classic
  shrink-and-block loop (find a model, shrink its support to a local
  minimum under assumptions, then block every superset).

A useful fact makes these more than a convenience for unambiguous trees:
the subset-minimal members of ``why`` and of ``whyUN`` *coincide* (every
member of ``why`` contains a member of ``whyUN``: restrict the downward
closure to the member's facts and pick any compressed DAG inside it).
So the functions below also answer "what are the minimal explanations"
for arbitrary proof trees — a property the test suite checks against the
brute-force oracles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional, Tuple

from ..datalog.database import Database
from ..datalog.program import DatalogQuery
from ..sat.cardinality import Totalizer
from ..sat.solver import CDCLSolver
from .encoder import WhyProvenanceEncoding, encode_why_provenance
from .session import ProvenanceSession


@dataclass
class MinimalityReport:
    """Diagnostics for a minimal-explanation computation."""

    solve_calls: int = 0
    shrink_steps: int = 0
    members: List[FrozenSet] = field(default_factory=list)


def smallest_member(
    query: DatalogQuery,
    database: Database,
    tup: Tuple,
    report: Optional[MinimalityReport] = None,
    session=None,
) -> Optional[FrozenSet]:
    """A cardinality-minimum member of ``whyUN(t, D, Q)`` (ties arbitrary).

    Returns ``None`` when the tuple is not an answer.  The search is a
    descending linear scan: each round adds one totalizer unit clause
    capping the support size below the incumbent, so the incumbent size
    strictly decreases and the loop runs at most ``|S|`` rounds.
    """
    encoding = _encode_or_none(query, database, tup, session)
    if encoding is None:
        return None
    projection = encoding.projection_variables()
    totalizer = Totalizer(encoding.cnf, projection)
    solver = CDCLSolver()
    solver.add_cnf(encoding.cnf)
    if report is None:
        report = MinimalityReport()
    report.solve_calls += 1
    if solver.solve() is not True:
        return None
    best = encoding.decode_support(solver.model())
    while best:
        # Cap the count strictly below the incumbent and try again.
        solver.add_clause([-totalizer.outputs()[len(best) - 1]])
        report.solve_calls += 1
        if solver.solve() is not True:
            break
        best = encoding.decode_support(solver.model())
    report.members = [best]
    return best


def minimal_members(
    query: DatalogQuery,
    database: Database,
    tup: Tuple,
    limit: Optional[int] = None,
    report: Optional[MinimalityReport] = None,
    session=None,
) -> List[FrozenSet]:
    """All subset-minimal members of ``whyUN(t, D, Q)`` (== those of ``why``).

    Implements the shrink-and-block loop: take any model, shrink its
    support to a subset-minimal member (each shrink step asks, under
    assumptions, for a member strictly inside the current one), report
    it, and add the blocking clause that eliminates every superset.  Each
    round therefore yields a *new* minimal member, and the loop ends when
    the formula becomes unsatisfiable.
    """
    encoding = _encode_or_none(query, database, tup, session)
    if encoding is None:
        return []
    solver = CDCLSolver()
    solver.add_cnf(encoding.cnf)
    if report is None:
        report = MinimalityReport()
    results: List[FrozenSet] = []
    while limit is None or len(results) < limit:
        report.solve_calls += 1
        if solver.solve() is not True:
            break
        support = encoding.decode_support(solver.model())
        support = _shrink(encoding, solver, support, report)
        results.append(support)
        # Block this member and every superset of it.
        solver.add_clause(_support_literals(encoding, support))
        if not support:
            break  # the empty support subsumes everything
    report.members = list(results)
    return results


def _shrink(
    encoding: WhyProvenanceEncoding,
    solver: CDCLSolver,
    support: FrozenSet,
    report: MinimalityReport,
) -> FrozenSet:
    """Reduce *support* to a subset-minimal member of the encoded family."""
    outside_literals = {
        fact: -var for fact, var in encoding.database_fact_vars.items()
    }
    while True:
        activator = solver.new_var()
        # Under the activator: some fact of the current support is false...
        solver.add_clause([-activator] + _support_literals(encoding, support))
        # ... while everything outside the support stays false.
        assumptions = [activator] + [
            literal for fact, literal in outside_literals.items() if fact not in support
        ]
        report.solve_calls += 1
        satisfiable = solver.solve(assumptions)
        if satisfiable is True:
            # Decode before retiring the activator: adding a clause
            # backtracks the solver and discards the assignment.
            smaller = encoding.decode_support(solver.model())
            solver.add_clause([-activator])
            report.shrink_steps += 1
            support = smaller
        else:
            solver.add_clause([-activator])  # retire this round's activator
            return support


def members_by_size(
    query: DatalogQuery,
    database: Database,
    tup: Tuple,
    limit: Optional[int] = None,
    session=None,
):
    """Yield the members of ``whyUN(t, D, Q)`` in non-decreasing size.

    The plain enumerator of Section 5.2 yields members in whatever order
    the SAT solver stumbles on them; explanation interfaces usually want
    the parsimonious ones first.  A totalizer over the database-fact
    variables enforces "size exactly k" for k = 1, 2, ...; within each
    size class the usual blocking clauses enumerate without repetition.

    Yields ``(member, size)`` pairs; stops after *limit* members or when
    the formula is exhausted.
    """
    encoding = _encode_or_none(query, database, tup, session)
    if encoding is None:
        return
    projection = encoding.projection_variables()
    totalizer = Totalizer(encoding.cnf, projection)
    outputs = totalizer.outputs()
    solver = CDCLSolver()
    solver.add_cnf(encoding.cnf)
    produced = 0
    for size in range(1, len(projection) + 1):
        # Assume "at least size" and "not at least size + 1".
        assumptions = [outputs[size - 1]]
        if size < len(outputs):
            assumptions.append(-outputs[size])
        while limit is None or produced < limit:
            if solver.solve(assumptions) is not True:
                break
            member = encoding.decode_support(solver.model())
            yield member, size
            produced += 1
            solver.add_clause(
                _support_literals(encoding, member)
                + [encoding.database_fact_vars[fact] for fact in projection_facts(encoding) if fact not in member]
            )
        if limit is not None and produced >= limit:
            return


def _support_literals(encoding: WhyProvenanceEncoding, support: FrozenSet) -> List[int]:
    """``not x(fact)`` for each fact of *support*, in the encoding's order.

    Not in the frozenset's own order, which follows the string-hash seed
    and would reorder the clause, and with it the search.
    """
    return [
        -var for fact, var in encoding.database_fact_vars.items() if fact in support
    ]


def projection_facts(encoding: WhyProvenanceEncoding):
    """The database facts carrying projection variables (stable order)."""
    return sorted(encoding.database_fact_vars, key=repr)


def _encode_or_none(
    query: DatalogQuery,
    database: Database,
    tup: Tuple,
    session=None,
) -> Optional[WhyProvenanceEncoding]:
    """Encode ``phi_(t, D, Q)`` or return ``None`` for non-answers.

    The downward closure comes from the *session*'s cache (a session is
    built for this call when none is given) but the encoding itself is
    rebuilt: the minimality procedures splice totalizer clauses into the
    CNF, which must not leak into the session's shared encoding.
    """
    if session is None:
        session = ProvenanceSession(query, database)
    closure = session.closure_or_none(query.answer_atom(tup))
    if closure is None:
        return None
    return encode_why_provenance(query, database, tup, closure=closure)
