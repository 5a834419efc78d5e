"""Incremental computation of the why-provenance (Section 5.2).

The :class:`WhyProvenanceEnumerator` ties the whole pipeline together:

1. evaluate the query and build the downward closure of ``R(t)``
   (time recorded as ``closure_seconds``, the dominating cost in the
   paper's Figure 1);
2. compile the Boolean formula ``phi_(t, D, Q)``
   (``formula_seconds``, negligible in the paper);
3. enumerate satisfying assignments with blocking clauses over the
   database facts of the closure, yielding one member of
   ``whyUN(t, D, Q)`` per model together with its *delay* — the time
   between consecutive members (the paper's Figure 2).

Each model is blocked with :meth:`~repro.sat.solver.CDCLSolver.block_model`,
which backjumps to the level where the blocking clause asserts, so the
next solve resumes from that trail instead of restarting. The set an
exhaustive enumeration yields does not depend on how models are blocked;
the order, and with it which members a limit or a timeout keeps, is a
deterministic function of the encoding.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import FrozenSet, Iterator, List, Optional, Tuple

from ..datalog.atoms import Atom
from ..datalog.database import Database
from ..datalog.program import DatalogQuery
from ..provenance.grounding import DownwardClosure, FactNotDerivable
from ..sat.solver import CDCLSolver
from .encoder import WhyProvenanceEncoding
from .session import ProvenanceSession


@dataclass
class MemberRecord:
    """One member of the why-provenance with its enumeration delay."""

    support: FrozenSet[Atom]
    delay_seconds: float
    index: int


class WhyProvenanceEnumerator:
    """Enumerate ``whyUN(t, D, Q)`` incrementally via SAT.

    Parameters
    ----------
    session:
        The :class:`~repro.core.session.ProvenanceSession` owning the
        ``(query, database)`` pair; without one the enumerator builds its
        own. The evaluation, the downward closure and the CNF encoding
        come from the session caches; ``closure_seconds`` /
        ``formula_seconds`` time the (possibly cached) session lookups, so
        amortization shows up in the Figure 1/3 numbers.
    """

    def __init__(
        self,
        query: DatalogQuery,
        database: Database,
        tup: Tuple,
        session: Optional[ProvenanceSession] = None,
    ):
        self.query = query
        self.database = database
        self.tup = tuple(tup)
        fact = query.answer_atom(tup)
        if session is None:
            session = ProvenanceSession(query, database)
        # The paper computes Q(D) with the Datalog engine before any
        # per-tuple work; do the same so closure timing measures only
        # the downward-closure construction.
        ranks = session.ranks

        start = time.perf_counter()
        self.closure: DownwardClosure = session.closure(fact)
        self.closure_seconds = time.perf_counter() - start

        start = time.perf_counter()
        self.encoding: WhyProvenanceEncoding = session.encoding(tup)
        self.formula_seconds = time.perf_counter() - start

        self._solver = CDCLSolver()
        self._solver.add_cnf(self.encoding.cnf)
        # Warm start: seed the phases with a minimal-rank derivation.
        self._solver.set_phases(self.encoding.phase_hints(ranks))
        self._exhausted = False
        self._count = 0

    @property
    def exhausted(self) -> bool:
        """Whether every member has been enumerated.

        ``False`` after a limit or a timeout stopped the enumeration, even
        if no member was left: only a final unsatisfiable solve proves the
        list complete.
        """
        return self._exhausted

    # -- enumeration -----------------------------------------------------------

    def __iter__(self) -> Iterator[MemberRecord]:
        return self.enumerate()

    def enumerate(
        self,
        limit: Optional[int] = None,
        timeout_seconds: Optional[float] = None,
    ) -> Iterator[MemberRecord]:
        """Yield members without repetition until exhaustion/limit/timeout.

        The remaining wall-clock budget is threaded into every SAT call, so
        a single hard solve cannot overrun the timeout by much.
        """
        start = time.perf_counter()
        produced = 0
        while not self._exhausted:
            if limit is not None and produced >= limit:
                return
            budget = None
            if timeout_seconds is not None:
                budget = timeout_seconds - (time.perf_counter() - start)
                if budget <= 0:
                    return
            record = self._next_member(solve_timeout=budget)
            if record is None:
                return
            produced += 1
            yield record

    def _next_member(self, solve_timeout: Optional[float] = None) -> Optional[MemberRecord]:
        before = time.perf_counter()
        satisfiable = self._solver.solve(timeout_seconds=solve_timeout)
        delay = time.perf_counter() - before
        if satisfiable is None:
            # Budget exhausted mid-solve: not exhausted, just out of time.
            return None
        if not satisfiable:
            self._exhausted = True
            return None
        model = self._solver.model()
        support = self.encoding.decode_support(model)
        record = MemberRecord(support=support, delay_seconds=delay, index=self._count)
        self._count += 1
        # Blocking clause over S: no later model may reproduce db(tau).
        blocking = [
            (-var if model[var] else var)
            for var in self.encoding.database_fact_vars.values()
        ]
        if not blocking or not self._solver.block_model(blocking):
            self._exhausted = True
        return record

    # -- conveniences -------------------------------------------------------------

    def members(
        self,
        limit: Optional[int] = None,
        timeout_seconds: Optional[float] = None,
    ) -> List[FrozenSet[Atom]]:
        """Materialize the member supports as a list."""
        return [rec.support for rec in self.enumerate(limit=limit, timeout_seconds=timeout_seconds)]


def why_provenance_unambiguous(
    query: DatalogQuery,
    database: Database,
    tup: Tuple,
    limit: Optional[int] = None,
    timeout_seconds: Optional[float] = None,
    session=None,
) -> FrozenSet[FrozenSet[Atom]]:
    """``whyUN(t, D, Q)`` computed via the SAT pipeline (Proposition 15).

    Returns the empty family when the tuple is not an answer. With a
    *session*, evaluation/closure/encoding come from its caches.
    """
    try:
        enumerator = WhyProvenanceEnumerator(query, database, tup, session=session)
    except FactNotDerivable:
        return frozenset()
    return frozenset(enumerator.members(limit=limit, timeout_seconds=timeout_seconds))
