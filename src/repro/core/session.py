"""A unified, cache-aware provenance pipeline over one ``(Program, Database)``.

The paper's pipeline — evaluate ``Sigma(D)``, build the graph of rule
instances, restrict to downward closures, encode to CNF, enumerate supports
via SAT — historically lived in four layers that each redid grounding work
from scratch: the engine fired every ground rule instance and threw the
instances away, the GRI re-matched them against the full model, and the
deciders/enumerators re-evaluated the program per target fact even when
dozens of facts shared one ``(D, Sigma)``.

:class:`ProvenanceSession` is the shared front door. It owns a single
``(DatalogQuery, Database)`` pair and memoizes every derived artifact:

* the :class:`~repro.datalog.engine.EvaluationResult`, computed **exactly
  once** with ``record_instances=True`` so the engine's own firings feed
  the GRI (no second matching pass);
* the graph of rule instances, grouped by head in ``O(|gri|)`` from the
  recorded trace, each head sorted canonically on first use;
* per-fact downward closures (reachability restriction of the cached GRI);
* per-fact CNF encodings, plus warm incremental SAT solvers — one
  assumption-only solver per encoding for membership decisions, and one
  blocking-clause enumerator per tuple for incremental ``whyUN``
  enumeration.

All caches hang off one object, so the session can be invalidated
(:meth:`invalidate`), forked onto another database (:meth:`fork`), or
inherited whole by forked batch workers (:meth:`explain_batch`).

Typical batch usage (one evaluation, many target facts)::

    session = ProvenanceSession(query, database)
    for tup in session.answers():
        members = session.why(tup, limit=10)
        verdict = session.decide(tup, subset)

The free functions of :mod:`repro.core.decision`,
:mod:`repro.core.enumerator` and :mod:`repro.core.minimal` accept an
optional ``session=`` argument to share these caches; without one they
build a throwaway session, so there is one grounding path either way.
"""

from __future__ import annotations

import threading
from dataclasses import asdict, dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..datalog.atoms import Atom
from ..datalog.database import Database, check_over_schema
from ..datalog.engine import EvaluationResult, evaluate
from ..datalog.plans import PlanContext, resolve_engine
from ..datalog.program import DatalogQuery, Program
from ..provenance.grounding import (
    DownwardClosure,
    FactNotDerivable,
    GriIndex,
    HyperEdge,
    RuleInstance,
    _gri_index,
    _restrict_to_reachable,
)
from ..sat.solver import CDCLSolver
from .encoder import WhyProvenanceEncoding, encode_why_provenance

#: Byte-budget weights of :meth:`ProvenanceSession.estimated_bytes`: a
#: least-squares fit to the size of the session's pickled query,
#: database, model, ranks and trace over the 13 synthetic instances the
#: daemon benchmark admits, so budgets keep the scale they had when that
#: size was the charge. It is within 8% on twelve of them and 20% on the
#: smallest. A trace that an update has indexed by body fact (see
#: :class:`~repro.datalog.engine.TraceIndex`) pays ``INSTANCE_BYTES``
#: twice per instance: its head and body maps roughly double a session's
#: memory on its first update.
FACT_BYTES = 14
INSTANCE_BYTES = 35


@dataclass
class SessionStats:
    """Cache and work counters for one session (diagnostics / assertions).

    ``evaluations`` is the headline number: a session evaluates its
    ``(D, Sigma)`` pair at most once, no matter how many target facts are
    queried through it.
    """

    evaluations: int = 0
    gri_builds: int = 0
    closure_builds: int = 0
    closure_hits: int = 0
    encoding_builds: int = 0
    encoding_hits: int = 0
    sat_solver_builds: int = 0
    updates: int = 0
    closure_invalidations: int = 0
    #: Plan-cache gauges of the compiled engine (zero when interpreted):
    #: distinct (rule, delta-position) join plans compiled so far, and how
    #: often a cached plan was reused — across semi-naive rounds and
    #: across :meth:`ProvenanceSession.update` maintenance rounds.
    plans_compiled: int = 0
    plan_reuses: int = 0

    def as_dict(self) -> Dict[str, int]:
        """The counters as a plain dict (for reports and assertions)."""
        return asdict(self)


class ProvenanceSession:
    """Instrumented, memoizing pipeline over one ``(query, database)`` pair.

    Parameters
    ----------
    query:
        The Datalog query ``Q = (Sigma, R)``.
    database:
        The input database over ``edb(Sigma)`` (validated on construction).
    acyclicity:
        Default acyclicity encoding for CNF compilations.
    engine:
        Evaluation engine: ``"compiled"`` (join plans, the default),
        ``"interpreted"`` (generic matcher oracle), or ``None`` to
        consult ``REPRO_ENGINE``. Resolved once at construction, so a
        session's behavior never shifts under it mid-lifetime. The
        session owns a :class:`~repro.datalog.plans.PlanContext` shared
        by its initial evaluation and every :meth:`update`, dropped by
        :meth:`invalidate` along with the other caches.
    sat_mode:
        Only ``"fresh"`` is accepted — every tuple is solved by its own
        :class:`~repro.sat.solver.CDCLSolver`, the one solving path.
        Any other value raises :class:`ValueError`. The keyword remains
        for the request-list generators of ``perfbench/workloads.py``,
        which still pass ``sat_mode="fresh"``; the next change to that
        benchmark drops the argument there and this keyword with it.
    """

    def __init__(
        self,
        query: DatalogQuery,
        database: Database,
        acyclicity: str = "vertex-elimination",
        engine: Optional[str] = None,
        sat_mode: str = "fresh",
    ):
        if sat_mode != "fresh":
            raise ValueError(f"unknown SAT mode {sat_mode!r}: only 'fresh' exists")
        check_over_schema(database, query.program.edb)
        self.query = query
        self.database = database
        self.acyclicity = acyclicity
        self.engine = resolve_engine(engine)
        self._plan_context: Optional[PlanContext] = None
        self.stats = SessionStats()
        #: Monotonic database-state counter: bumped by every effective
        #: :meth:`update` and every :meth:`invalidate`. It stamps service
        #: responses and the delta records of the durable log.
        self.version = 0
        #: Per-session reentrant guard for multi-threaded callers. The
        #: session's caches are plain dicts, so concurrent cache fills
        #: race without it; methods do **not** take the lock themselves
        #: (single-threaded use stays free), callers that share a session
        #: across threads — the service dispatcher above all — wrap each
        #: operation in ``with session.lock:``. Reentrant because session
        #: methods call each other (``why`` → ``encoding`` → ``closure``).
        self.lock = threading.RLock()
        self._evaluation: Optional[EvaluationResult] = None
        self._gri: Optional[GriIndex] = None
        self._closures: Dict[Atom, Optional[DownwardClosure]] = {}
        self._encodings: Dict[Tuple[Atom, int, str], Optional[WhyProvenanceEncoding]] = {}
        self._decision_solvers: Dict[Tuple[Atom, int, str], CDCLSolver] = {}
        self._enumerators: Dict[Tuple[Tuple, str], "WhyProvenanceEnumerator"] = {}

    @classmethod
    def from_program(
        cls, program: Program, database: Database, answer: str, **kwargs
    ) -> "ProvenanceSession":
        """Build a session from a bare program plus answer predicate."""
        return cls(DatalogQuery(program, answer), database, **kwargs)

    # -- evaluation layer ---------------------------------------------------

    @property
    def evaluation(self) -> EvaluationResult:
        """The fixpoint evaluation, computed once and cached."""
        if self._evaluation is None:
            self.stats.evaluations += 1
            self._evaluation = evaluate(
                self.query.program,
                self.database,
                record_instances=True,
                engine=self.engine,
                plan_context=self.plan_context(),
            )
            self._sync_plan_stats()
        return self._evaluation

    def plan_context(self) -> Optional[PlanContext]:
        """The session's plan cache (``None`` on the interpreted engine).

        Created lazily on the compiled engine and shared by the initial
        evaluation and every incremental update, so join plans compile
        once per (rule, delta-position) for the session's lifetime.
        """
        if self.engine != "compiled":
            return None
        if self._plan_context is None:
            self._plan_context = PlanContext()
        return self._plan_context

    def _sync_plan_stats(self) -> None:
        """Mirror the plan context's counters into :attr:`stats`."""
        context = self._plan_context
        if context is not None:
            self.stats.plans_compiled = context.compiled
            self.stats.plan_reuses = context.reuses

    @property
    def model(self) -> Database:
        """The least model ``Sigma(D)``."""
        return self.evaluation.model

    @property
    def ranks(self) -> Dict[Atom, int]:
        """``fact -> min-dag-depth`` (Proposition 28)."""
        return self.evaluation.ranks

    def answers(self) -> List[Tuple]:
        """``Q(D)``: the answer tuples, sorted for determinism."""
        return sorted(
            fact.args
            for fact in self.model.relation(self.query.answer_predicate)
        )

    def answer_fact(self, tup: Tuple) -> Atom:
        """``R(t)`` for this session's answer predicate."""
        return self.query.answer_atom(tup)

    def is_answer(self, tup: Tuple) -> bool:
        """Whether ``R(t)`` is in the least model (i.e. ``t in Q(D)``)."""
        return self.answer_fact(tup) in self.model

    def min_dag_depth(self, tup: Tuple) -> int:
        """Minimal proof-DAG depth of ``R(t)`` (raises if not an answer)."""
        fact = self.answer_fact(tup)
        if fact not in self.ranks:
            raise FactNotDerivable(f"{fact} is not derivable from the database")
        return self.ranks[fact]

    # -- grounding layer ----------------------------------------------------

    def gri_index(self) -> GriIndex:
        """The head-indexed GRI, built once and patched by :meth:`update`."""
        if self._gri is None:
            self.stats.gri_builds += 1
            self._gri = _gri_index(self.query.program, self.evaluation)
        return self._gri

    def gri(self) -> Dict[Atom, List[HyperEdge]]:
        """The full graph of rule instances ``gri(D, Sigma)`` (hyperedge view)."""
        return self.gri_index().edge_map()

    def gri_instances(self) -> Dict[Atom, List[RuleInstance]]:
        """The full GRI in the multiset (rule-instance) view."""
        return self.gri_index().instance_map()

    def closure(self, fact: Atom) -> DownwardClosure:
        """``down(D, Sigma, fact)``, restricted from the cached GRI.

        Raises :class:`FactNotDerivable` when the fact is not in the model.
        """
        result = self.closure_or_none(fact)
        if result is None:
            raise FactNotDerivable(f"{fact} is not derivable; its closure is empty")
        return result

    def closure_or_none(self, fact: Atom) -> Optional[DownwardClosure]:
        """Like :meth:`closure` but returns ``None`` for underivable facts."""
        if fact in self._closures:
            self.stats.closure_hits += 1
            return self._closures[fact]
        if fact not in self.model:
            self._closures[fact] = None
            return None
        self.stats.closure_builds += 1
        index = self.gri_index()
        closure = _restrict_to_reachable(fact, index.edges, self.database, index.instances)
        self._closures[fact] = closure
        return closure

    def closure_for(self, tup: Tuple) -> DownwardClosure:
        """The downward closure of the answer fact ``R(t)``."""
        return self.closure(self.answer_fact(tup))

    # -- encoding layer -----------------------------------------------------

    def encoding(
        self,
        tup: Tuple,
        copies: int = 1,
        acyclicity: Optional[str] = None,
    ) -> WhyProvenanceEncoding:
        """The CNF ``phi_(t, D, Q)`` built over the cached closure.

        Raises :class:`FactNotDerivable` when the tuple is not an answer.
        """
        result = self.encoding_or_none(tup, copies=copies, acyclicity=acyclicity)
        if result is None:
            fact = self.answer_fact(tup)
            raise FactNotDerivable(f"{fact} is not derivable; its closure is empty")
        return result

    def encoding_or_none(
        self,
        tup: Tuple,
        copies: int = 1,
        acyclicity: Optional[str] = None,
    ) -> Optional[WhyProvenanceEncoding]:
        """Like :meth:`encoding` but returns ``None`` for non-answers."""
        fact = self.answer_fact(tup)
        acyc = self.acyclicity if acyclicity is None else acyclicity
        key = (fact, copies, acyc)
        if key in self._encodings:
            self.stats.encoding_hits += 1
            return self._encodings[key]
        closure = self.closure_or_none(fact)
        if closure is None:
            self._encodings[key] = None
            return None
        self.stats.encoding_builds += 1
        encoding = encode_why_provenance(
            self.query,
            self.database,
            tup,
            closure=closure,
            copies=copies,
            acyclicity=acyc,
        )
        self._encodings[key] = encoding
        return encoding

    def decision_solver(
        self,
        tup: Tuple,
        copies: int = 1,
        acyclicity: Optional[str] = None,
    ) -> Optional[CDCLSolver]:
        """A warm solver over ``phi_(t, D, Q)`` reserved for assumption queries.

        The solver never receives blocking clauses, so repeated membership
        decisions for the same tuple reuse its learned clauses instead of
        re-propagating the formula from scratch. Returns ``None`` when the
        tuple is not an answer.
        """
        encoding = self.encoding_or_none(tup, copies=copies, acyclicity=acyclicity)
        if encoding is None:
            return None
        acyc = self.acyclicity if acyclicity is None else acyclicity
        key = (self.answer_fact(tup), copies, acyc)
        solver = self._decision_solvers.get(key)
        if solver is None:
            self.stats.sat_solver_builds += 1
            solver = CDCLSolver()
            solver.add_cnf(encoding.cnf)
            self._decision_solvers[key] = solver
        return solver

    # -- enumeration layer --------------------------------------------------

    def enumerator(
        self,
        tup: Tuple,
        acyclicity: Optional[str] = None,
    ) -> "WhyProvenanceEnumerator":
        """A warm incremental enumerator for ``whyUN(t, D, Q)``.

        The enumerator is cached per tuple: successive ``enumerate`` calls
        continue where the previous left off (the blocking clauses live in
        the enumerator's solver). Use :meth:`why` for a fresh, repeatable
        enumeration. Raises :class:`FactNotDerivable` for non-answers.
        """
        from .enumerator import WhyProvenanceEnumerator

        acyc = self.acyclicity if acyclicity is None else acyclicity
        key = (tuple(tup), acyc)
        enumerator = self._enumerators.get(key)
        if enumerator is None:
            self.stats.sat_solver_builds += 1
            enumerator = WhyProvenanceEnumerator(
                self.query, self.database, tup, acyclicity=acyc, session=self
            )
            self._enumerators[key] = enumerator
        return enumerator

    def why(
        self,
        tup: Tuple,
        limit: Optional[int] = None,
        timeout_seconds: Optional[float] = None,
        acyclicity: Optional[str] = None,
    ) -> List[FrozenSet[Atom]]:
        """Members of ``whyUN(t, D, Q)`` from a fresh enumeration pass.

        Repeatable (a new solver each call, over the cached encoding);
        returns the empty list when the tuple is not an answer. The
        enumerator looks the closure and encoding up once, as
        :func:`~repro.core.parallel.explain_fact` does.
        """
        from .enumerator import WhyProvenanceEnumerator

        acyc = self.acyclicity if acyclicity is None else acyclicity
        if not self.is_answer(tup):
            return []
        self.stats.sat_solver_builds += 1
        enumerator = WhyProvenanceEnumerator(
            self.query, self.database, tup, acyclicity=acyc, session=self
        )
        return enumerator.members(limit=limit, timeout_seconds=timeout_seconds)

    # -- decision layer -----------------------------------------------------

    def decide(
        self,
        tup: Tuple,
        subset: Iterable[Atom],
        tree_class: str = "arbitrary",
    ) -> bool:
        """``D' in why^X(t, D, Q)?`` through the session caches.

        The default tree class is ``"arbitrary"`` (Definition 2), matching
        :func:`~repro.core.decision.decide_membership` so migrating calls
        to the session never flips verdicts silently.
        """
        from .decision import decide_membership

        return decide_membership(
            self.query, self.database, tup, subset, tree_class, session=self
        )

    def smallest_member(self, tup: Tuple) -> Optional[FrozenSet[Atom]]:
        """A cardinality-minimum member of ``whyUN(t, D, Q)``."""
        from .minimal import smallest_member

        return smallest_member(self.query, self.database, tup, session=self)

    def minimal_members(
        self, tup: Tuple, limit: Optional[int] = None
    ) -> List[FrozenSet[Atom]]:
        """All subset-minimal members of ``whyUN(t, D, Q)``."""
        from .minimal import minimal_members

        return minimal_members(self.query, self.database, tup, limit=limit, session=self)

    # -- batch layer ---------------------------------------------------------

    def explain_batch(
        self,
        tuples: Optional[Iterable[Tuple]] = None,
        workers: Optional[int] = 1,
        limit: Optional[int] = None,
        timeout_seconds: Optional[float] = None,
        chunk_size: Optional[int] = None,
    ) -> "BatchResult":
        """Explain many target tuples, optionally across a worker pool.

        ``tuples=None`` serves every answer of ``Q(D)``. With
        ``workers > 1`` the batch is sharded over forked worker processes
        by :class:`~repro.core.parallel.ParallelProvenanceExplainer`: the
        session is evaluated once here in the parent, each worker
        inherits it through the fork, and grounds/encodes/solves its
        share of the facts. Keep the session unchanged until the call
        returns (the service holds the session lock).
        Results come back in input order and are identical to the serial
        path (``workers=1``), which runs in-process through this
        session's caches. ``workers=None`` (or ``0``) uses one worker
        per core.
        """
        from .parallel import ParallelProvenanceExplainer

        explainer = ParallelProvenanceExplainer(
            self, workers=workers, chunk_size=chunk_size
        )
        return explainer.explain_batch(
            tuples=tuples, limit=limit, timeout_seconds=timeout_seconds
        )

    # -- lifecycle ----------------------------------------------------------

    def update(self, delta) -> "SessionUpdate":
        """Apply a :class:`~repro.datalog.database.Delta` incrementally.

        The surgical alternative to mutating the database and calling
        :meth:`invalidate`: the evaluation's model, ranks and trace are
        patched in place (delta-semi-naive insertion rounds, deletion by
        re-ranking the rank-supported cone — see
        :mod:`repro.core.incremental`), the GRI reads the patched trace's
        head map, and only the closures / encodings / warm solvers of facts
        the update actually reaches are dropped. The session afterwards
        is observably identical — answers, witnesses, witness order — to
        a cold session over the updated database, but the evaluation
        counter never moves (``stats.evaluations`` stays at 1).

        Returns the :class:`~repro.core.incremental.SessionUpdate`
        receipt (what changed, what was invalidated, how long it took).
        """
        from .incremental import update_session

        return update_session(self, delta)

    def snapshot_bytes(self) -> bytes:
        """The pickled query, database, model, ranks and trace, uncached.

        Its one caller is the tenants data builder of
        ``perfbench/workloads.py``, which records the size; this method
        goes with that caller at the next change to that benchmark.
        """
        import pickle

        evaluation = self.evaluation
        state = (
            self.query,
            self.database,
            evaluation.model,
            evaluation.ranks,
            tuple(evaluation.instances),
        )
        return pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)

    def estimated_bytes(self) -> int:
        """Approximate resident cost of the session, for byte budgets.

        The service registry charges each admitted session against a byte
        budget. The charge is an estimate from counts the session already
        keeps, so accounting after every update costs nothing:
        :data:`FACT_BYTES` per database and model fact plus
        :data:`INSTANCE_BYTES` per recorded rule instance (the trace that
        dominates a warm session's footprint), twice over once an update
        has indexed the trace by body fact. Before the evaluation only the
        database counts.
        """
        evaluation = self._evaluation
        facts = len(self.database)
        if evaluation is None:
            return FACT_BYTES * facts
        facts += len(evaluation.model)
        trace = evaluation.instances
        if trace is None:
            return FACT_BYTES * facts
        per_instance = INSTANCE_BYTES * (1 if trace.bodies is None else 2)
        return FACT_BYTES * facts + per_instance * len(trace)

    def invalidate(self) -> None:
        """Drop every cached artifact (call after mutating the database)."""
        self.version += 1
        self._evaluation = None
        self._gri = None
        self._plan_context = None
        self._closures.clear()
        self._encodings.clear()
        self._decision_solvers.clear()
        self._enumerators.clear()

    def fork(self, database: Optional[Database] = None) -> "ProvenanceSession":
        """A fresh session over the same query (optionally a new database).

        The cheap way to explore what-if databases (fault injection,
        shard-local databases) without poisoning this session's caches.
        """
        return ProvenanceSession(
            self.query,
            self.database if database is None else database,
            acyclicity=self.acyclicity,
            engine=self.engine,
        )

    def __repr__(self) -> str:
        cached = "yes" if self._evaluation is not None else "no"
        return (
            f"ProvenanceSession(answer={self.query.answer_predicate!r}, "
            f"facts={len(self.database)}, evaluated={cached})"
        )
