"""Incremental view maintenance for provenance sessions.

A :class:`~repro.core.session.ProvenanceSession` is a materialized view
over one ``(Q, D)`` pair: the least model, the graph of rule instances,
per-fact downward closures, CNF encodings and warm SAT solvers are all
derived state. Before this module the only correct reaction to a database
update was :meth:`~repro.core.session.ProvenanceSession.invalidate` — a
from-scratch re-evaluation, re-grounding and re-encoding, even when the
update touched one fact in a corner of the database. That is exactly the
kind of redundancy the session was built to eliminate *within* one
database; this module eliminates it *across* updates, the way production
Datalog engines maintain materialized views incrementally.

:func:`update_session` is the engine room behind
:meth:`ProvenanceSession.update`. It

1. applies the delta to the session's database
   (:meth:`~repro.datalog.database.Database.apply`), obtaining the
   *effective* delta;
2. patches the recorded evaluation in place through
   :func:`~repro.datalog.engine.maintain_evaluation` — deletions re-rank
   only the rank-supported cone of the deleted facts, insertions run
   delta-semi-naive rounds and then lower ranks from what they added —
   patching the model, the ranks and the instance trace so the invariant
   ``set(trace) == set(ground_instances(program, model))`` holds after
   any update sequence. The first update indexes the trace's interned
   keys by body fact (its :class:`~repro.datalog.engine.TraceIndex` is
   grouped by head already when the GRI exists, and shares that map
   with it) and lifts no instance;
3. computes the *dirty set*: every fact the update could possibly have
   flowed into — the delta's facts, the model difference, and the heads
   of every added or removed instance;
4. drops exactly the cached closures whose node set intersects the dirty
   set (plus cached "not derivable" verdicts for facts that became
   derivable), and with them the dependent encodings, decision solvers
   and enumerators — everything else survives byte-identical;
5. drops the canonical views of the heads the removed and added
   instances touch from the session's
   :class:`~repro.provenance.grounding.GriIndex`, which reads the head
   map the maintenance just patched;
6. bumps the session version, which stamps service responses and the
   delta records of the durable log.

Steps 4 and 5 rest on the canonical per-head order of the GRI
(:func:`~repro.provenance.grounding.gri_maps_from_instances`): since a
head's views depend only on the *set* of its instances, a retained
closure, and a head re-sorted after a patch, are not merely semantically
equal to what a cold session would build — they are structurally
identical, so member enumeration order is preserved too.
``tests/test_incremental.py`` asserts exactly that, against cold sessions
and cold GRIs, over random update sequences.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional, Set, TYPE_CHECKING

from ..datalog.atoms import Atom
from ..datalog.database import Delta
from ..datalog.engine import MaintenanceResult, maintain_evaluation

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .session import ProvenanceSession


@dataclass
class SessionUpdate:
    """The receipt of one :meth:`ProvenanceSession.update` call.

    Attributes
    ----------
    requested / effective:
        The delta the caller asked for, and the part of it that actually
        changed the database (redundant inserts/deletes are dropped by
        :meth:`~repro.datalog.database.Database.apply`).
    added_facts / removed_facts:
        The least-model difference, derived facts included.
    added_instances / removed_instances:
        How many ground rule instances entered / left the recorded trace.
    invalidated_closures / retained_closures:
        Cache accounting for the downward-closure layer: how many cached
        closures the dirty set forced out versus how many survive (and
        with them their encodings and warm solvers).
    cone / raised:
        Deletion diagnostics forwarded from the engine: the size of the
        rank-supported cone of the deleted facts (the only facts a
        deletion can re-rank or remove), and how many cone facts stayed
        in the model at a higher rank.
    version:
        The session version *after* the update.
    seconds:
        Wall-clock cost of the whole update, the number the
        ``bench_incremental_updates`` benchmark compares against full
        re-evaluation.
    """

    requested: Delta
    effective: Delta
    added_facts: FrozenSet[Atom] = frozenset()
    removed_facts: FrozenSet[Atom] = frozenset()
    added_instances: int = 0
    removed_instances: int = 0
    invalidated_closures: int = 0
    retained_closures: int = 0
    cone: int = 0
    raised: int = 0
    version: int = 0
    seconds: float = 0.0

    def changed(self) -> bool:
        """Whether the update had any observable effect on the session."""
        return bool(self.effective)

    def dirty_fact_count(self) -> int:
        """Size of the model difference (added plus removed facts)."""
        return len(self.added_facts) + len(self.removed_facts)


def update_session(session: "ProvenanceSession", delta: Delta) -> SessionUpdate:
    """Apply *delta* to *session*, keeping every cache the update misses.

    See the module docstring for the six steps. Two fast paths: a
    session that has never evaluated only applies the delta and bumps its
    version (there is nothing to maintain — the first evaluation will see
    the updated database), and an update whose effective delta is empty
    returns immediately with every cache and the version untouched.
    """
    started = time.perf_counter()
    if not isinstance(delta, Delta):
        raise TypeError(f"expected a Delta, got {type(delta).__name__}")
    # The session contract requires the database to stay over edb(Sigma)
    # (check_over_schema at construction); enforce the same for inserts.
    # Deleting an out-of-schema fact is a harmless no-op and stays legal.
    edb = session.query.program.edb
    offenders = sorted({f.pred for f in delta.inserted if f.pred not in edb})
    if offenders:
        raise ValueError(
            "delta inserts facts outside the extensional schema: "
            + ", ".join(offenders)
        )

    if session._evaluation is None:
        effective = session.database.apply(delta)
        if effective:
            session.version += 1
        return SessionUpdate(
            requested=delta,
            effective=effective,
            version=session.version,
            seconds=time.perf_counter() - started,
        )

    effective = session.database.apply(delta)
    if not effective:
        return SessionUpdate(
            requested=delta,
            effective=effective,
            retained_closures=len(session._closures),
            version=session.version,
            seconds=time.perf_counter() - started,
        )

    session.stats.updates += 1
    session.version += 1
    result: MaintenanceResult = maintain_evaluation(
        session.query.program,
        session.database,
        session._evaluation,
        effective,
        engine=session.engine,
        plan_context=session.plan_context(),
    )
    session._sync_plan_stats()

    dirty = _dirty_facts(effective, result)
    invalidated, retained = _invalidate_stale_caches(session, dirty)
    session.stats.closure_invalidations += invalidated

    # The GRI reads the patched head map: drop the views of the heads
    # whose instances left or entered, re-sorted on their next read.
    if session._gri is not None:
        session._gri.forget(
            ground.head
            for ground in result.removed_instances + result.added_instances
        )

    return SessionUpdate(
        requested=delta,
        effective=effective,
        added_facts=result.added_facts,
        removed_facts=result.removed_facts,
        added_instances=len(result.added_instances),
        removed_instances=len(result.removed_instances),
        invalidated_closures=invalidated,
        retained_closures=retained,
        cone=result.cone,
        raised=result.raised,
        version=session.version,
        seconds=time.perf_counter() - started,
    )


def _dirty_facts(effective: Delta, result: MaintenanceResult) -> Set[Atom]:
    """Every fact a cached closure could have changed through.

    A closure is a reachability restriction of the GRI, so it changes iff
    a hyperedge was added or removed at one of its nodes, or one of its
    nodes toggled database membership (which moves the encoding's
    projection set ``S`` even when the model is unchanged). Both causes
    are covered by: the delta's own facts, the model difference, and the
    heads of every instance that entered or left the trace.
    """
    dirty: Set[Atom] = set(effective.inserted)
    dirty.update(effective.deleted)
    dirty.update(result.added_facts)
    dirty.update(result.removed_facts)
    dirty.update(ground.head for ground in result.added_instances)
    dirty.update(ground.head for ground in result.removed_instances)
    return dirty


def _invalidate_stale_caches(
    session: "ProvenanceSession", dirty: Set[Atom]
) -> "tuple[int, int]":
    """Drop closures intersecting *dirty* and their dependent artifacts.

    Returns ``(invalidated, retained)`` closure counts. A cached ``None``
    (fact known underivable) is dropped only when the fact entered the
    model. Encodings, decision solvers and enumerators are keyed under
    their root fact, so they fall with its closure entry.
    """
    stale_roots: Set[Atom] = set()
    retained = 0
    model = session._evaluation.model if session._evaluation is not None else None
    for fact, closure in list(session._closures.items()):
        if closure is None:
            stale = model is not None and fact in model
        else:
            stale = not dirty.isdisjoint(closure.nodes)
        if stale:
            stale_roots.add(fact)
            del session._closures[fact]
        else:
            retained += 1
    for key in [k for k in session._encodings if k[0] in stale_roots]:
        del session._encodings[key]
    for key in [k for k in session._decision_solvers if k[0] in stale_roots]:
        del session._decision_solvers[key]
    for key in [
        k for k in session._enumerators if session.query.answer_atom(k) in stale_roots
    ]:
        del session._enumerators[key]
    return len(stale_roots), retained
