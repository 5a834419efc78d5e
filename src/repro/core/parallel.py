"""Parallel batch why-provenance: shard target facts across worker processes.

The paper's experiments (Figures 1-3) measure why-provenance over *many*
target facts per database. :class:`~repro.core.session.ProvenanceSession`
already amortizes evaluation and grounding across those facts, but it
serves them strictly sequentially on one core. This module adds the
serving-scale layer on top: a batch of target tuples is sharded across a
``multiprocessing`` worker pool, with the expensive fixpoint evaluation
done **exactly once** in the parent.

Design
------

* :class:`ParallelProvenanceExplainer` — the pool driver. Workers are
  forked, and the pool initializer receives the parent's
  :class:`~repro.core.session.ProvenanceSession` itself: a forked child
  gets its initializer arguments in memory, never pickled, so every
  worker starts with the evaluation and whatever GRI, closures and
  encodings the parent had built, and does only the per-fact work —
  ground (GRI restriction), encode (CNF) and solve (CDCL enumeration).
  Tuples are cut into contiguous chunks that workers *pull* from the
  shared task queue (``imap_unordered`` with ``chunksize=1``), so a
  worker that drew facts with small downward closures steals the next
  chunk instead of idling behind one with a giant closure. Results carry
  their batch index and are re-ordered in the parent, so the output is
  deterministic regardless of completion order.
* Serial fallback — ``workers=1``, a batch smaller than two facts, or a
  platform without the ``fork`` start method run the same per-fact
  routine in-process through the parent session. The results are
  identical either way (same members, same order);
  :attr:`BatchResult.fallback_reason` records why.

Determinism
-----------

Closure construction, CNF variable numbering and CDCL member discovery
order depend only on the session's data, never on the string-hash seed,
so each worker replays bit for bit what the parent session would do.
``tests/test_parallel.py`` asserts parallel output equals serial output —
same witnesses, same order — across scenarios and after updates.

The caller holds the session unchanged for the whole batch: the pool
forks its workers (and any replacement for a dead one) from the parent's
current session. The service's ``batch`` op runs under the session's
entry lock throughout, and :data:`_FORK_LOCK` serializes the fork moment
across the daemon's threads.

Typical usage::

    session = ProvenanceSession(query, database)
    batch = session.explain_batch(workers=4, limit=100)
    for result in batch.results:
        print(result.tuple_value, len(result.members))
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..provenance.grounding import FactNotDerivable
from .session import ProvenanceSession

#: Upper bound on pool size when ``workers=None`` asks for "all cores".
MAX_AUTO_WORKERS = 16

#: Below this many tuples a batch is not worth forking a pool for: worker
#: start-up dominates the per-fact work. The service daemon uses this to
#: route small batches through the serial in-process path and only large
#: ones through the pool.
PARALLEL_BATCH_THRESHOLD = 8

#: Serializes pool creation (the fork moment) across threads. A threaded
#: server may run several batches concurrently; forking while another
#: thread mutates interpreter state is the classic fork-with-threads
#: hazard, so only one pool is ever being spawned at a time. Held only
#: around ``Pool()`` construction, never around the batch itself.
_FORK_LOCK = threading.Lock()


def default_worker_count() -> int:
    """The pool size used when ``workers`` is not given: one per core.

    Respects CPU affinity masks (containers, ``taskset``) where the
    platform exposes them, and is capped at :data:`MAX_AUTO_WORKERS`.
    """
    try:
        available = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without sched_getaffinity
        available = os.cpu_count() or 1
    return max(1, min(available, MAX_AUTO_WORKERS))


@dataclass
class FactResult:
    """The outcome of explaining one target tuple of a batch.

    The per-tuple record of every experiment: the build times of Figures
    1/3 (``closure_seconds``, ``formula_seconds``), the member delays of
    Figures 2/4 and whether enumeration ``exhausted`` the members, as
    :func:`~repro.harness.runner.run_database` collects them in
    :attr:`~repro.harness.runner.DatabaseRun.tuple_runs`. Batch
    bookkeeping rides along: the batch ``index`` (results are re-ordered
    on it), the wall-clock ``seconds`` the fact took end to end in its
    process, and an ``error`` string for tuples that could not be served
    (arity mismatch). A derivable tuple has ``is_answer=True`` and its
    members of ``whyUN(t, D, Q)`` in solver discovery order; a non-answer
    has ``is_answer=False`` and no members.
    """

    index: int
    tuple_value: Tuple
    members: List[FrozenSet] = field(default_factory=list)
    is_answer: bool = False
    closure_seconds: float = 0.0
    formula_seconds: float = 0.0
    delays: List[float] = field(default_factory=list)
    exhausted: bool = False
    seconds: float = 0.0
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        """Whether the tuple was served (it may still be a non-answer)."""
        return self.error is None

    @property
    def build_seconds(self) -> float:
        """Closure plus formula construction (the Figure 1 quantity)."""
        return self.closure_seconds + self.formula_seconds


@dataclass
class BatchResult:
    """An ordered batch of :class:`FactResult` plus execution metadata.

    ``results[i]`` corresponds to the ``i``-th input tuple no matter which
    worker served it or when it finished. ``workers`` is the *effective*
    pool size (1 when the serial fallback ran), and ``fallback_reason``
    says why a parallel request was served serially (``None`` when the
    pool ran, or when serial execution was requested outright).
    """

    results: List[FactResult]
    workers: int
    chunk_size: int
    total_seconds: float
    evaluation_seconds: float
    fallback_reason: Optional[str] = None

    @property
    def parallel(self) -> bool:
        """Whether a worker pool actually served the batch."""
        return self.workers > 1

    @property
    def throughput(self) -> float:
        """Tuples served per second of batch wall-clock time."""
        if self.total_seconds <= 0:
            return float("inf")
        return len(self.results) / self.total_seconds

    def members_by_tuple(self) -> Dict[Tuple, List[FrozenSet]]:
        """``tuple -> members`` for every successfully served tuple."""
        return {r.tuple_value: r.members for r in self.results if r.ok}

    def failures(self) -> List[FactResult]:
        """Results that errored or were not answers."""
        return [r for r in self.results if not r.ok or not r.is_answer]


def explain_fact(
    session: ProvenanceSession,
    tup: Tuple,
    index: int = 0,
    limit: Optional[int] = None,
    timeout_seconds: Optional[float] = None,
) -> FactResult:
    """Serve one target tuple through *session*: the shared per-fact routine.

    Both the serial path and every pool worker run exactly this function,
    which is what makes parallel output provably comparable to serial
    output; the daemon's ``why`` op serves through it too. Invalid tuples (arity mismatch) are reported in
    :attr:`FactResult.error` instead of aborting the batch.
    """
    from .enumerator import WhyProvenanceEnumerator

    started = time.perf_counter()
    try:
        is_answer = session.is_answer(tup)
    except ValueError as exc:
        return FactResult(
            index=index,
            tuple_value=tuple(tup),
            error=str(exc),
            seconds=time.perf_counter() - started,
        )
    if not is_answer:
        return FactResult(
            index=index,
            tuple_value=tuple(tup),
            is_answer=False,
            exhausted=True,
            seconds=time.perf_counter() - started,
        )
    try:
        enumerator = WhyProvenanceEnumerator(
            session.query, session.database, tup, session=session
        )
    except FactNotDerivable:  # cannot happen after is_answer, but stay safe
        return FactResult(
            index=index,
            tuple_value=tuple(tup),
            is_answer=False,
            exhausted=True,
            seconds=time.perf_counter() - started,
        )
    session.stats.sat_solver_builds += 1
    records = list(
        enumerator.enumerate(limit=limit, timeout_seconds=timeout_seconds)
    )
    return FactResult(
        index=index,
        tuple_value=tuple(tup),
        members=[record.support for record in records],
        is_answer=True,
        closure_seconds=enumerator.closure_seconds,
        formula_seconds=enumerator.formula_seconds,
        delays=[record.delay_seconds for record in records],
        exhausted=enumerator.exhausted,
        seconds=time.perf_counter() - started,
    )


# -- worker-side plumbing ----------------------------------------------------
#
# The pool initializer keeps the parent's session, which the fork handed
# over in memory; chunk tasks then only carry (index, tuple) pairs. Every
# pool is forked for one batch, so a worker's session is never stale.

_WORKER_SESSION: Optional[ProvenanceSession] = None


def _init_worker(session: ProvenanceSession) -> None:
    """Pool initializer: keep the session the fork handed over."""
    global _WORKER_SESSION
    _WORKER_SESSION = session


def _run_chunk(
    payload: Tuple[List[Tuple[int, Tuple]], Optional[int], Optional[float]],
) -> List[FactResult]:
    """Serve one chunk of ``(index, tuple)`` pairs in a worker process."""
    chunk, limit, timeout_seconds = payload
    return [
        explain_fact(
            _WORKER_SESSION, tup, index=index,
            limit=limit, timeout_seconds=timeout_seconds,
        )
        for index, tup in chunk
    ]


class ParallelProvenanceExplainer:
    """Shard a batch of target facts across a worker pool.

    Parameters
    ----------
    session:
        The parent :class:`~repro.core.session.ProvenanceSession`. Its
        (one-time) evaluation is forced here, in the parent, and the
        forked workers inherit the session with it.
    workers:
        Pool size; ``None`` or ``0`` means one per available core (capped
        at :data:`MAX_AUTO_WORKERS`) — every entry point (CLI
        ``--workers 0``, ``REPRO_BENCH_WORKERS=0``, the Python API)
        shares that meaning. ``1`` selects the serial path.
    chunk_size:
        Tuples per work unit. Small chunks approximate work stealing —
        workers finishing early pull more — at the price of a little more
        queue traffic. Default: about four chunks per worker.

    Workers are always forked: only ``fork`` hands them the parent's
    session without pickling it. Where the platform lacks it the
    explainer serves the batch serially.
    """

    def __init__(
        self,
        session: ProvenanceSession,
        workers: Optional[int] = None,
        chunk_size: Optional[int] = None,
    ):
        self.session = session
        self.workers = default_worker_count() if not workers else max(1, workers)
        self.chunk_size = chunk_size

    # -- public API ---------------------------------------------------------

    def explain_batch(
        self,
        tuples: Optional[Sequence[Tuple]] = None,
        limit: Optional[int] = None,
        timeout_seconds: Optional[float] = None,
    ) -> BatchResult:
        """Explain every tuple of the batch; results in input order.

        ``tuples=None`` serves every answer of ``Q(D)`` (sorted). The
        parent always evaluates first — serial and parallel paths share
        that cost identically — then the per-fact work is either looped
        in-process or sharded over the pool.
        """
        eval_start = time.perf_counter()
        self.session.evaluation  # force the one-time evaluation in the parent
        evaluation_seconds = time.perf_counter() - eval_start
        if tuples is None:
            tuples = self.session.answers()
        tuples = [tuple(t) for t in tuples]

        workers = min(self.workers, max(1, len(tuples)))
        if workers <= 1:
            reason = None if self.workers <= 1 else "batch smaller than two tuples"
            return self._serial(
                tuples, limit, timeout_seconds, evaluation_seconds, reason
            )
        return self._pooled(tuples, limit, timeout_seconds, workers, evaluation_seconds)

    # -- execution paths ----------------------------------------------------

    def _effective_chunk_size(self, n: int, workers: int) -> int:
        if self.chunk_size is not None:
            return max(1, self.chunk_size)
        # ~4 chunks per worker: coarse enough to amortize IPC, fine enough
        # that one skewed closure does not serialize the tail.
        return max(1, -(-n // (workers * 4)))

    def _serial(
        self,
        tuples: List[Tuple],
        limit: Optional[int],
        timeout_seconds: Optional[float],
        evaluation_seconds: float,
        reason: Optional[str],
    ) -> BatchResult:
        started = time.perf_counter()
        results = [
            explain_fact(
                self.session, tup, index=index,
                limit=limit, timeout_seconds=timeout_seconds,
            )
            for index, tup in enumerate(tuples)
        ]
        return BatchResult(
            results=results,
            workers=1,
            chunk_size=len(tuples) or 1,
            total_seconds=time.perf_counter() - started,
            evaluation_seconds=evaluation_seconds,
            fallback_reason=reason,
        )

    def _pooled(
        self,
        tuples: List[Tuple],
        limit: Optional[int],
        timeout_seconds: Optional[float],
        workers: int,
        evaluation_seconds: float,
    ) -> BatchResult:
        # Imported here, where the pool forks, so that a daemon which never
        # runs a pooled batch never loads it.
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            return self._serial(
                tuples, limit, timeout_seconds, evaluation_seconds,
                "start method 'fork' unavailable",
            )
        started = time.perf_counter()
        chunk_size = self._effective_chunk_size(len(tuples), workers)
        tasks = list(enumerate(tuples))
        payloads = [
            (tasks[offset : offset + chunk_size], limit, timeout_seconds)
            for offset in range(0, len(tasks), chunk_size)
        ]
        results: List[FactResult] = []
        with _FORK_LOCK:
            # A forked child receives initargs in memory, never pickled.
            pool = multiprocessing.get_context("fork").Pool(
                processes=workers,
                initializer=_init_worker,
                initargs=(self.session,),
            )
        with pool:
            # chunksize=1 keeps the pool's own batching out of the way:
            # each worker pulls exactly one payload at a time, which is
            # the work-stealing behavior for skewed closure sizes.
            for part in pool.imap_unordered(_run_chunk, payloads, chunksize=1):
                results.extend(part)
        results.sort(key=lambda r: r.index)
        return BatchResult(
            results=results,
            workers=workers,
            chunk_size=chunk_size,
            total_seconds=time.perf_counter() - started,
            evaluation_seconds=evaluation_seconds,
        )
