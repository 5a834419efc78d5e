"""The live-session registry: content-addressed admission with LRU eviction.

The daemon's working set is a map ``content digest -> ProvenanceSession``.
The digest is computed over the *canonicalized* ``(program, database,
answer)`` triple — rules and facts are parsed and re-rendered in sorted
order before hashing — so two clients sending the same query in
different rule order, fact order, or whitespace share one warm session
instead of evaluating twice.

Lifecycle of an entry:

* **admission** — a miss parses the texts, builds the session, and pays
  the one-time evaluation *up front* (so the first real request is
  already warm and the entry's byte cost is measurable). The evaluation
  runs outside the registry lock; a per-digest in-flight marker makes
  concurrent clients asking for the same new digest wait for the one
  evaluation and hit the finished entry, while traffic on other digests
  proceeds untouched.
* **warm hit** — a request addressing a live digest moves the entry to
  the most-recently-used end and bumps its hit counter. The digest is
  the session's *admission address*, not a running checksum: ``update``
  requests advance the session in place under it (every client sees the
  maintained state — the design goal), so after updates a warm hit on
  the original texts returns the updated session, signalled by its
  non-zero version.
* **eviction** — after every admission (and every cost refresh following
  an ``update``), least-recently-used entries are dropped while the
  registry exceeds ``max_sessions`` or the byte budget. The newest entry
  is never evicted by the byte budget, so one oversized session still
  serves rather than thrashing. Eviction drops the registry's reference;
  requests already holding the entry finish normally. Without a store,
  the next request for that digest gets ``unknown-session`` — clients
  re-admit by re-sending the texts.
* **rehydration** — with a :class:`~repro.service.store.SnapshotStore`
  attached, every cold admission starts the digest's log with the
  admitted texts, and every committed ``update`` is appended to it,
  fsync'd before the response is sent, so the log is always current and
  eviction writes nothing. Both admission paths — inline texts *and* a
  bare digest — check the store before evaluating, rebuilding the
  session from its log (the admitted database plus the logged deltas,
  evaluated once). A hard daemon kill loses nothing that was
  acknowledged. Any disk-state damage degrades to a cold admission with
  a logged reason, never an error to the client.

Byte accounting uses
:meth:`~repro.core.session.ProvenanceSession.estimated_bytes`, an
estimate from the session's fact and trace-instance counts, refreshed
after every ``update`` since deltas change the footprint.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.session import ProvenanceSession
from ..datalog.database import Database
from ..datalog.io import delta_to_lines
from ..datalog.parser import parse_database, parse_program
from ..datalog.program import DatalogQuery
from .protocol import ServiceError
from .store import ACYCLICITY, SnapshotStore, logger as store_logger

#: Default cap on live sessions (LRU beyond this).
DEFAULT_MAX_SESSIONS = 8

#: Default byte budget across all live sessions (256 MiB).
DEFAULT_MAX_BYTES = 256 * 1024 * 1024


@dataclass
class SessionEntry:
    """One admitted session plus its registry bookkeeping."""

    digest: str
    session: ProvenanceSession
    answer: str
    cost_bytes: int = 0
    hits: int = 0
    admitted_at: float = 0.0
    last_used_at: float = 0.0
    admission_seconds: float = 0.0
    #: Whether this entry was rebuilt from the durable store's log rather
    #: than admitted from the request's texts.
    rehydrated: bool = False

    @property
    def lock(self) -> "threading.RLock":
        """The per-session lock (the session's own reentrant guard)."""
        return self.session.lock

    def describe(self) -> Dict:
        """A JSON-ready summary for the ``stats`` operation.

        Tries the session lock briefly (reentrant — callers already
        holding it succeed immediately) so the reported version and fact
        count belong to one consistent state. If the session is busy —
        a long batch or an update in flight — the fields are read
        without the lock and flagged ``"busy": true`` rather than
        stalling a monitoring request behind the work.
        """
        acquired = self.lock.acquire(timeout=0.05)
        try:
            version = self.session.version
            fact_count = len(self.session.database)
        finally:
            if acquired:
                self.lock.release()
        summary = {
            "digest": self.digest,
            "answer": self.answer,
            "version": version,
            "fact_count": fact_count,
            "cost_bytes": self.cost_bytes,
            "hits": self.hits,
            "admitted_at": self.admitted_at,
            "last_used_at": self.last_used_at,
            "admission_seconds": self.admission_seconds,
            "rehydrated": self.rehydrated,
        }
        if not acquired:
            summary["busy"] = True
        return summary


def canonicalize_query(
    program_text: str,
    database_text: str,
    answer: Optional[str] = None,
) -> Tuple[DatalogQuery, Database, str]:
    """Parse wire texts into a ``(query, database, answer)`` triple.

    The answer predicate defaults to the program's only intensional
    predicate (the CLI convention). Raises :class:`ServiceError` with
    ``program-error`` for unparsable texts and ``bad-request`` for a
    missing/unknown answer predicate.
    """
    try:
        program = parse_program(program_text)
    except Exception as exc:
        raise ServiceError("program-error", f"cannot parse program: {exc}")
    try:
        database = Database(parse_database(database_text))
    except Exception as exc:
        raise ServiceError("program-error", f"cannot parse database: {exc}")
    if answer is None:
        intensional = sorted(program.idb)
        if len(intensional) != 1:
            raise ServiceError(
                "bad-request",
                f"answer required: program has intensional predicates {intensional}",
            )
        answer = intensional[0]
    try:
        query = DatalogQuery(program, answer)
    except ValueError as exc:
        raise ServiceError("bad-request", str(exc))
    return query, database, answer


def content_digest(query: DatalogQuery, database: Database) -> str:
    """The canonical content address of a ``(program, database)`` pair.

    Rules and facts are rendered sorted, so the digest is a pure function
    of the *sets* (plus answer predicate), not of the wire texts that
    produced them.
    """
    payload = "\n".join(
        [
            # Once the evaluation method and the encoding, both settable.
            # Kept constant so that digests do not change: logs on disk
            # and clients holding a digest still address their sessions.
            "seminaive",
            ACYCLICITY,
            query.answer_predicate,
            "\n".join(sorted(str(rule) for rule in query.program.rules)),
            "\n".join(sorted(str(fact) for fact in database)),
        ]
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def routing_digest(
    program_text: str,
    database_text: str,
    answer: Optional[str] = None,
) -> str:
    """The digest the given wire texts admit under: canonicalize + hash.

    The shard router routes inline-text requests with this — it has
    no registry of its own, but must compute *exactly* the address the
    owning worker's registry will admit under. Raises the same
    canonical errors as admission would (``program-error`` /
    ``bad-request``), which is what makes routing failures
    byte-identical to single-process failures.
    """
    query, database, _ = canonicalize_query(program_text, database_text, answer)
    return content_digest(query, database)


class SessionRegistry:
    """Content-addressed LRU registry of live provenance sessions.

    Parameters
    ----------
    max_sessions:
        Hard cap on live entries (at least 1); LRU beyond it.
    max_bytes:
        Byte budget across all entries, ``None`` for unbounded. The
        most-recently-admitted entry is exempt (a single session larger
        than the whole budget still serves).
    store:
        A :class:`~repro.service.store.SnapshotStore` making sessions
        durable: cold admissions start a log with the admitted texts,
        updates append to it, fsync'd, and misses (in this process or
        after a restart) rebuild the session from its log. ``None`` (the
        default) keeps the registry purely in-memory.
    """

    def __init__(
        self,
        max_sessions: int = DEFAULT_MAX_SESSIONS,
        max_bytes: Optional[int] = DEFAULT_MAX_BYTES,
        store: Optional[SnapshotStore] = None,
    ):
        self.max_sessions = max(1, max_sessions)
        self.max_bytes = max_bytes
        self.store = store
        self.admissions = 0
        self.hits = 0
        self.evictions = 0
        self.rehydrations = 0
        self.persist_failures = 0
        self._entries: "OrderedDict[str, SessionEntry]" = OrderedDict()
        self._lock = threading.Lock()
        #: digest -> event for admissions in flight: lets concurrent
        #: requests for the same new digest wait for one evaluation
        #: while everything else proceeds under a free registry lock.
        self._admitting: Dict[str, threading.Event] = {}

    # -- addressing ----------------------------------------------------------

    def digest_for(
        self,
        program_text: str,
        database_text: str,
        answer: Optional[str] = None,
    ) -> str:
        """The digest the given wire texts would be admitted under."""
        return routing_digest(program_text, database_text, answer)

    # -- admission / lookup --------------------------------------------------

    def acquire(
        self,
        program_text: str,
        database_text: str,
        answer: Optional[str] = None,
    ) -> Tuple[SessionEntry, bool]:
        """Admit-or-reuse the session for the given wire texts.

        Returns ``(entry, admitted)`` — ``admitted`` is ``True`` for an
        admission (a registry miss served by evaluation *or* by store
        rehydration — ``entry.rehydrated`` tells them apart), ``False``
        for a warm hit. The evaluation itself runs *outside* the
        registry lock (warm hits on other digests never wait behind an
        admission); requests racing to admit the same new digest wait on
        a per-digest event and hit the finished entry, so each content
        digest still evaluates at most once.
        """
        query, database, answer = canonicalize_query(
            program_text, database_text, answer
        )
        digest = content_digest(query, database)
        hit = self._await_admission_slot(digest)
        if hit is not None:
            return hit, False
        try:
            entry = self._rehydrate_entry(digest, (query, database))
            if entry is None:
                entry = self._evaluate_entry(
                    query, database, answer, digest, program_text, database_text
                )
            self._install(entry)
            return entry, True
        finally:
            with self._lock:
                event = self._admitting.pop(digest)
            event.set()

    def _await_admission_slot(self, digest: str) -> Optional[SessionEntry]:
        """Claim the right to admit *digest*, or return the live entry.

        Returns the entry on a warm hit (LRU-touched, hit-counted);
        ``None`` means this thread holds the per-digest admission slot
        and *must* release it (pop + set the event) when done.
        """
        while True:
            with self._lock:
                entry = self._entries.get(digest)
                if entry is not None:
                    self.hits += 1
                    self._touch(entry)
                    return entry
                pending = self._admitting.get(digest)
                if pending is None:
                    self._admitting[digest] = threading.Event()
                    return None  # this request performs the admission
            # Another request is admitting this digest: wait for it,
            # then re-check (its admission may also have failed —
            # in that case this request retries the admission itself).
            pending.wait()

    def _evaluate_entry(
        self,
        query: DatalogQuery,
        database: Database,
        answer: str,
        digest: str,
        program_text: str,
        database_text: str,
    ) -> SessionEntry:
        """Cold admission: build the session, pay the evaluation, persist."""
        started = time.perf_counter()
        try:
            session = ProvenanceSession(query, database)
        except ValueError as exc:
            raise ServiceError("bad-request", str(exc))
        session.evaluation  # cold admission pays the evaluation up front
        cost = session.estimated_bytes()
        self._persist_admission(digest, answer, program_text, database_text)
        now = time.time()
        return SessionEntry(
            digest=digest,
            session=session,
            answer=answer,
            cost_bytes=cost,
            admitted_at=now,
            last_used_at=now,
            admission_seconds=time.perf_counter() - started,
        )

    def _rehydrate_entry(
        self,
        digest: str,
        parsed: Optional[Tuple[DatalogQuery, Database]] = None,
    ) -> Optional[SessionEntry]:
        """Rebuild *digest* from the durable store, or ``None`` on a miss.

        *parsed* is the request's already-parsed ``(query, database)``
        on the inline-text path (see
        :meth:`~repro.service.store.SnapshotStore.rehydrate`). A miss is
        silent here (the store logs and counts its reason); the caller
        falls back to cold evaluation — the "never an error to the
        client" half of the recovery contract.
        """
        if self.store is None:
            return None
        started = time.perf_counter()
        try:
            session = self.store.rehydrate(digest, parsed=parsed)
        except Exception:
            # The store's own contract is to degrade, not raise; treat a
            # bug there as one more reason to fall back to evaluation.
            store_logger.exception("rehydration crashed for %s", digest)
            session = None
        if session is None:
            return None
        cost = session.estimated_bytes()
        now = time.time()
        with self._lock:
            self.rehydrations += 1
        return SessionEntry(
            digest=digest,
            session=session,
            answer=session.query.answer_predicate,
            cost_bytes=cost,
            admitted_at=now,
            last_used_at=now,
            admission_seconds=time.perf_counter() - started,
            rehydrated=True,
        )

    def _install(self, entry: SessionEntry) -> None:
        """Put a finished admission live and apply the budgets."""
        with self._lock:
            self._entries[entry.digest] = entry
            self.admissions += 1
            self._evict_over_budget()

    def _lookup_locked(self, digest: str) -> SessionEntry:
        entry = self._entries.get(digest)
        if entry is None:
            raise ServiceError(
                "unknown-session",
                f"no live session {digest!r} (never admitted, or evicted); "
                "re-send the program and database texts to re-admit",
            )
        return entry

    def get(self, digest: str) -> SessionEntry:
        """The live entry under *digest*, rehydrating from the store.

        Without a store (or on a store miss) an evicted or unknown
        digest raises ``unknown-session`` and the client re-admits by
        re-sending the texts. With a store, an evicted digest is
        transparently rebuilt from its log — eviction becomes a tier
        change instead of a contract break.
        """
        if self.store is None:
            with self._lock:
                entry = self._lookup_locked(digest)
                self.hits += 1
                self._touch(entry)
                return entry
        hit = self._await_admission_slot(digest)
        if hit is not None:
            return hit
        try:
            entry = self._rehydrate_entry(digest)
            if entry is None:
                with self._lock:
                    self._lookup_locked(digest)  # raises unknown-session
            self._install(entry)
            return entry
        finally:
            with self._lock:
                event = self._admitting.pop(digest)
            event.set()

    def peek(self, digest: str) -> SessionEntry:
        """Like :meth:`get`, but without LRU-touching or hit accounting.

        For introspection (the ``stats`` operation): monitoring must not
        perturb the eviction order or the hit-rate it reports.
        """
        with self._lock:
            return self._lookup_locked(digest)

    def refresh_cost(self, entry: SessionEntry) -> None:
        """Re-estimate an entry after an update and re-apply the budget.

        The estimate reads three sizes and needs no session lock: a
        concurrent update can only make it one update stale.
        """
        cost = entry.session.estimated_bytes()
        with self._lock:
            entry.cost_bytes = cost
            if entry.digest in self._entries:
                self._evict_over_budget()

    def evict(self, digest: str) -> bool:
        """Drop one entry by digest; returns whether it was live.

        With a store attached the digest stays rehydratable: its log is
        always current, so nothing is written on the way out.
        """
        with self._lock:
            entry = self._entries.pop(digest, None)
            if entry is not None:
                self.evictions += 1
        return entry is not None

    # -- accounting ----------------------------------------------------------

    def _touch(self, entry: SessionEntry) -> None:
        self._entries.move_to_end(entry.digest)
        entry.hits += 1
        entry.last_used_at = time.time()

    def _evict_over_budget(self) -> None:
        """Drop LRU entries past the budgets (under the registry lock)."""
        while len(self._entries) > self.max_sessions:
            self._entries.popitem(last=False)
            self.evictions += 1
        if self.max_bytes is not None:
            while (
                len(self._entries) > 1
                and self._total_bytes_locked() > self.max_bytes
            ):
                self._entries.popitem(last=False)
                self.evictions += 1

    # -- durability ----------------------------------------------------------

    def _persist_admission(
        self, digest: str, answer: str, program_text: str, database_text: str
    ) -> None:
        """Start the log of a freshly-evaluated session (best-effort).

        Failure (disk full, permissions) must not fail the admission —
        the daemon keeps serving from memory, counts the failure, and
        the digest simply is not restart-warm.
        """
        if self.store is None:
            return
        try:
            self.store.put_snapshot(digest, program_text, database_text, answer)
        except Exception:
            with self._lock:
                self.persist_failures += 1
            store_logger.exception("could not persist admission for %s", digest)

    def record_update(self, entry: SessionEntry, receipt) -> None:
        """Append one committed ``update`` to the entry's log, fsync'd.

        Called by the server *while still holding the session lock* and
        before the response is sent, so log order matches version order
        and an acknowledged update is always on disk. No-ops are not
        logged (they did not advance the version). If the append fails,
        the digest's log is invalidated outright: recovery then degrades
        to a cold admission instead of rehydrating a state older than
        one the client saw acknowledged.
        """
        if self.store is None or receipt.effective.is_empty():
            return
        try:
            self.store.append_wal(
                entry.digest, receipt.version, delta_to_lines(receipt.effective)
            )
        except Exception:
            with self._lock:
                self.persist_failures += 1
            store_logger.exception(
                "log append failed for %s; invalidating its durable state",
                entry.digest,
            )
            try:
                self.store.invalidate(entry.digest)
            except Exception:
                store_logger.exception("could not invalidate %s", entry.digest)

    def _total_bytes_locked(self) -> int:
        return sum(entry.cost_bytes for entry in self._entries.values())

    def total_bytes(self) -> int:
        """Current byte accounting across all live entries."""
        with self._lock:
            return self._total_bytes_locked()

    def entries(self) -> List[SessionEntry]:
        """Live entries, least-recently-used first."""
        with self._lock:
            return list(self._entries.values())

    def stats(self) -> Dict:
        """A JSON-ready snapshot of the registry for the ``stats`` op.

        Per-session summaries are taken *after* releasing the registry
        lock — ``describe`` needs each session's lock, and an update
        request holds a session lock while calling :meth:`record_update`
        (session lock → registry lock), so taking them in the opposite
        order here would be a lock-order inversion.
        """
        with self._lock:
            entries = list(self._entries.values())
            snapshot = {
                "session_count": len(entries),
                "max_sessions": self.max_sessions,
                "max_bytes": self.max_bytes,
                "bytes_in_use": sum(e.cost_bytes for e in entries),
                "admissions": self.admissions,
                "hits": self.hits,
                "evictions": self.evictions,
                "rehydrations": self.rehydrations,
                "persist_failures": self.persist_failures,
            }
        snapshot["sessions"] = [entry.describe() for entry in entries]
        snapshot["store"] = None if self.store is None else self.store.stats()
        return snapshot

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __repr__(self) -> str:
        return (
            f"SessionRegistry(sessions={len(self)}/{self.max_sessions}, "
            f"bytes={self.total_bytes()})"
        )
