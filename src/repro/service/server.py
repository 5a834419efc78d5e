"""The provenance service daemon: request dispatcher plus transports.

:class:`Dispatcher` is the request envelope both daemon topologies share:
decode a line, check its op, answer every failure in-protocol, count.
:class:`ProvenanceService` is the transport-independent heart: it owns a
:class:`~repro.service.registry.SessionRegistry` and turns one request
object into one response object. :class:`DaemonService`, the one a
``repro serve`` process runs, also keeps the cyclic garbage collector
off its warm sessions by freezing its heap between requests. Two
transports carry a dispatcher:

* :class:`TCPServiceServer` — the one TCP front-end, speaking
  newline-delimited JSON for ``serve``, ``serve --workers N``,
  :func:`~repro.service.client.local_service` and
  :func:`~repro.service.client.local_sharded_service`. Each client
  connection gets its own thread, which reads request lines under
  :data:`MAX_LINE_BYTES`, serves them in order and writes the responses.
  In the single-process daemon that thread runs the request itself, at
  most ``threads`` requests at once across all connections; under
  ``--workers N`` it hands the line to the
  :class:`~repro.service.shard.ShardRouter`.
* :func:`serve_stdio` — the same protocol over stdin/stdout for
  single-client scripting and tests (``python -m repro serve --stdio``).

Concurrency contract
--------------------

Every session-touching operation runs under that session's reentrant
lock (:attr:`ProvenanceSession.lock`), so concurrent requests against one
warm session serialize their cache fills instead of racing, while
requests against *different* sessions proceed in parallel. Responses are
stamped with the session ``version`` read inside the lock: a client
interleaving ``update`` and read traffic can attribute every answer to
the exact database state that produced it. Large ``batch`` requests fork
worker processes that inherit the session
(:meth:`ProvenanceSession.explain_batch` with workers) while the request
holds that lock, so every worker serves the version the response is
stamped with; the fork moment itself is serialized process-wide by
:data:`repro.core.parallel._FORK_LOCK`.
"""

from __future__ import annotations

import gc
import socketserver
import sys
import threading
import time
from typing import Dict, List, Optional, TextIO, Tuple, Union

from ..core.decision import TREE_CLASSES
from ..core.parallel import PARALLEL_BATCH_THRESHOLD
from ..datalog.database import Delta
from ..datalog.io import delta_from_lines
from ..datalog.parser import parse_database
from .protocol import (
    OPS,
    PROTOCOL_VERSION,
    ServiceError,
    decode_request,
    encode,
    error_response,
    ok_response,
    render_member,
    render_members,
    session_address,
    tuple_from_json,
)
from .registry import SessionEntry, SessionRegistry

#: Default bound on requests executing at once in one daemon process.
DEFAULT_DISPATCH_THREADS = 8

#: Default cap on tuples in one ``batch`` request. A batch holds the
#: session lock for its whole run, so an unbounded request is a
#: denial-of-service on every other client of that session; oversized
#: batches are rejected with ``bad-request`` and the client splits them.
DEFAULT_MAX_BATCH_TUPLES = 10_000

#: Byte limit of one TCP request line, newline excluded. 64 MiB covers
#: inline databases and a request at the batch cap; a longer line gets
#: one ``parse-error`` and is skipped, so no connection buffers more.
MAX_LINE_BYTES = 2 ** 26

#: Poll interval of :meth:`TCPServiceServer.serve_in_thread`'s accept
#: loop. ``shutdown()`` waits up to one interval, so this bounds every
#: in-process teardown (``local_service``).
THREAD_POLL_SECONDS = 0.05


def _preload_handler_modules() -> None:
    """Import everything the handlers and forked workers load lazily.

    A daemon forks batch pools from a *threaded* process; a child forked
    while another dispatcher thread holds the interpreter's import lock
    would deadlock inside its own first import. Importing every lazy
    handler dependency once, before serving begins, removes that window.
    Runs at service construction (not module import) so merely importing
    this module — e.g. the CLI reading a default constant — stays cheap.
    """
    from ..core import decision  # noqa: F401
    from ..core import enumerator  # noqa: F401
    from ..core import incremental  # noqa: F401
    from ..core import minimal  # noqa: F401
    from ..core import parallel  # noqa: F401
    from ..harness import runner  # noqa: F401


def _answer_count(session) -> int:
    """``|Q(D)|`` without materializing and sorting the answer list."""
    return len(session.model.relation(session.query.answer_predicate))


def _require_tuple(request: Dict):
    """The request's ``tuple`` field as a Python tuple (``bad-request``)."""
    if "tuple" not in request:
        raise ServiceError("bad-request", "request needs a 'tuple' field")
    return tuple_from_json(request["tuple"])


def _optional_number(request: Dict, name: str):
    """A numeric field or ``None`` (``bad-request`` on wrong type)."""
    value = request.get(name)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ServiceError("bad-request", f"{name!r} must be a number")
    return value


def _parse_fact_texts(texts, label: str) -> List:
    """Parse a JSON array of ``"fact."`` strings (``bad-request``)."""
    if not isinstance(texts, (list, tuple)):
        raise ServiceError("bad-request", f"{label!r} must be a JSON array")
    facts: List = []
    for text in texts:
        if not isinstance(text, str):
            raise ServiceError("bad-request", f"{label!r} entries must be strings")
        try:
            facts.extend(parse_database(text))
        except Exception as exc:
            raise ServiceError("bad-request", f"bad fact in {label!r} ({exc}): {text}")
    return facts


class Dispatcher:
    """The request envelope both daemon topologies share.

    :meth:`handle_line` decodes a line, rejects an unknown op, runs the
    op and turns every failure into an error response, never an
    exception; each decoded request is counted once in
    :attr:`requests_served`. :class:`ProvenanceService` serves every op
    from its own registry; :class:`~repro.service.shard.ShardRouter`
    serves ``ping``, ``shutdown`` and pool-wide ``stats`` itself and
    forwards the rest to the worker process owning the session.
    """

    def __init__(self) -> None:
        self.started_at = time.time()
        self.requests_served = 0
        self._counter_lock = threading.Lock()
        self._shutdown = threading.Event()

    @property
    def shutdown_requested(self) -> bool:
        """Whether a ``shutdown`` request has been served."""
        return self._shutdown.is_set()

    def serve_line(self, line: str, conns: Dict) -> str:
        """One line from a TCP connection, served on that connection's thread.

        ``conns`` is the connection's own state between its requests;
        the front-end closes every value in it when the client leaves.
        """
        return self.handle_line(line, conns)

    def handle_line(self, line: str, conns: Optional[Dict] = None) -> str:
        """One request line in, one response line out (never raises)."""
        try:
            request = decode_request(line)
        except ServiceError as exc:
            return encode(exc.as_response(None))
        response = self._respond(request, line, conns)
        return response if isinstance(response, str) else encode(response)

    def _respond(
        self, request: Dict, line: Optional[str], conns: Optional[Dict]
    ) -> Union[Dict, str]:
        request_id = request.get("id")
        op = request.get("op")
        try:
            if not isinstance(op, str) or op not in OPS:
                known = ", ".join(sorted(OPS))
                raise ServiceError("unknown-op", f"unknown op {op!r}; known: {known}")
            response = self._serve(op, request, line, conns)
        except ServiceError as exc:
            response = exc.as_response(request_id)
        except Exception as exc:  # a bug, not a client error: still answer
            response = error_response(
                request_id, "internal-error", f"{type(exc).__name__}: {exc}"
            )
        with self._counter_lock:
            self.requests_served += 1
        return response

    def _serve(
        self, op: str, request: Dict, line: Optional[str], conns: Optional[Dict]
    ) -> Union[Dict, str]:
        """Run one known op: a response object, or a response line as is."""
        return getattr(self, "_op_" + op)(request)

    def close(self) -> None:
        """Release what serving holds (the router's worker processes)."""

    def _op_ping(self, request: Dict) -> Dict:
        result = {
            "pong": True,
            "protocol": PROTOCOL_VERSION,
            "uptime_seconds": time.time() - self.started_at,
        }
        return ok_response(request.get("id"), "ping", result)

    def _op_shutdown(self, request: Dict) -> Dict:
        self._shutdown.set()
        return ok_response(request.get("id"), "shutdown", {"stopping": True})


class ProvenanceService(Dispatcher):
    """Transport-independent dispatcher over a session registry.

    It leaves the host process's garbage collector alone, so it is the
    service to embed; :class:`DaemonService` adds the heap freeze of a
    process that owns its heap.

    Parameters
    ----------
    registry:
        The session registry to serve from (a default-budget one is
        created when omitted).
    threads:
        The bound on requests executing at once across all TCP
        connections; each connection's thread waits for a free slot.
    batch_workers:
        Worker processes for ``batch`` requests that do not pin their own
        ``workers`` field and meet the parallel threshold (``1`` keeps
        every batch serial in-process; ``0`` means one per core).
    parallel_threshold:
        Minimum batch size that fans out across the worker pool.
    max_batch_tuples:
        Upper bound on tuples one ``batch`` request may carry (inline or
        via ``all_answers``); larger requests are rejected with
        ``bad-request`` before any work is done.
    """

    def __init__(
        self,
        registry: Optional[SessionRegistry] = None,
        threads: Optional[int] = None,
        batch_workers: int = 1,
        parallel_threshold: int = PARALLEL_BATCH_THRESHOLD,
        max_batch_tuples: int = DEFAULT_MAX_BATCH_TUPLES,
    ):
        _preload_handler_modules()
        super().__init__()
        self.registry = registry if registry is not None else SessionRegistry()
        self.batch_workers = batch_workers
        self.parallel_threshold = max(1, parallel_threshold)
        self.max_batch_tuples = max(1, max_batch_tuples)
        # None means default; an explicit value is clamped to >= 1 so
        # --threads 0 never silently becomes the 8-thread default.
        if threads is None:
            threads = DEFAULT_DISPATCH_THREADS
        self._running = threading.BoundedSemaphore(max(1, threads))

    # -- dispatch -------------------------------------------------------------

    def serve_line(self, line: str, conns: Dict) -> str:
        """One line from a TCP connection, run once a ``threads`` slot is free."""
        with self._running:
            return self.handle_line(line)

    def handle_request(self, request: Dict) -> Dict:
        """One request object in, one response object out (never raises)."""
        return self._respond(request, None, None)

    # -- session resolution ----------------------------------------------------

    def _entry_for(self, request: Dict) -> Tuple[SessionEntry, bool]:
        """Resolve the session a request addresses (digest or inline texts)."""
        digest, texts = session_address(request)
        if digest is not None:
            return self.registry.get(digest), False
        program, database, answer = texts
        return self.registry.acquire(program, database, answer)

    # -- operations ------------------------------------------------------------

    def _op_open(self, request: Dict) -> Dict:
        entry, admitted = self._entry_for(request)
        with entry.lock:
            result = {
                "admitted": admitted,
                "rehydrated": entry.rehydrated,
                "answer": entry.answer,
                "answers": _answer_count(entry.session),
                "fact_count": len(entry.session.database),
                "cost_bytes": entry.cost_bytes,
                "admission_seconds": entry.admission_seconds,
            }
            version = entry.session.version
        return ok_response(
            request.get("id"), "open", result, session=entry.digest, version=version
        )

    def _op_answers(self, request: Dict) -> Dict:
        entry, _ = self._entry_for(request)
        sample = _optional_number(request, "sample")
        seed = _optional_number(request, "seed")
        with entry.lock:
            answers = entry.session.answers()
            total = len(answers)
            if sample is not None:
                # Server-side sampling with the harness's own seeded
                # kernel: experiments get their handful of tuples
                # without shipping the whole answer relation.
                from ..harness.runner import sample_from_answers

                answers = sample_from_answers(
                    answers,
                    count=int(sample),
                    seed=7 if seed is None else int(seed),
                )
            payload = [list(tup) for tup in answers]
            version = entry.session.version
        return ok_response(
            request.get("id"),
            "answers",
            {"answers": payload, "total": total},
            session=entry.digest,
            version=version,
        )

    def _op_why(self, request: Dict) -> Dict:
        entry, _ = self._entry_for(request)
        tup = _require_tuple(request)
        limit = _optional_number(request, "limit")
        timeout = _optional_number(request, "timeout")
        with entry.lock:
            session = entry.session
            try:
                is_answer = session.is_answer(tup)
            except ValueError as exc:
                raise ServiceError("bad-request", str(exc))
            members = session.why(
                tup,
                limit=None if limit is None else int(limit),
                timeout_seconds=timeout,
            )
            result = {
                "is_answer": is_answer,
                "members": render_members(members),
            }
            version = session.version
        return ok_response(
            request.get("id"), "why", result, session=entry.digest, version=version
        )

    def _op_decide(self, request: Dict) -> Dict:
        entry, _ = self._entry_for(request)
        tup = _require_tuple(request)
        if "subset" not in request:
            raise ServiceError("bad-request", "request needs a 'subset' field")
        subset = _parse_fact_texts(request["subset"], "subset")
        tree_class = request.get("tree_class", "unambiguous")
        if tree_class not in TREE_CLASSES:
            raise ServiceError(
                "bad-request",
                f"unknown tree_class {tree_class!r}; known: {', '.join(TREE_CLASSES)}",
            )
        with entry.lock:
            try:
                verdict = entry.session.decide(tup, subset, tree_class=tree_class)
            except ValueError as exc:
                raise ServiceError("bad-request", str(exc))
            version = entry.session.version
        return ok_response(
            request.get("id"),
            "decide",
            {"member": verdict, "tree_class": tree_class},
            session=entry.digest,
            version=version,
        )

    def _op_smallest(self, request: Dict) -> Dict:
        entry, _ = self._entry_for(request)
        tup = _require_tuple(request)
        with entry.lock:
            try:
                member = entry.session.smallest_member(tup)
            except ValueError as exc:
                raise ServiceError("bad-request", str(exc))
            result = {
                "is_answer": member is not None,
                "member": None if member is None else render_member(member),
            }
            version = entry.session.version
        return ok_response(
            request.get("id"), "smallest", result, session=entry.digest, version=version
        )

    def _op_minimal(self, request: Dict) -> Dict:
        entry, _ = self._entry_for(request)
        tup = _require_tuple(request)
        limit = _optional_number(request, "limit")
        with entry.lock:
            try:
                members = entry.session.minimal_members(
                    tup, limit=None if limit is None else int(limit)
                )
            except ValueError as exc:
                raise ServiceError("bad-request", str(exc))
            result = {
                "is_answer": bool(members),
                "members": render_members(members),
            }
            version = entry.session.version
        return ok_response(
            request.get("id"), "minimal", result, session=entry.digest, version=version
        )

    def _op_batch(self, request: Dict) -> Dict:
        entry, _ = self._entry_for(request)
        limit = _optional_number(request, "limit")
        timeout = _optional_number(request, "timeout")
        chunk_size = _optional_number(request, "chunk_size")
        with entry.lock:
            session = entry.session
            if request.get("all_answers"):
                tuples = session.answers()
                if len(tuples) > self.max_batch_tuples:
                    raise ServiceError(
                        "bad-request",
                        f"batch of {len(tuples)} tuples exceeds the server cap "
                        f"of {self.max_batch_tuples}; split the request",
                    )
            else:
                raw = request.get("tuples")
                if not isinstance(raw, (list, tuple)):
                    raise ServiceError(
                        "bad-request",
                        "batch needs 'tuples' (array of arrays) or 'all_answers'",
                    )
                if len(raw) > self.max_batch_tuples:
                    raise ServiceError(
                        "bad-request",
                        f"batch of {len(raw)} tuples exceeds the server cap "
                        f"of {self.max_batch_tuples}; split the request",
                    )
                tuples = [tuple_from_json(values) for values in raw]
            workers = _optional_number(request, "workers")
            if workers is None:
                workers = (
                    self.batch_workers
                    if len(tuples) >= self.parallel_threshold
                    else 1
                )
            batch = session.explain_batch(
                tuples,
                workers=int(workers),
                limit=None if limit is None else int(limit),
                timeout_seconds=timeout,
                chunk_size=None if chunk_size is None else int(chunk_size),
            )
            result = {
                "workers": batch.workers,
                "parallel": batch.parallel,
                "fallback_reason": batch.fallback_reason,
                "chunk_size": batch.chunk_size,
                "total_seconds": batch.total_seconds,
                "results": [
                    {
                        "tuple": list(r.tuple_value),
                        "is_answer": r.is_answer,
                        "error": r.error,
                        "members": render_members(r.members),
                        "closure_seconds": r.closure_seconds,
                        "formula_seconds": r.formula_seconds,
                        "delays": r.delays,
                        "exhausted": r.exhausted,
                        "seconds": r.seconds,
                    }
                    for r in batch.results
                ],
            }
            version = session.version
        return ok_response(
            request.get("id"), "batch", result, session=entry.digest, version=version
        )

    def _op_update(self, request: Dict) -> Dict:
        entry, _ = self._entry_for(request)
        lines = request.get("lines", [])
        if not isinstance(lines, (list, tuple)):
            raise ServiceError("bad-request", "'lines' must be a JSON array")
        if not all(isinstance(line, str) for line in lines):
            raise ServiceError("bad-request", "'lines' entries must be strings")
        try:
            delta = delta_from_lines(lines)
        except ValueError as exc:
            raise ServiceError("bad-request", str(exc))
        if "insert" in request or "delete" in request:
            inserted = list(delta.inserted) + _parse_fact_texts(
                request.get("insert", []), "insert"
            )
            deleted = list(delta.deleted) + _parse_fact_texts(
                request.get("delete", []), "delete"
            )
            try:
                delta = Delta(inserted=frozenset(inserted), deleted=frozenset(deleted))
            except ValueError as exc:
                raise ServiceError("bad-request", str(exc))
        if delta.is_empty():
            raise ServiceError(
                "bad-request", "update needs 'lines', 'insert', or 'delete' facts"
            )
        with entry.lock:
            session = entry.session
            try:
                receipt = session.update(delta)
            except ValueError as exc:  # schema/type validation rejects cleanly
                raise ServiceError("bad-request", str(exc))
            # Durability point: the committed delta reaches the fsync'd
            # log under the session lock (order = version order) and
            # before the response below is sent. No-op if no store.
            self.registry.record_update(entry, receipt)
            result = {
                "version": receipt.version,
                "inserted": len(receipt.effective.inserted),
                "deleted": len(receipt.effective.deleted),
                "changed_facts": receipt.dirty_fact_count(),
                "invalidated_closures": receipt.invalidated_closures,
                "retained_closures": receipt.retained_closures,
                "seconds": receipt.seconds,
                "fact_count": len(session.database),
                "answers": _answer_count(session),
            }
            version = session.version
        self.registry.refresh_cost(entry)
        return ok_response(
            request.get("id"), "update", result, session=entry.digest, version=version
        )

    def _op_stats(self, request: Dict) -> Dict:
        result = self.registry.stats()
        result["protocol"] = PROTOCOL_VERSION
        result["uptime_seconds"] = time.time() - self.started_at
        # A single-process daemon has no shard layer; the router's
        # pool-wide stats carry its worker table here, so clients can
        # always read result["sharding"] to tell the two apart.
        result["sharding"] = None
        result["gc"] = {
            "frozen": gc.get_freeze_count(),
            "collections": [gen["collections"] for gen in gc.get_stats()],
        }
        with self._counter_lock:
            result["requests_served"] = self.requests_served
        digest = request.get("session")
        session_field = None
        version = None
        if digest is not None:
            if not isinstance(digest, str):
                raise ServiceError("bad-request", "'session' must be a string digest")
            # peek, not get: monitoring must not LRU-touch the entry or
            # inflate the hit counters it is reporting.
            entry = self.registry.peek(digest)
            described = entry.describe()
            result["session"] = described
            result["session_stats"] = entry.session.stats.as_dict()
            version = described["version"]
            session_field = entry.digest
        return ok_response(
            request.get("id"), "stats", result, session=session_field, version=version
        )


class DaemonService(ProvenanceService):
    """The :class:`ProvenanceService` of a ``repro serve`` process.

    Such a process owns its heap, so it keeps CPython's cyclic collector
    off its warm sessions: whenever the last request in flight finishes,
    one collection reclaims the cyclic garbage that requests left, and
    ``gc.freeze()`` moves every surviving object (admitted sessions with
    their model, trace, GRI, closures, encodings and solvers) to the
    permanent generation, which later collections skip. A frozen object
    is never examined again, so what outlives a request must be freed by
    reference counting alone: session state stays acyclic
    (``tests/test_service_gc.py``). While another request is in flight
    nothing is frozen, since its objects may still become garbage. In
    process, serve through a plain :class:`ProvenanceService`, which
    leaves the host's collector alone.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._in_flight = 0
        self._in_flight_lock = threading.Lock()

    def _respond(
        self, request: Dict, line: Optional[str], conns: Optional[Dict]
    ) -> Union[Dict, str]:
        with self._in_flight_lock:
            self._in_flight += 1
        try:
            return super()._respond(request, line, conns)
        finally:
            # Under the lock, so no request starts between the two calls.
            with self._in_flight_lock:
                self._in_flight -= 1
                if not self._in_flight:
                    gc.collect()
                    gc.freeze()


# -- transports ---------------------------------------------------------------


class _ServiceHandler(socketserver.StreamRequestHandler):
    """One connection on its own thread: read, serve and answer lines in order."""

    def handle(self) -> None:  # noqa: D102 - socketserver plumbing
        service: Dispatcher = self.server.service  # type: ignore[attr-defined]
        conns: Dict = {}
        try:
            while True:
                raw = self.rfile.readline(MAX_LINE_BYTES + 1)
                if not raw:
                    return
                over_long = len(raw) > MAX_LINE_BYTES and not raw.endswith(b"\n")
                if over_long:
                    response = encode(error_response(
                        None, "parse-error",
                        f"request line longer than the {MAX_LINE_BYTES}-byte limit",
                    ))
                else:
                    line = raw.decode("utf-8", errors="replace").strip()
                    if not line:
                        continue
                    response = service.serve_line(line, conns)
                self.wfile.write(response.encode("utf-8") + b"\n")
                if over_long:
                    # Answered before the line ends: a client may wait
                    # for the reply before sending the rest.
                    self._skip_rest_of_line()
                elif service.shutdown_requested:
                    self.server.initiate_shutdown()  # type: ignore[attr-defined]
                    return
        except (BrokenPipeError, ConnectionResetError):
            return
        finally:
            for conn in conns.values():
                conn.close()

    def _skip_rest_of_line(self) -> None:
        """Read past an over-long line's newline, one bounded chunk at a time."""
        while True:
            chunk = self.rfile.readline(MAX_LINE_BYTES)
            if not chunk or chunk.endswith(b"\n"):
                return


class TCPServiceServer(socketserver.ThreadingTCPServer):
    """The NDJSON-over-TCP front-end: one thread per connection.

    Serves either dispatcher: a :class:`ProvenanceService`, or the
    sharded daemon's :class:`~repro.service.shard.ShardRouter`. Bind to
    port ``0`` for an ephemeral port (read it back from :attr:`port` —
    the CLI prints it on stderr). ``serve_in_thread`` starts the accept
    loop on a daemon thread and returns it, the shape the tests, the
    harness round-trip, and :func:`local_service` use.
    """

    allow_reuse_address = True
    daemon_threads = True

    def __init__(
        self,
        service: Dispatcher,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.service = service
        super().__init__((host, port), _ServiceHandler)

    @property
    def host(self) -> str:
        """The bound host address."""
        return self.server_address[0]

    @property
    def port(self) -> int:
        """The bound port (useful after binding to port 0)."""
        return self.server_address[1]

    def serve_in_thread(self) -> threading.Thread:
        """Run the accept loop on a daemon thread; returns the thread."""
        thread = threading.Thread(
            target=self.serve_forever,
            kwargs={"poll_interval": THREAD_POLL_SECONDS},
            name="repro-service-accept",
            daemon=True,
        )
        thread.start()
        return thread

    def initiate_shutdown(self) -> None:
        """Stop the accept loop from a handler thread (non-blocking)."""
        threading.Thread(target=self.shutdown, daemon=True).start()


def serve_stdio(
    service: ProvenanceService,
    stdin: Optional[TextIO] = None,
    stdout: Optional[TextIO] = None,
) -> int:
    """The stdio transport: NDJSON requests in, NDJSON responses out.

    Single-client by construction (there is one stdin), requests handled
    strictly in order. Returns a process exit status: 0 on a clean end of
    input or ``shutdown`` request.
    """
    stdin = sys.stdin if stdin is None else stdin
    stdout = sys.stdout if stdout is None else stdout
    for raw in stdin:
        line = raw.strip()
        if not line:
            continue
        print(service.handle_line(line), file=stdout, flush=True)
        if service.shutdown_requested:
            break
    return 0
