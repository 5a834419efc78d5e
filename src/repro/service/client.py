"""A synchronous client for the provenance service daemon.

:class:`ServiceClient` speaks the newline-delimited JSON protocol over a
TCP connection: one request line out, one response line in. It is
deliberately thin — every method is a shaped :meth:`call` — so the wire
traffic it generates is exactly what ``docs/SERVICE.md`` documents and
what ``python -m repro client`` scripts by hand.

Thread use: a client holds one connection and serializes calls on it
(send + receive under an internal lock). Concurrent load wants one
client *per thread* — connections are cheap, and the daemon's
per-session locks do the real coordination server-side.

:func:`local_service` is the one-liner for tests, the differential
oracle and the benchmarks: spin a real daemon on an ephemeral localhost
port in a background thread, yield a connected client, tear everything
down::

    with local_service() as client:
        opened = client.open(program_text, database_text, "tc")
        response = client.why(opened["session"], ("a", "c"), limit=10)
        members = response["result"]["members"]
"""

from __future__ import annotations

import json
import socket
import threading
from contextlib import contextmanager
from typing import Dict, Iterator, Optional, Sequence, Tuple

from .protocol import ServiceError, encode
from .registry import SessionRegistry
from .server import Dispatcher, ProvenanceService, TCPServiceServer


class ServiceClient:
    """One NDJSON connection to a provenance service daemon.

    Raises :class:`~repro.service.protocol.ServiceError` (with the
    server's error code) when a call comes back ``ok: false``, and with
    code ``connection-closed`` when the server disappears mid-call.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        timeout: Optional[float] = None,
    ):
        """Connect to a daemon. ``timeout`` bounds each socket operation.

        The default is no timeout: provenance requests legitimately run
        for minutes (a cold ``open`` evaluates the database, a ``batch``
        can enumerate thousands of witnesses), and a timeout firing
        mid-response would desynchronize the NDJSON stream. When a
        timeout is set and fires, the client marks itself broken and
        refuses further use — reconnect rather than resynchronize.
        """
        #: The ``(host, port)`` this client connected to — handy for
        #: opening sibling connections (one client per thread).
        self.address: Tuple[str, int] = (host, port)
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._rfile = self._sock.makefile("r", encoding="utf-8", newline="\n")
        self._wfile = self._sock.makefile("w", encoding="utf-8", newline="\n")
        self._lock = threading.Lock()
        self._next_id = 0
        self._broken = False

    # -- plumbing -------------------------------------------------------------

    def request(self, payload: Dict) -> Dict:
        """Send one raw request object, return the raw response object.

        Assigns an ``id`` when the payload has none, and asserts the
        response echoes it (calls are serialized, so the next line is
        always this request's answer).
        """
        with self._lock:
            if self._broken:
                raise ServiceError(
                    "connection-closed",
                    "connection is broken (earlier timeout or I/O error); "
                    "reconnect with a fresh client",
                )
            if "id" not in payload:
                self._next_id += 1
                payload = {**payload, "id": self._next_id}
            try:
                self._wfile.write(encode(payload) + "\n")
                self._wfile.flush()
                line = self._rfile.readline()
            except OSError as exc:
                # A timeout or I/O error mid-exchange leaves the stream
                # unsynchronized (the response may still arrive later):
                # poison the connection instead of mispairing replies.
                self._broken = True
                raise ServiceError("connection-closed", f"socket error: {exc}")
        if not line:
            self._broken = True
            raise ServiceError("connection-closed", "server closed the connection")
        try:
            response = json.loads(line)
        except json.JSONDecodeError as exc:
            # A truncated/garbled line means the stream can no longer be
            # trusted to frame responses: poison the connection.
            self._broken = True
            raise ServiceError(
                "connection-closed", f"unreadable response line ({exc})"
            )
        if response.get("id") != payload["id"]:
            self._broken = True
            raise ServiceError(
                "connection-closed",
                f"response id {response.get('id')!r} does not match "
                f"request id {payload['id']!r}",
            )
        return response

    def call(self, op: str, **fields) -> Dict:
        """One operation; ``None``-valued fields are omitted from the wire."""
        payload = {"op": op}
        payload.update({k: v for k, v in fields.items() if v is not None})
        response = self.request(payload)
        if not response.get("ok"):
            error = response.get("error") or {}
            raise ServiceError(
                error.get("code", "internal-error"),
                error.get("message", "unknown error"),
            )
        return response

    def close(self) -> None:
        """Close the connection (idempotent)."""
        for closer in (self._wfile.close, self._rfile.close, self._sock.close):
            try:
                closer()
            except OSError:
                pass

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- shaped operations ----------------------------------------------------

    def ping(self) -> Dict:
        """Liveness + protocol version."""
        return self.call("ping")

    def open(
        self,
        program_text: str,
        database_text: str,
        answer: Optional[str] = None,
    ) -> Dict:
        """Admit-or-reuse a session; the response carries its digest."""
        return self.call(
            "open", program=program_text, database=database_text, answer=answer
        )

    def answers(self, session: str) -> Dict:
        """The sorted answer tuples of ``Q(D)``."""
        return self.call("answers", session=session)

    def why(
        self,
        session: str,
        tup: Sequence,
        limit: Optional[int] = None,
        timeout: Optional[float] = None,
    ) -> Dict:
        """Members of ``whyUN(t, D, Q)`` in discovery order.

        The result's ``exhausted`` is ``True`` when the list is known to be
        complete: the solver proved that no further member exists, or the
        tuple is not an answer. It is ``False`` when *limit* or *timeout*
        stopped the enumeration first, so more members may exist.
        """
        return self.call(
            "why", session=session, tuple=list(tup), limit=limit, timeout=timeout
        )

    def decide(
        self,
        session: str,
        tup: Sequence,
        subset: Sequence[str],
        tree_class: Optional[str] = None,
    ) -> Dict:
        """Membership of a candidate subset (facts as ``"fact."`` strings)."""
        return self.call(
            "decide",
            session=session,
            tuple=list(tup),
            subset=list(subset),
            tree_class=tree_class,
        )

    def smallest(self, session: str, tup: Sequence) -> Dict:
        """A cardinality-minimum member of ``whyUN(t, D, Q)``."""
        return self.call("smallest", session=session, tuple=list(tup))

    def minimal(
        self, session: str, tup: Sequence, limit: Optional[int] = None
    ) -> Dict:
        """Subset-minimal members of ``whyUN(t, D, Q)``."""
        return self.call("minimal", session=session, tuple=list(tup), limit=limit)

    def batch(
        self,
        session: str,
        tuples: Optional[Sequence[Sequence]] = None,
        all_answers: bool = False,
        limit: Optional[int] = None,
        timeout: Optional[float] = None,
        workers: Optional[int] = None,
        chunk_size: Optional[int] = None,
    ) -> Dict:
        """Explain many tuples with one request (``all_answers`` or a list)."""
        return self.call(
            "batch",
            session=session,
            tuples=None if tuples is None else [list(t) for t in tuples],
            all_answers=all_answers or None,
            limit=limit,
            timeout=timeout,
            workers=workers,
            chunk_size=chunk_size,
        )

    def update(
        self,
        session: str,
        lines: Optional[Sequence[str]] = None,
        insert: Optional[Sequence[str]] = None,
        delete: Optional[Sequence[str]] = None,
    ) -> Dict:
        """Apply a delta through incremental maintenance, never re-evaluation."""
        return self.call(
            "update",
            session=session,
            lines=None if lines is None else list(lines),
            insert=None if insert is None else list(insert),
            delete=None if delete is None else list(delete),
        )

    def stats(self, session: Optional[str] = None) -> Dict:
        """Registry-wide counters, plus one session's detail when given."""
        return self.call("stats", session=session)

    def shutdown_server(self) -> Dict:
        """Ask the daemon to stop accepting connections."""
        return self.call("shutdown")


def parse_address(address: str) -> Tuple[str, int]:
    """Split ``host:port`` (host defaults to localhost when omitted)."""
    host, _, port_text = address.rpartition(":")
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"bad service address {address!r}; expected host:port")
    return host or "127.0.0.1", port


@contextmanager
def _serving(service: Dispatcher) -> Iterator[ServiceClient]:
    """Serve *service* on an ephemeral localhost port; yield a client to it.

    Tears down whatever got built, even when startup failed midway (a
    refused connection must not leak the accept thread, the bound
    socket, or the router's workers).
    """
    server = None
    client = None
    try:
        server = TCPServiceServer(service)
        server.serve_in_thread()
        client = ServiceClient(host=server.host, port=server.port)
        yield client
    finally:
        if client is not None:
            client.close()
        if server is not None:
            server.shutdown()
            server.server_close()
        service.close()


@contextmanager
def local_service(
    registry: Optional[SessionRegistry] = None,
    threads: Optional[int] = None,
    batch_workers: int = 1,
    parallel_threshold: Optional[int] = None,
    state_dir: Optional[str] = None,
) -> Iterator[ServiceClient]:
    """A real daemon on an ephemeral localhost port, as a context manager.

    Starts :class:`~repro.service.server.TCPServiceServer` in a
    background thread, yields a connected :class:`ServiceClient`, and
    tears the whole stack down on exit. Every request genuinely crosses
    the TCP wire — this is the fixture behind the byte-identity tests,
    the differential oracle's ``service`` and ``restart`` paths and the
    throughput benchmark.

    ``state_dir`` attaches a durable store
    (:class:`~repro.service.store.SnapshotStore`) to a default registry,
    the in-process equivalent of ``python -m repro serve --state-dir``;
    ignored when an explicit ``registry`` is passed (configure its
    ``store`` directly instead).
    """
    if registry is None and state_dir is not None:
        from .store import SnapshotStore

        registry = SessionRegistry(store=SnapshotStore(state_dir))
    kwargs = {"registry": registry, "threads": threads, "batch_workers": batch_workers}
    if parallel_threshold is not None:
        kwargs["parallel_threshold"] = parallel_threshold
    with _serving(ProvenanceService(**kwargs)) as client:
        yield client


@contextmanager
def local_sharded_service(
    workers: int = 2,
    *,
    state_dir: Optional[str] = None,
    worker_threads: Optional[int] = None,
    batch_workers: int = 1,
    parallel_threshold: Optional[int] = None,
    max_batch: Optional[int] = None,
    max_sessions: Optional[int] = None,
    max_bytes: Optional[int] = None,
    spawn_timeout: float = 60.0,
) -> Iterator[ServiceClient]:
    """A sharded daemon (*workers* real processes) behind one client.

    The multi-process sibling of :func:`local_service`: the same TCP
    front-end, serving a :class:`~repro.service.shard.ShardRouter` that
    routes by content digest to ``workers`` supervised single-process
    daemons. Yields a connected :class:`ServiceClient` and tears the
    whole pool down on exit. Same wire protocol, same bytes (the
    byte-identity tests run the same assertions through both);
    ``state_dir`` is shared by the pool, safe because consistent hashing
    gives every digest exactly one owning worker.
    """
    from .shard import ShardRouter

    router = ShardRouter(
        workers,
        state_dir=state_dir,
        worker_threads=worker_threads,
        batch_workers=batch_workers,
        parallel_threshold=parallel_threshold,
        max_batch=max_batch,
        max_sessions=max_sessions,
        max_bytes=max_bytes,
        spawn_timeout=spawn_timeout,
    )
    router.start()
    with _serving(router) as client:
        yield client
