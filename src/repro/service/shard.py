"""The sharded service: a router over single-process daemon workers.

One process cannot scale solver-heavy traffic past the GIL, so the
sharded daemon (``python -m repro serve --workers N``) splits the
registry across N *worker processes*, each an unmodified copy of the
proven single-process daemon (:mod:`repro.service.server`), and routes
to them from the same TCP front-end
(:class:`~repro.service.server.TCPServiceServer`) through a
:class:`ShardRouter`:

* **routing** — every session-addressed request is owned by exactly one
  worker, chosen by consistent hashing (:class:`HashRing`) over the
  session's content digest. Inline-text requests are canonicalized to
  the digest their admission would produce (:func:`~repro.service.
  registry.routing_digest` with the same ``acyclicity`` the workers
  were spawned with), so texts and digests land on the same shard. A
  digest's warm state therefore lives on exactly one worker — the
  single-writer property that also makes a shared ``--state-dir`` safe
  across the pool.
* **byte identity** — request lines are forwarded to the owning worker
  *verbatim* and its response lines returned verbatim (each client
  connection keeps one downstream connection per shard, and a worker
  connection serves strictly one-in-flight in order, so no id rewriting
  is ever needed). Whatever bytes the single-process daemon would have
  produced, the sharded one produces.
* **supervision** — :class:`WorkerSupervisor` spawns the workers,
  discovers each ephemeral port from the daemon's own ``listening on``
  stderr line, and restarts any worker that dies (exponential backoff,
  generation-counted). With a ``--state-dir``, a restarted worker
  rebuilds its digests from their logs in the store, so ``kill -9``
  loses no acknowledged update.
* **failure semantics** — a request caught on a dying worker is retried
  transparently once the replacement is up, *except* ``update`` after
  its bytes were sent (the commit status is unknowable; replaying could
  double-apply a delta): that one surfaces as a well-formed
  ``worker-failure`` error. Connect-phase failures (nothing sent yet)
  are retryable for every op, ``update`` included.

The router answers ``ping`` itself, aggregates no-session ``stats``
across the pool (adding a ``sharding`` table — the single-process daemon
reports ``"sharding": null`` there), injects a ``shard`` block into
session-addressed ``stats``, and broadcasts ``shutdown``. Everything
else crosses to exactly one worker. ``docs/SERVICE.md`` documents the
client-visible contract.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import os
import re
import socket
import subprocess
import sys
import threading
import time
from collections import deque
from typing import Dict, List, Optional, Tuple, Union

from .client import ServiceClient
from .protocol import (
    PROTOCOL_VERSION,
    ServiceError,
    encode,
    ok_response,
    session_address,
)
from .registry import routing_digest
from .server import Dispatcher

#: Virtual nodes per worker slot. More replicas = smoother balance at
#: the cost of a larger (still tiny) sorted point table.
DEFAULT_REPLICAS = 64

#: Transparent-retry attempts per request before surfacing
#: ``worker-failure`` (each attempt waits for a fresh worker generation).
MAX_FORWARD_ATTEMPTS = 3

#: The stderr line every daemon prints once bound — the port-discovery
#: contract between supervisor and worker.
_LISTENING_RE = re.compile(r"listening on ([0-9.]+):(\d+)")


class HashRing:
    """Consistent hashing of content digests onto stable worker slots.

    Each slot contributes ``replicas`` points on a 64-bit ring (the
    first 8 bytes of sha256 over ``"slot#replica"``); a digest is owned
    by the slot whose point follows the digest's own hash. Slot points
    depend only on the slot *name*, never on how many other slots exist,
    which is the minimal-disruption property: resizing N→N±1 only moves
    the digests whose successor point belongs to the added/removed slot
    (~1/N of them), and a worker *restart* (same slot name) moves
    nothing at all.
    """

    def __init__(self, slots, replicas: int = DEFAULT_REPLICAS):
        self.slots: Tuple[str, ...] = tuple(slots)
        if not self.slots:
            raise ValueError("a hash ring needs at least one slot")
        if len(set(self.slots)) != len(self.slots):
            raise ValueError(f"duplicate slot names in {self.slots!r}")
        self.replicas = max(1, replicas)
        points = [
            (self._point(f"{slot}#{replica}"), slot)
            for slot in self.slots
            for replica in range(self.replicas)
        ]
        points.sort()
        self._points = points
        self._keys = [point for point, _ in points]

    @staticmethod
    def _point(text: str) -> int:
        return int.from_bytes(
            hashlib.sha256(text.encode("utf-8")).digest()[:8], "big"
        )

    def lookup(self, digest: str) -> str:
        """The slot owning *digest* (pure function of digest + slot set)."""
        index = bisect.bisect_right(self._keys, self._point(digest))
        return self._points[index % len(self._points)][1]


def worker_slots(count: int) -> List[str]:
    """The stable slot names of an N-worker pool (``shard-0``…)."""
    return [f"shard-{index}" for index in range(max(1, count))]


class WorkerHandle:
    """One worker slot: its live process, port, and restart bookkeeping.

    ``generation`` increments on every (re)spawn; forwarding code pins
    the generation it connected under, so a retry after a failure can
    insist on *a newer process* rather than racing the supervisor and
    reconnecting to the corpse's port.
    """

    def __init__(self, slot: str):
        self.slot = slot
        self.lock = threading.Lock()
        self.proc: Optional[subprocess.Popen] = None
        self.port: Optional[int] = None
        self.generation = 0
        self.restarts = 0
        self.consecutive_failures = 0
        self.started_at = 0.0
        self.ready = threading.Event()
        #: Last worker stderr lines, for diagnostics when one misbehaves.
        self.recent_stderr: deque = deque(maxlen=50)

    def describe(self) -> Dict:
        """A JSON-ready row for the aggregate ``stats`` sharding table."""
        with self.lock:
            proc = self.proc
            return {
                "slot": self.slot,
                "pid": None if proc is None else proc.pid,
                "port": self.port,
                "generation": self.generation,
                "restarts": self.restarts,
                "alive": proc is not None and proc.poll() is None,
            }

    def wait_ready(
        self,
        timeout: float,
        after_generation: Optional[int] = None,
    ) -> Tuple[int, int]:
        """Block until a live, bound worker is up; returns (generation, port).

        With ``after_generation``, only a *newer* generation counts —
        the retry path uses this so "the worker I just watched die" can
        never satisfy the wait. Raises ``worker-failure`` on timeout.
        """
        deadline = time.monotonic() + timeout
        while True:
            with self.lock:
                generation = self.generation
                port = self.port
                alive = self.proc is not None and self.proc.poll() is None
                is_ready = self.ready.is_set()
            if (
                is_ready
                and alive
                and port is not None
                and (after_generation is None or generation > after_generation)
            ):
                return generation, port
            if time.monotonic() >= deadline:
                tail = "; ".join(list(self.recent_stderr)[-3:])
                raise ServiceError(
                    "worker-failure",
                    f"worker {self.slot} did not come up within {timeout:.1f}s"
                    + (f" (stderr: {tail})" if tail else ""),
                )
            time.sleep(0.01)


class WorkerSupervisor:
    """Spawns and babysits the worker pool.

    Each worker is the single-process daemon run as a subprocess
    (``python -m repro serve --port 0 --workers 1 …``), its ephemeral
    port read from the ``listening on`` stderr line. A monitor thread
    restarts dead workers with exponential backoff (reset once a worker
    survives :attr:`STABLE_SECONDS`); :meth:`quiesce` stops the
    restarting without killing anyone, which is how a broadcast
    ``shutdown`` lets workers exit for good.
    """

    #: A worker alive this long is considered stable (backoff resets).
    STABLE_SECONDS = 5.0

    def __init__(
        self,
        count: int,
        *,
        state_dir: Optional[str] = None,
        worker_threads: Optional[int] = None,
        batch_workers: int = 1,
        parallel_threshold: Optional[int] = None,
        max_batch: Optional[int] = None,
        max_sessions: Optional[int] = None,
        max_bytes: Optional[int] = None,
        acyclicity: str = "vertex-elimination",
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
    ):
        self.slots = worker_slots(count)
        self.handles: Dict[str, WorkerHandle] = {
            slot: WorkerHandle(slot) for slot in self.slots
        }
        self.state_dir = state_dir
        self.worker_threads = worker_threads
        self.batch_workers = batch_workers
        self.parallel_threshold = parallel_threshold
        self.max_batch = max_batch
        self.max_sessions = max_sessions
        self.max_bytes = max_bytes
        self.acyclicity = acyclicity
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self._stop = threading.Event()
        self._monitor_thread: Optional[threading.Thread] = None
        #: stderr reader threads of the live (and recently dead) workers.
        self._readers: List[threading.Thread] = []

    # -- process plumbing -----------------------------------------------------

    def _command(self) -> List[str]:
        command = [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--host",
            "127.0.0.1",
            "--port",
            "0",
            "--workers",
            "1",
            "--batch-workers",
            str(self.batch_workers),
            "--acyclicity",
            self.acyclicity,
        ]
        if self.worker_threads is not None:
            command += ["--threads", str(self.worker_threads)]
        if self.parallel_threshold is not None:
            command += ["--parallel-threshold", str(self.parallel_threshold)]
        if self.max_batch is not None:
            command += ["--max-batch", str(self.max_batch)]
        if self.max_sessions is not None:
            command += ["--max-sessions", str(self.max_sessions)]
        if self.max_bytes is not None:
            command += ["--max-bytes", str(self.max_bytes)]
        if self.state_dir is not None:
            # All workers share one store: safe because the ring gives
            # each digest exactly one owner (single-writer-per-digest).
            command += ["--state-dir", self.state_dir]
        return command

    @staticmethod
    def _environment() -> Dict[str, str]:
        # The spawned interpreter must find this exact package even when
        # the parent was launched with PYTHONPATH (the repo's own mode).
        from .. import __file__ as package_init

        src_dir = os.path.dirname(os.path.dirname(os.path.abspath(package_init)))
        env = dict(os.environ)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            src_dir if not existing else src_dir + os.pathsep + existing
        )
        return env

    def _spawn(self, handle: WorkerHandle) -> None:
        proc = subprocess.Popen(
            self._command(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            env=self._environment(),
            text=True,
            encoding="utf-8",
        )
        with handle.lock:
            handle.proc = proc
            handle.port = None
            handle.started_at = time.monotonic()
        reader = threading.Thread(
            target=self._read_stderr,
            args=(handle, proc),
            name=f"repro-shard-stderr-{handle.slot}",
            daemon=True,
        )
        reader.start()
        self._readers = [t for t in self._readers if t.is_alive()] + [reader]

    def _read_stderr(self, handle: WorkerHandle, proc: subprocess.Popen) -> None:
        """Drain one worker's stderr until it exits, then close the pipe.

        The bound-port line flips the worker ready.
        """
        try:
            for raw in proc.stderr:
                line = raw.rstrip()
                handle.recent_stderr.append(line)
                match = _LISTENING_RE.search(line)
                if match:
                    with handle.lock:
                        if handle.proc is proc:  # not a stale generation
                            handle.port = int(match.group(2))
                            handle.ready.set()
        except ValueError:
            pass  # pipe closed during teardown
        finally:
            proc.stderr.close()

    def _respawn(self, handle: WorkerHandle) -> None:
        with handle.lock:
            handle.generation += 1
            handle.restarts += 1
            handle.ready.clear()
            handle.port = None
        self._spawn(handle)

    def _monitor(self) -> None:
        while not self._stop.is_set():
            for handle in self.handles.values():
                with handle.lock:
                    proc = handle.proc
                    started_at = handle.started_at
                if proc is None:
                    continue
                if proc.poll() is None:
                    if (
                        handle.consecutive_failures
                        and time.monotonic() - started_at > self.STABLE_SECONDS
                    ):
                        handle.consecutive_failures = 0
                    continue
                # Dead worker: clear readiness immediately (forwarders
                # stop connecting to the corpse), back off, respawn.
                with handle.lock:
                    handle.ready.clear()
                delay = min(
                    self.backoff_cap,
                    self.backoff_base
                    * (2 ** min(handle.consecutive_failures, 10)),
                )
                handle.consecutive_failures += 1
                if self._stop.wait(delay):
                    return
                self._respawn(handle)
            if self._stop.wait(0.02):
                return

    # -- lifecycle ------------------------------------------------------------

    def start(self, timeout: float = 60.0) -> None:
        """Spawn every worker and wait until all are bound and live."""
        for handle in self.handles.values():
            self._spawn(handle)
        self._monitor_thread = threading.Thread(
            target=self._monitor, name="repro-shard-monitor", daemon=True
        )
        self._monitor_thread.start()
        try:
            for handle in self.handles.values():
                handle.wait_ready(timeout)
        except ServiceError:
            self.stop()
            raise

    def quiesce(self) -> None:
        """Stop restarting dead workers (they may now exit for good)."""
        self._stop.set()

    def stop(self) -> None:
        """Quiesce, then terminate any still-running workers."""
        self.quiesce()
        if self._monitor_thread is not None:
            self._monitor_thread.join(timeout=5.0)
        procs = []
        for handle in self.handles.values():
            with handle.lock:
                proc = handle.proc
            if proc is not None and proc.poll() is None:
                proc.terminate()
                procs.append(proc)
        deadline = time.monotonic() + 5.0
        for proc in procs:
            try:
                proc.wait(timeout=max(0.1, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=5.0)
        for reader in self._readers:
            reader.join(timeout=5.0)


class _Downstream:
    """One client connection's blocking socket to one worker generation."""

    def __init__(self, generation: int, port: int):
        self.generation = generation
        self._sock = socket.create_connection(("127.0.0.1", port))
        # One write per request: its last segment must not wait for an ACK.
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._reader = self._sock.makefile("rb")

    def exchange(self, line: str) -> bytes:
        """Send one request line, return its response line."""
        self._sock.sendall(line.encode("utf-8") + b"\n")
        raw = self._reader.readline()
        if not raw.endswith(b"\n"):
            raise ConnectionResetError("worker closed the connection")
        return raw

    def close(self) -> None:
        """Close the socket (idempotent)."""
        self._reader.close()
        self._sock.close()


class ShardRouter(Dispatcher):
    """The hash ring plus the worker supervisor, behind the TCP front-end.

    :class:`~repro.service.server.TCPServiceServer` hands it each client
    line on that connection's own thread, so a connection's requests are
    served strictly in order while different connections proceed
    concurrently. It answers ``ping`` itself, aggregates no-session
    ``stats`` across the pool, broadcasts ``shutdown``, and forwards
    every other line verbatim to the worker owning its session, over
    the connection's own blocking socket to that worker.
    """

    def __init__(
        self,
        workers: int,
        *,
        state_dir: Optional[str] = None,
        worker_threads: Optional[int] = None,
        batch_workers: int = 1,
        parallel_threshold: Optional[int] = None,
        max_batch: Optional[int] = None,
        max_sessions: Optional[int] = None,
        max_bytes: Optional[int] = None,
        acyclicity: str = "vertex-elimination",
        replicas: int = DEFAULT_REPLICAS,
        spawn_timeout: float = 60.0,
    ):
        if workers < 1:
            raise ValueError("a sharded service needs at least 1 worker")
        super().__init__()
        self.acyclicity = acyclicity
        self.spawn_timeout = spawn_timeout
        self.supervisor = WorkerSupervisor(
            workers,
            state_dir=state_dir,
            worker_threads=worker_threads,
            batch_workers=batch_workers,
            parallel_threshold=parallel_threshold,
            max_batch=max_batch,
            max_sessions=max_sessions,
            max_bytes=max_bytes,
            acyclicity=acyclicity,
        )
        self.ring = HashRing(self.supervisor.slots, replicas=replicas)

    def start(self) -> None:
        """Spawn the workers and wait until every one is bound."""
        self.supervisor.start(timeout=self.spawn_timeout)

    def close(self) -> None:
        """Stop the workers (idempotent)."""
        self.supervisor.stop()

    # -- serving --------------------------------------------------------------

    def _serve(
        self, op: str, request: Dict, line: str, conns: Dict
    ) -> Union[Dict, str]:
        pool_wide = op == "stats" and request.get("session") is None
        if op in ("ping", "shutdown") or pool_wide:
            return super()._serve(op, request, line, conns)
        return self._forward(request, line, conns)

    def _forward(self, request: Dict, line: str, conns: Dict) -> str:
        """Send the raw line to the owning worker; return its raw response.

        Retry policy: a connect-phase failure (no bytes reached the
        worker) retries for every op; a failure after the bytes were
        sent retries only idempotent ops — an ``update`` whose commit
        status is unknowable surfaces ``worker-failure`` instead of
        risking a double-applied delta. Every retry insists on a worker
        generation newer than the one that failed.
        """
        digest, texts = session_address(request)
        if digest is None:
            # Inline texts route by the digest their admission would get.
            program, database, answer = texts
            digest = routing_digest(program, database, answer, self.acyclicity)
        slot = self.ring.lookup(digest)
        handle = self.supervisor.handles[slot]
        op = request.get("op")
        idempotent = op != "update"
        failed_generation: Optional[int] = None
        last_error: Optional[BaseException] = None
        for _ in range(MAX_FORWARD_ATTEMPTS):
            generation, port = handle.wait_ready(self.spawn_timeout, failed_generation)
            conn = conns.get(slot)
            if conn is not None and conn.generation != generation:
                conns.pop(slot).close()
                conn = None
            sent = False
            try:
                if conn is None:
                    conn = conns[slot] = _Downstream(generation, port)
                sent = True
                raw = conn.exchange(line)
            except OSError as exc:
                stale = conns.pop(slot, None)
                if stale is not None:
                    stale.close()
                failed_generation = generation
                last_error = exc
                if sent and not idempotent:
                    break
                continue
            response = raw.decode("utf-8").rstrip("\n")
            if op == "stats":
                return self._annotate_session_stats(response, handle)
            return response
        raise ServiceError(
            "worker-failure",
            f"worker {slot} failed while serving op {op!r} ({last_error}); "
            + (
                "the request was retried against its replacement without success"
                if idempotent
                else "the update's commit status is unknown — re-check the "
                "session version before re-sending"
            ),
        )

    def _annotate_session_stats(self, response_line: str, handle: WorkerHandle) -> str:
        """Inject the owning worker's identity into a session stats reply."""
        try:
            response = json.loads(response_line)
        except ValueError:  # pragma: no cover - workers emit valid JSON
            return response_line
        if response.get("ok") and isinstance(response.get("result"), dict):
            response["result"]["shard"] = handle.describe()
            return encode(response)
        return response_line

    # -- locally-served operations --------------------------------------------

    def _op_shutdown(self, request: Dict) -> Dict:
        """Quiesce the supervisor, then ask every worker to stop."""
        self.supervisor.quiesce()
        for handle in self.supervisor.handles.values():
            with handle.lock:
                port = handle.port
                alive = handle.proc is not None and handle.proc.poll() is None
            if port is None or not alive:
                continue
            try:
                with ServiceClient(port=port) as client:
                    client.shutdown_server()
            except (OSError, ServiceError):
                pass  # already gone — which is what shutdown wants
        return super()._op_shutdown(request)

    def _op_stats(self, request: Dict) -> Dict:
        """Pool-wide ``stats``: summed counters plus the sharding table.

        ``requests_served`` counts the client requests this front-end
        answered; each worker's own count is in its ``per_worker`` row.
        A worker that is down (or mid-restart) contributes its handle
        row with an ``error`` instead of failing the whole request —
        monitoring must work *especially* while a shard is unhealthy.
        """
        summed = {
            "session_count": 0,
            "bytes_in_use": 0,
            "admissions": 0,
            "hits": 0,
            "evictions": 0,
            "rehydrations": 0,
            "persist_failures": 0,
            "max_sessions": 0,
        }
        max_bytes_values: List[Optional[int]] = []
        sessions: List[Dict] = []
        stores: List[Dict] = []
        per_worker: List[Dict] = []
        for slot in self.ring.slots:
            handle = self.supervisor.handles[slot]
            row = handle.describe()
            try:
                _, port = handle.wait_ready(2.0)
                with ServiceClient(port=port) as client:
                    result = client.stats()["result"]
            except (ServiceError, OSError) as exc:
                row["error"] = str(exc)
                per_worker.append(row)
                continue
            for key in summed:
                summed[key] += result.get(key) or 0
            max_bytes_values.append(result.get("max_bytes"))
            sessions.extend(result.get("sessions") or [])
            if result.get("store"):
                stores.append(result["store"])
            row["requests_served"] = result.get("requests_served")
            row["session_count"] = result.get("session_count")
            row["gc"] = result.get("gc")
            per_worker.append(row)
        with self._counter_lock:
            served = self.requests_served
        result = dict(summed)
        result["max_bytes"] = (
            None
            if any(value is None for value in max_bytes_values)
            or not max_bytes_values
            else sum(max_bytes_values)
        )
        result["sessions"] = sessions
        result["store"] = self._merge_stores(stores)
        result["acyclicity"] = self.acyclicity
        result["protocol"] = PROTOCOL_VERSION
        result["uptime_seconds"] = time.time() - self.started_at
        result["requests_served"] = served
        # The router holds no sessions; each worker's collector is in its
        # per_worker row.
        result["gc"] = None
        result["sharding"] = {
            "workers": len(self.ring.slots),
            "replicas": self.ring.replicas,
            "router_requests": served,
            "per_worker": per_worker,
        }
        return ok_response(request.get("id"), "stats", result)

    @staticmethod
    def _merge_stores(stores: List[Dict]) -> Optional[Dict]:
        """Sum the workers' store counters key-wise (None when storeless)."""
        if not stores:
            return None
        merged: Dict = {}
        for store in stores:
            for key, value in store.items():
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    merged.setdefault(key, value)
                else:
                    merged[key] = merged.get(key, 0) + value
        return merged
