"""The sharded service: an async router over single-process daemon workers.

One process cannot scale solver-heavy traffic past the GIL, so the
sharded daemon (``python -m repro serve --workers N``) splits the
registry across N *worker processes*, each an unmodified copy of the
proven single-process daemon (:mod:`repro.service.server`), and puts an
asyncio NDJSON front-end in front of them:

* **routing** — every session-addressed request is owned by exactly one
  worker, chosen by consistent hashing (:class:`HashRing`) over the
  session's content digest. Inline-text requests are canonicalized to
  the digest their admission would produce (:func:`~repro.service.
  registry.routing_digest` with the same ``method``/``acyclicity`` knobs
  the workers were spawned with), so texts and digests land on the same
  shard. A digest's warm state therefore lives on exactly one worker —
  the single-writer property that also makes a shared ``--state-dir``
  safe across the pool.
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

The front-end answers ``ping`` itself, aggregates no-session ``stats``
across the pool (adding a ``sharding`` table — the single-process daemon
reports ``"sharding": null`` there), injects a ``shard`` block into
session-addressed ``stats``, and broadcasts ``shutdown``. Everything
else crosses to exactly one worker. ``docs/SERVICE.md`` documents the
client-visible contract.
"""

from __future__ import annotations

import asyncio
import bisect
import hashlib
import json
import os
import re
import subprocess
import sys
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Tuple

from .protocol import (
    OPS,
    PROTOCOL_VERSION,
    ServiceError,
    decode_request,
    encode,
    error_response,
    ok_response,
    session_address,
    unknown_op_message,
)
from .registry import routing_digest

#: Virtual nodes per worker slot. More replicas = smoother balance at
#: the cost of a larger (still tiny) sorted point table.
DEFAULT_REPLICAS = 64

#: Byte limit for one NDJSON line on either side of the router. The
#: asyncio default (64 KiB) is far too small for inline databases and
#: 10k-tuple batch requests; 64 MiB comfortably covers the server-side
#: batch cap.
STREAM_LIMIT = 2 ** 26

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
        method: str = "seminaive",
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
        self.method = method
        self.acyclicity = acyclicity
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self._stop = threading.Event()
        self._monitor_thread: Optional[threading.Thread] = None

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
            "--method",
            self.method,
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

    def _read_stderr(self, handle: WorkerHandle, proc: subprocess.Popen) -> None:
        """Drain one worker's stderr; the bound-port line flips it ready."""
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


class ShardedServiceServer:
    """The async NDJSON front-end over a supervised worker pool.

    Runs its own asyncio loop on a background thread (callers stay
    synchronous — the CLI, tests, and :func:`~repro.service.client.
    local_sharded_service` all use it the same way). Each accepted
    client connection is served strictly in request order, matching the
    single-process daemon's per-connection ordering contract; different
    connections proceed concurrently, each with its own downstream
    connection per shard.
    """

    def __init__(
        self,
        workers: int,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        state_dir: Optional[str] = None,
        worker_threads: Optional[int] = None,
        batch_workers: int = 1,
        parallel_threshold: Optional[int] = None,
        max_batch: Optional[int] = None,
        max_sessions: Optional[int] = None,
        max_bytes: Optional[int] = None,
        method: str = "seminaive",
        acyclicity: str = "vertex-elimination",
        replicas: int = DEFAULT_REPLICAS,
        spawn_timeout: float = 60.0,
    ):
        if workers < 1:
            raise ValueError("a sharded service needs at least 1 worker")
        self.method = method
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
            method=method,
            acyclicity=acyclicity,
        )
        self.ring = HashRing(self.supervisor.slots, replicas=replicas)
        self.started_at = time.time()
        self._requested_host = host
        self._requested_port = port
        self._bound: Optional[Tuple[str, int]] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._loop_thread: Optional[threading.Thread] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._shutdown = False
        self._closed = False
        #: Set once a client's ``shutdown`` request has been honored —
        #: what a foreground host (``repro serve --workers N``) waits on
        #: to exit, mirroring the single-process daemon's behavior.
        self.stopped = threading.Event()
        self._local_requests = 0
        self._counter_lock = threading.Lock()
        # Blocking work the event loop must not absorb: canonicalizing
        # inline texts into routing digests, and waiting for a worker
        # generation during restarts.
        self._route_pool = ThreadPoolExecutor(
            max_workers=8, thread_name_prefix="repro-shard-route"
        )

    # -- addressing -----------------------------------------------------------

    @property
    def host(self) -> str:
        """The bound front-end host."""
        return self._bound[0] if self._bound else self._requested_host

    @property
    def port(self) -> int:
        """The bound front-end port (after :meth:`start`)."""
        return self._bound[1] if self._bound else self._requested_port

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        """Spawn the workers, then bind and serve on a background loop."""
        self.supervisor.start(timeout=self.spawn_timeout)
        self._loop = asyncio.new_event_loop()
        self._loop_thread = threading.Thread(
            target=self._run_loop, name="repro-shard-router", daemon=True
        )
        self._loop_thread.start()
        try:
            future = asyncio.run_coroutine_threadsafe(
                self._start_server(), self._loop
            )
            future.result(timeout=30.0)
        except Exception:
            self.close()
            raise

    def _run_loop(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._loop.run_forever()

    async def _start_server(self) -> None:
        self._server = await asyncio.start_server(
            self._serve_connection,
            self._requested_host,
            self._requested_port,
            limit=STREAM_LIMIT,
        )
        sockname = self._server.sockets[0].getsockname()
        self._bound = (sockname[0], sockname[1])

    def close(self) -> None:
        """Stop accepting, stop the loop, stop the workers (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._loop is not None and self._loop.is_running():
            try:
                asyncio.run_coroutine_threadsafe(
                    self._close_server(), self._loop
                ).result(timeout=5.0)
            except Exception:
                pass
            self._loop.call_soon_threadsafe(self._loop.stop)
        if self._loop_thread is not None:
            self._loop_thread.join(timeout=5.0)
        if self._loop is not None and not self._loop.is_running():
            self._loop.close()
        self._route_pool.shutdown(wait=False)
        self.supervisor.stop()

    async def _close_server(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    # -- serving --------------------------------------------------------------

    async def _serve_connection(self, reader, writer) -> None:
        """One client connection: strictly ordered request/response."""
        conns: Dict[str, Tuple[int, asyncio.StreamReader, asyncio.StreamWriter]] = {}
        try:
            while True:
                try:
                    raw = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    # A line past STREAM_LIMIT cannot be reframed; the
                    # stream is unusable from here.
                    break
                if not raw:
                    break
                line = raw.decode("utf-8", errors="replace").strip()
                if not line:
                    continue
                response = await self._handle_request_line(line, conns)
                try:
                    writer.write(response.encode("utf-8") + b"\n")
                    await writer.drain()
                except (ConnectionResetError, BrokenPipeError):
                    break
                if self._shutdown:
                    break
        finally:
            for _, _, downstream in conns.values():
                downstream.close()
            writer.close()

    async def _handle_request_line(self, line: str, conns) -> str:
        with self._counter_lock:
            self._local_requests += 1
        try:
            request = decode_request(line)
        except ServiceError as exc:
            return encode(exc.as_response(None))
        request_id = request.get("id")
        op = request.get("op")
        try:
            if not isinstance(op, str) or op not in OPS:
                raise ServiceError("unknown-op", unknown_op_message(op))
            if op == "ping":
                return encode(self._local_ping(request_id))
            if op == "shutdown":
                return encode(await self._broadcast_shutdown(request_id))
            if op == "stats" and request.get("session") is None:
                return encode(await self._aggregate_stats(request_id))
            digest = await self._route(request)
            return await self._forward(request, line, digest, conns)
        except ServiceError as exc:
            return encode(exc.as_response(request_id))
        except Exception as exc:  # a router bug: still answer in-protocol
            return encode(
                error_response(
                    request_id, "internal-error", f"{type(exc).__name__}: {exc}"
                )
            )

    async def _route(self, request: Dict) -> str:
        """The content digest a request addresses (its routing key)."""
        digest, texts = session_address(request)
        if digest is not None:
            return digest
        program, database, answer = texts
        loop = asyncio.get_running_loop()
        # Canonicalization parses both texts — CPU work that must not
        # stall every other connection on the loop.
        return await loop.run_in_executor(
            self._route_pool,
            routing_digest,
            program,
            database,
            answer,
            self.method,
            self.acyclicity,
        )

    async def _forward(self, request: Dict, line: str, digest: str, conns) -> str:
        """Send the raw line to the owning worker; return its raw response.

        Retry policy: a connect-phase failure (no bytes reached the
        worker) retries for every op; a failure after the bytes were
        sent retries only idempotent ops — an ``update`` whose commit
        status is unknowable surfaces ``worker-failure`` instead of
        risking a double-applied delta. Every retry insists on a worker
        generation newer than the one that failed.
        """
        slot = self.ring.lookup(digest)
        handle = self.supervisor.handles[slot]
        op = request.get("op")
        idempotent = op != "update"
        loop = asyncio.get_running_loop()
        failed_generation: Optional[int] = None
        last_error: Optional[BaseException] = None
        for _ in range(MAX_FORWARD_ATTEMPTS):
            generation, port = await loop.run_in_executor(
                self._route_pool,
                handle.wait_ready,
                self.spawn_timeout,
                failed_generation,
            )
            sent = False
            try:
                conn = conns.get(slot)
                if conn is not None and conn[0] != generation:
                    conn[2].close()
                    conn = None
                if conn is None:
                    downstream = await asyncio.open_connection(
                        "127.0.0.1", port, limit=STREAM_LIMIT
                    )
                    conn = (generation, downstream[0], downstream[1])
                    conns[slot] = conn
                _, down_reader, down_writer = conn
                down_writer.write(line.encode("utf-8") + b"\n")
                sent = True
                await down_writer.drain()
                raw = await down_reader.readline()
                if not raw:
                    raise ConnectionResetError("worker closed the connection")
            except (OSError, asyncio.IncompleteReadError) as exc:
                stale = conns.pop(slot, None)
                if stale is not None:
                    stale[2].close()
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

    def _local_ping(self, request_id) -> Dict:
        result = {
            "pong": True,
            "protocol": PROTOCOL_VERSION,
            "uptime_seconds": time.time() - self.started_at,
        }
        return ok_response(request_id, "ping", result)

    async def _broadcast_shutdown(self, request_id) -> Dict:
        """Quiesce the supervisor, then ask every worker to stop."""
        self.supervisor.quiesce()
        for slot in self.ring.slots:
            handle = self.supervisor.handles[slot]
            with handle.lock:
                port = handle.port
                alive = handle.proc is not None and handle.proc.poll() is None
            if port is None or not alive:
                continue
            try:
                await self._oneshot(port, {"id": 0, "op": "shutdown"})
            except OSError:
                pass  # already gone — which is what shutdown wants
        self._shutdown = True
        self.stopped.set()
        return ok_response(request_id, "shutdown", {"stopping": True})

    async def _oneshot(self, port: int, payload: Dict) -> Dict:
        """One request over a fresh short-lived worker connection."""
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", port, limit=STREAM_LIMIT
        )
        try:
            writer.write((encode(payload) + "\n").encode("utf-8"))
            await writer.drain()
            raw = await reader.readline()
        finally:
            writer.close()
        if not raw:
            raise ConnectionResetError("worker closed the connection")
        return json.loads(raw.decode("utf-8"))

    async def _aggregate_stats(self, request_id) -> Dict:
        """Pool-wide ``stats``: summed counters plus the sharding table.

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
        requests_served = 0
        per_worker: List[Dict] = []
        loop = asyncio.get_running_loop()
        for slot in self.ring.slots:
            handle = self.supervisor.handles[slot]
            row = handle.describe()
            try:
                generation, port = await loop.run_in_executor(
                    self._route_pool, handle.wait_ready, 2.0, None
                )
                response = await self._oneshot(port, {"id": 0, "op": "stats"})
                if not response.get("ok"):
                    raise ConnectionResetError(
                        response.get("error", {}).get("message", "stats failed")
                    )
            except (ServiceError, OSError, ValueError) as exc:
                row["error"] = str(exc)
                per_worker.append(row)
                continue
            result = response["result"]
            for key in summed:
                summed[key] += result.get(key) or 0
            max_bytes_values.append(result.get("max_bytes"))
            sessions.extend(result.get("sessions") or [])
            if result.get("store"):
                stores.append(result["store"])
            requests_served += result.get("requests_served") or 0
            row["requests_served"] = result.get("requests_served")
            row["session_count"] = result.get("session_count")
            per_worker.append(row)
        with self._counter_lock:
            local = self._local_requests
        result = dict(summed)
        result["max_bytes"] = (
            None
            if any(value is None for value in max_bytes_values)
            or not max_bytes_values
            else sum(max_bytes_values)
        )
        result["sessions"] = sessions
        result["store"] = self._merge_stores(stores)
        result["method"] = self.method
        result["acyclicity"] = self.acyclicity
        result["protocol"] = PROTOCOL_VERSION
        result["uptime_seconds"] = time.time() - self.started_at
        result["requests_served"] = requests_served + local
        result["sharding"] = {
            "workers": len(self.ring.slots),
            "replicas": self.ring.replicas,
            "router_requests": local,
            "per_worker": per_worker,
        }
        return ok_response(request_id, "stats", result)

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
