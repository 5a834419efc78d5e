"""The durable store: one append-only log per session digest.

The daemon's economics are "pay evaluation once, serve explanations
warm" — but a warm :class:`~repro.core.session.ProvenanceSession` lives
in process memory, so every restart would re-pay the cold admission
that dwarfs a warm hit. This module keeps, for every admitted digest,
what it takes to rebuild the session: the database it started from and
every update since.

* :class:`SnapshotStore` — a content-addressed on-disk store mapping a
  registry digest to one append-only **log**. Record 0, the *base*,
  holds the program and database texts as admitted, the answer
  predicate and the frozen encoding name :data:`ACYCLICITY`. Each
  later record is one committed ``update`` delta, stamped ``v = 1, 2,
  ...`` and fsync'd before the response is sent.
* :meth:`SnapshotStore.rehydrate` — rebuild a live session from its log:
  parse the base, apply the deltas to its database, and evaluate once.
  The rebuilt session is a cold session over the updated database; that
  it matches the incrementally maintained one it replaces, byte for
  byte, is the cold = incremental equality the fuzz oracle enforces.

Crash safety
------------

Every record is one line, ``crc32 <space> payload-json``, and a crash at
*any* instruction boundary leaves the store serving either the previous
consistent state or a clean miss — never a torn state, never a silently
wrong answer:

* a log is started by writing its base to a unique temp file, fsync'ing
  it, atomically :func:`os.replace`'ing it into place and fsync'ing the
  directory entry, so readers see the previous log or the new one;
* appends are fsync'd; a torn tail (partial line, bad checksum,
  unparsable JSON) is truncated at the last complete record on recovery;
* a log whose base is damaged or names another encoding than
  :data:`ACYCLICITY`, or whose version stamps are not ``0, 1, 2, ...``
  (a gap — some committed state is unreachable) degrades to a
  **miss**: the registry falls back to cold evaluation. Only a missing
  file means "never stored"; any other read error is a counted miss too.

Multi-process sharing
---------------------

A sharded daemon (``serve --workers N``) points every worker at the
*same* ``--state-dir``. That is safe without file locking because the
router's consistent-hash ring gives each content digest exactly one
owning worker at a time — a single writer per digest log — and every
cross-digest operation here is already atomic (temp file +
``os.replace``; ``makedirs(exist_ok=True)``). The store also carries
sessions across restarts: when the supervisor respawns a crashed
worker, the replacement rehydrates the digests it owns from disk (see
:mod:`repro.service.shard` and ``tests/test_shard_chaos.py``).

Fault injection
---------------

All mutating filesystem operations go through one injectable seam
(:class:`StoreFS`), so the test harness (``tests/faultinject.py``) can
crash the store at the N-th write / fsync / replace / truncate and prove
the recovery contract for every boundary — see
``tests/test_store_faults.py`` and ``docs/PERSISTENCE.md``.
"""

from __future__ import annotations

import binascii
import json
import logging
import os
import threading
from typing import Dict, List, Optional, Tuple

from ..core.session import ProvenanceSession
from ..datalog.database import Database
from ..datalog.io import delta_from_lines
from ..datalog.parser import parse_database, parse_program
from ..datalog.program import DatalogQuery

logger = logging.getLogger("repro.service.store")

#: Directory and file-name suffix of the per-digest logs. Nothing else
#: under the state directory is read, so the ``snapshots/`` and ``wal/``
#: directories an older daemon wrote are a clean miss.
LOG_DIR = "logs"
LOG_SUFFIX = ".log"

#: The base record's string fields (besides its stamp ``v = 0``). Logs
#: written before the evaluation method left the knobs also carry
#: ``"method": "seminaive"``, which is ignored.
BASE_FIELDS = ("acyclicity", "answer", "database", "digest", "program")

#: The encoding of every session's φ_acyclic, written into each base
#: record and into the content digest's payload
#: (:func:`~repro.service.registry.content_digest`). Kept constant so that
#: stored logs and the digests clients hold stay valid. A base naming
#: another encoding was written by a daemon started with
#: ``--acyclicity transitive-closure`` under another digest: a miss.
ACYCLICITY = "vertex-elimination"


def _frame(payload: Dict) -> bytes:
    """One record line: ``crc32(payload) <space> payload`` plus newline."""
    data = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return b"%08x %s\n" % (binascii.crc32(data), data)


def _unframe(line: bytes) -> Optional[Dict]:
    """The payload of one intact record line, or ``None`` if it is damaged.

    Intact means: the checksum matches, the JSON parses, and the record
    is a base (``v == 0`` with every :data:`BASE_FIELDS` a string) or a
    delta (``v > 0`` with a list of string ``lines``).
    """
    try:
        crc_text, data = line.split(b" ", 1)
        if int(crc_text, 16) != binascii.crc32(data):
            return None
        record = json.loads(data.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return None
    if not isinstance(record, dict) or not isinstance(record.get("v"), int):
        return None
    if record["v"] == 0:
        intact = all(isinstance(record.get(name), str) for name in BASE_FIELDS)
    else:
        lines = record.get("lines")
        intact = isinstance(lines, list) and all(isinstance(e, str) for e in lines)
    return record if intact else None


class StoreFS:
    """The filesystem seam: every mutating operation the store performs.

    The production store uses this class as-is; the fault-injection
    harness (``tests/faultinject.py``) substitutes a wrapper that raises
    ``SimulatedCrash`` at a chosen operation index, optionally applying
    a torn (prefix-only) write first. Read operations are deliberately
    *not* routed through the seam — a crash only matters at a write
    boundary, and recovery paths must read whatever the crash left.
    """

    def open(self, path: str, mode: str):
        """Open *path* (binary modes only in the store)."""
        return open(path, mode)

    def write(self, handle, data: bytes) -> None:
        """Write *data* to an open handle."""
        handle.write(data)

    def fsync(self, handle) -> None:
        """Flush and fsync an open handle (the durability point)."""
        handle.flush()
        os.fsync(handle.fileno())

    def fsync_path(self, path: str) -> None:
        """Fsync a directory entry (after :func:`os.replace`), best-effort.

        Some platforms refuse to open directories; durability of the
        rename itself is then up to the filesystem, which is the
        standard portable compromise.
        """
        try:
            fd = os.open(path, os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(fd)
        except OSError:
            pass
        finally:
            os.close(fd)

    def replace(self, source: str, destination: str) -> None:
        """Atomically rename *source* over *destination*."""
        os.replace(source, destination)

    def truncate(self, path: str, length: int) -> None:
        """Truncate *path* to *length* bytes (torn-tail repair)."""
        os.truncate(path, length)

    def remove(self, path: str) -> None:
        """Delete *path* (missing is fine — removal is idempotent)."""
        try:
            os.remove(path)
        except FileNotFoundError:
            pass

    def makedirs(self, path: str) -> None:
        """Create *path* and parents (existing is fine)."""
        os.makedirs(path, exist_ok=True)


class SnapshotStore:
    """Digest-addressed append-only session logs on disk.

    Parameters
    ----------
    root:
        The state directory (created on first use). Layout::

            <root>/logs/<digest>.log

    fs:
        The filesystem seam (:class:`StoreFS`); tests inject a crashing
        wrapper here.

    The method names :meth:`put_snapshot` (start a log) and
    :meth:`append_wal` (append a delta) are the ones
    ``perfbench/launcher.py`` traces as ``store.put_snapshot`` and
    ``store.append_wal``.

    Thread safety: one store-wide lock guards the counters. Callers that
    must keep a log ordered against session versions (the registry) hold
    the session lock around :meth:`append_wal` — see ``registry.py``.
    """

    def __init__(self, root: str, fs: Optional[StoreFS] = None):
        self.root = root
        self.fs = fs if fs is not None else StoreFS()
        self._lock = threading.Lock()
        self._tmp_counter = 0
        self.snapshot_writes = 0
        self.wal_appends = 0
        self.rehydrations = 0
        #: ``reason -> count`` for every rehydration that degraded to a
        #: miss; the observable half of "logged reason, never an
        #: exception to the client".
        self.miss_reasons: Dict[str, int] = {}

    # -- paths ---------------------------------------------------------------

    def log_path(self, digest: str) -> str:
        """The log file for *digest*."""
        return os.path.join(self.root, LOG_DIR, digest + LOG_SUFFIX)

    def _tmp_path(self, path: str) -> str:
        """A collision-free temp name next to *path* (same filesystem).

        Unique per (process, store, call), so two writers starting the
        same digest's log never share a temp file; both finish with an
        atomic replace and the last one wins.
        """
        with self._lock:
            self._tmp_counter += 1
            counter = self._tmp_counter
        return f"{path}.{os.getpid()}.{counter}.tmp"

    # -- writes --------------------------------------------------------------

    def put_snapshot(
        self,
        digest: str,
        program: str,
        database: str,
        answer: str,
    ) -> int:
        """Start *digest*'s log afresh with its base record; returns bytes written.

        Called at a cold admission, whose session is at version 0, with
        the program and database texts as admitted. Temp file + fsync +
        atomic replace + directory fsync: a reader (or a post-crash
        recovery) sees either the previous log or the new one. Replacing
        a log drops its deltas, which is right: the admission has just
        evaluated the texts from scratch.
        """
        record = _frame(
            {
                "acyclicity": ACYCLICITY,
                "answer": answer,
                "database": database,
                "digest": digest,
                "program": program,
                "v": 0,
            }
        )
        path = self.log_path(digest)
        directory = os.path.dirname(path)
        self.fs.makedirs(directory)
        tmp = self._tmp_path(path)
        handle = self.fs.open(tmp, "wb")
        try:
            self.fs.write(handle, record)
            self.fs.fsync(handle)
        finally:
            handle.close()
        self.fs.replace(tmp, path)
        self.fs.fsync_path(directory)
        with self._lock:
            self.snapshot_writes += 1
        return len(record)

    def append_wal(self, digest: str, version: int, lines: List[str]) -> None:
        """Append one committed delta to *digest*'s log, fsync'd on return.

        The record is one line (:meth:`_encode_wal_record`), so a torn
        append is detectable (missing newline, short line, or checksum
        mismatch) and truncatable without touching earlier records.
        """
        record = self._encode_wal_record(version, lines)
        handle = self.fs.open(self.log_path(digest), "ab")
        try:
            self.fs.write(handle, record)
            self.fs.fsync(handle)
        finally:
            handle.close()
        with self._lock:
            self.wal_appends += 1

    @staticmethod
    def _encode_wal_record(version: int, lines: List[str]) -> bytes:
        """The delta record ``{"lines": [...], "v": version}``, framed."""
        return _frame({"lines": list(lines), "v": version})

    def repair_log(self, digest: str, valid_bytes: int) -> None:
        """Truncate the log at the last complete record.

        Called during rehydration when :meth:`load_log` reported a torn
        tail, so later appends start on a clean line boundary.
        """
        try:
            self.fs.truncate(self.log_path(digest), valid_bytes)
        except OSError:
            # Repair is best-effort: a store that cannot repair serves
            # this rehydration correctly anyway (the salvaged records
            # were already read); the next one re-salvages.
            logger.warning("could not repair torn log tail for %s", digest)

    def invalidate(self, digest: str) -> None:
        """Drop the log of *digest* (best-effort).

        Used when durability for a digest can no longer be guaranteed —
        e.g. a delta append failed after the in-memory update was
        applied. A later rehydration then degrades to a clean cold
        admission instead of silently serving a state older than one the
        client saw acknowledged.
        """
        try:
            self.fs.remove(self.log_path(digest))
        except OSError:
            logger.warning("could not invalidate %s", digest)

    # -- reads ---------------------------------------------------------------

    def load_log(self, digest: str) -> Tuple[List[Dict], int, bool]:
        """Salvage *digest*'s log: ``(records, valid_bytes, torn_tail)``.

        Records are the payloads of the intact lines in file order, up
        to and excluding the first damaged line; ``valid_bytes`` is the
        file offset of that damage (callers repair by truncating there),
        and ``torn_tail`` says whether anything was dropped. Raises
        :class:`FileNotFoundError` when nothing is stored under *digest*
        and :class:`OSError` when the log cannot be read.
        """
        with open(self.log_path(digest), "rb") as handle:
            raw = handle.read()
        records: List[Dict] = []
        offset = 0
        while offset < len(raw):
            newline = raw.find(b"\n", offset)
            # A partial final line is the classic torn append; a damaged
            # line poisons the framing of everything after it. Either
            # way salvage stops here.
            record = None if newline < 0 else _unframe(raw[offset:newline])
            if record is None:
                return records, offset, True
            records.append(record)
            offset = newline + 1
        return records, offset, False

    def rehydrate(
        self,
        digest: str,
        parsed: Optional[Tuple[DatalogQuery, Database]] = None,
    ) -> Optional[ProvenanceSession]:
        """Rebuild the live session for *digest*, or ``None`` on a miss.

        Salvages the log (truncating a torn tail), checks the base
        against *digest* and :data:`ACYCLICITY`, checks that the deltas
        are stamped ``1, 2, ...``, applies them to the base's database,
        sets the session version to the last stamp and evaluates once.

        *parsed* is the ``(query, database)`` the caller already parsed
        from the admitted texts of *digest*; it spares parsing the base
        again. Its database becomes the session's and takes the deltas,
        but only once every check that can miss has passed: on a miss it
        is untouched.
        """
        try:
            records, valid_bytes, torn = self.load_log(digest)
        except FileNotFoundError:
            return self._miss(digest, "log-missing")
        except OSError:
            return self._miss(digest, "log-unreadable")
        if not records or records[0]["v"] != 0:
            return self._miss(digest, "log-base-damaged")
        base = records[0]
        if base["digest"] != digest:
            return self._miss(digest, "log-wrong-digest")
        if base["acyclicity"] != ACYCLICITY:
            return self._miss(digest, "log-knob-mismatch")
        if any(record["v"] != stamp for stamp, record in enumerate(records)):
            # Some committed state is unreachable: serving the prefix
            # could be stale relative to an acknowledged update.
            return self._miss(digest, "log-version-gap")
        if torn:
            logger.warning(
                "truncating torn log tail for %s at byte %d", digest, valid_bytes
            )
            self.repair_log(digest, valid_bytes)
        try:
            if parsed is None:
                query = DatalogQuery(parse_program(base["program"]), base["answer"])
                database = Database(parse_database(base["database"]))
            else:
                query, database = parsed
            deltas = [delta_from_lines(record["lines"]) for record in records[1:]]
            session = ProvenanceSession(query, database)
        except ValueError:
            return self._miss(digest, "log-replay-failed")
        edb = query.program.edb
        if any(fact.pred not in edb for delta in deltas for fact in delta.inserted):
            return self._miss(digest, "log-replay-failed")
        for delta in deltas:
            database.apply(delta)
        session.version = len(deltas)
        session.evaluation  # the one evaluation, paid before the first request
        with self._lock:
            self.rehydrations += 1
        return session

    def _miss(self, digest: str, reason: str) -> None:
        with self._lock:
            self.miss_reasons[reason] = self.miss_reasons.get(reason, 0) + 1
        # A digest that was simply never stored is the normal first-
        # admission case, not a degradation worth warning about.
        level = logging.DEBUG if reason == "log-missing" else logging.WARNING
        logger.log(
            level,
            "rehydration miss for %s (%s); falling back to cold admission",
            digest,
            reason,
        )
        return None

    # -- introspection -------------------------------------------------------

    def _log_names(self) -> List[str]:
        try:
            entries = os.listdir(os.path.join(self.root, LOG_DIR))
        except OSError:
            return []
        return [entry for entry in entries if entry.endswith(LOG_SUFFIX)]

    def stored_digests(self) -> List[str]:
        """Digests with a log on disk, sorted."""
        return sorted(name[: -len(LOG_SUFFIX)] for name in self._log_names())

    def disk_bytes(self) -> int:
        """Total bytes of the logs currently on disk."""
        total = 0
        for name in self._log_names():
            try:
                total += os.path.getsize(os.path.join(self.root, LOG_DIR, name))
            except OSError:
                pass
        return total

    def stats(self) -> Dict:
        """A JSON-ready summary for the service ``stats`` operation."""
        with self._lock:
            miss_reasons = dict(self.miss_reasons)
            snapshot_writes = self.snapshot_writes
            wal_appends = self.wal_appends
            rehydrations = self.rehydrations
        return {
            "root": self.root,
            "stored_digests": len(self.stored_digests()),
            "disk_bytes": self.disk_bytes(),
            "snapshot_writes": snapshot_writes,
            "wal_appends": wal_appends,
            "rehydrations": rehydrations,
            "miss_reasons": miss_reasons,
        }

    def __repr__(self) -> str:
        return f"SnapshotStore(root={self.root!r})"
