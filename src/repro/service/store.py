"""The durable warm-state tier: crash-safe snapshots plus a delta WAL.

The daemon's economics are "pay evaluation once, serve explanations
warm" — but a warm :class:`~repro.core.session.ProvenanceSession` lives
in process memory, so every restart re-pays the ~2s cold admission that
dwarfs a ~30ms warm hit. This module makes warm state survive the
process:

* :class:`SnapshotStore` — a content-addressed on-disk store mapping a
  registry digest to one **snapshot file** (a zlib-compressed pickled
  :class:`~repro.core.parallel.EvaluationSnapshot`, integrity-checked by
  length and SHA-256) and one per-session append-only **delta WAL**
  (one checksummed NDJSON record per committed ``update``, fsync'd
  before the response is sent).
* :meth:`SnapshotStore.rehydrate` — rebuild a live session from disk:
  unpickle the snapshot, then replay the WAL *suffix* (records whose
  version stamps extend the snapshot) through
  :meth:`~repro.core.session.ProvenanceSession.update` — incremental
  maintenance, never re-evaluation, so a rehydrated session still
  reports ``stats.evaluations == 1``.

Crash safety
------------

Every write is structured so that a crash at *any* instruction boundary
leaves the store serving either the previous consistent state or a clean
miss — never a torn state, never a silently wrong answer:

* snapshots are written to a unique temp file, fsync'd, then atomically
  :func:`os.replace`'d into place (readers only ever see the old file or
  the complete new one), and the directory entry is fsync'd;
* WAL records are one line each, ``crc32 <space> payload-json``; a torn
  tail (partial line, bad checksum, unparsable JSON) is truncated at the
  last complete record on recovery;
* a snapshot that is missing, short, or checksum-failing degrades to a
  **miss** (the registry falls back to cold evaluation);
* a WAL whose version stamps do not contiguously extend the snapshot
  (a gap — some committed state is unreachable) degrades to a miss
  rather than silently serving a stale state. Records *covered* by the
  snapshot (version ``<=`` the snapshot's) are skipped: that is the
  normal state right after a demotion compaction.

Write ordering makes demotion compaction safe: the fresh snapshot is
replaced into place **before** the WAL is reset, so a crash between the
two leaves a newer snapshot plus a fully-covered WAL (correct), never a
reset WAL guarding an old snapshot (stale).

Multi-process sharing
---------------------

A sharded daemon (``serve --workers N``) points every worker at the
*same* ``--state-dir``. That is safe without file locking because the
router's consistent-hash ring gives each content digest exactly one
owning worker at a time — a single writer per digest directory — and
every cross-digest operation here is already atomic (temp file +
``os.replace``; ``makedirs(exist_ok=True)``). The store also carries
warm state across restarts: when the supervisor respawns a crashed
worker, the replacement rehydrates the digests it owns from disk instead
of re-evaluating (see :mod:`repro.service.shard` and
``tests/test_shard_chaos.py``).

Fault injection
---------------

All mutating filesystem operations go through one injectable seam
(:class:`StoreFS`), so the test harness (``tests/faultinject.py``) can
crash the store at the N-th write / fsync / replace / truncate and prove
the recovery contract for every boundary — see
``tests/test_store_faults.py`` and ``docs/PERSISTENCE.md``.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import threading
import zlib
from typing import Dict, List, Optional, Tuple

from ..core.parallel import EvaluationSnapshot
from ..core.session import ProvenanceSession
from ..datalog.io import delta_from_lines

logger = logging.getLogger("repro.service.store")

#: First line of every snapshot file; a version bump here invalidates
#: old snapshots cleanly (they degrade to a miss, never misparse).
SNAPSHOT_MAGIC = b"%repro-snapshot 1\n"

#: File-name suffixes of the two per-digest artifacts.
SNAPSHOT_SUFFIX = ".snap"
WAL_SUFFIX = ".wal"


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
        """Truncate *path* to *length* bytes (torn-WAL-tail repair)."""
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
    """Digest-addressed snapshots plus per-session delta WALs on disk.

    Parameters
    ----------
    root:
        The state directory (created on first use). Layout::

            <root>/snapshots/<digest>.snap
            <root>/wal/<digest>.wal

    fs:
        The filesystem seam (:class:`StoreFS`); tests inject a crashing
        wrapper here.
    compress_level:
        zlib level for snapshot bodies (snapshots compress ~5-10x — the
        instance trace is highly repetitive).

    Thread safety: one store-wide lock serializes mutations. Callers
    that must keep the WAL ordered against session versions (the
    registry) additionally hold the session lock around
    :meth:`append_wal` and around the demotion compaction — see
    ``registry.py``.
    """

    def __init__(
        self,
        root: str,
        fs: Optional[StoreFS] = None,
        compress_level: int = 6,
    ):
        self.root = root
        self.fs = fs if fs is not None else StoreFS()
        self.compress_level = compress_level
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

    def snapshot_path(self, digest: str) -> str:
        """The snapshot file for *digest*."""
        return os.path.join(self.root, "snapshots", digest + SNAPSHOT_SUFFIX)

    def wal_path(self, digest: str) -> str:
        """The WAL file for *digest*."""
        return os.path.join(self.root, "wal", digest + WAL_SUFFIX)

    def _ensure_layout(self) -> None:
        self.fs.makedirs(os.path.join(self.root, "snapshots"))
        self.fs.makedirs(os.path.join(self.root, "wal"))

    def _tmp_path(self, path: str) -> str:
        """A collision-free temp name next to *path* (same filesystem).

        Unique per (process, store, call) so concurrent writers of one
        digest — the double-demotion race — never share a temp file;
        both finish with an atomic replace and the last one wins.
        """
        with self._lock:
            self._tmp_counter += 1
            counter = self._tmp_counter
        return f"{path}.{os.getpid()}.{counter}.tmp"

    # -- snapshot writes -----------------------------------------------------

    def put_snapshot(self, digest: str, version: int, blob: bytes) -> int:
        """Durably store *blob* (pickled snapshot bytes) under *digest*.

        Temp-file + fsync + atomic replace + directory fsync: a reader
        (or a post-crash recovery) sees either the previous snapshot or
        the complete new one. Returns the on-disk byte size.
        """
        self._ensure_layout()
        body = zlib.compress(blob, self.compress_level)
        header = {
            "digest": digest,
            "version": version,
            "length": len(body),
            "sha256": hashlib.sha256(body).hexdigest(),
            "compression": "zlib",
        }
        header_line = (
            json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n"
        ).encode("utf-8")
        path = self.snapshot_path(digest)
        tmp = self._tmp_path(path)
        handle = self.fs.open(tmp, "wb")
        try:
            self.fs.write(handle, SNAPSHOT_MAGIC + header_line + body)
            self.fs.fsync(handle)
        finally:
            handle.close()
        self.fs.replace(tmp, path)
        self.fs.fsync_path(os.path.dirname(path))
        with self._lock:
            self.snapshot_writes += 1
        return len(SNAPSHOT_MAGIC) + len(header_line) + len(body)

    def load_snapshot(self, digest: str) -> Optional[Tuple[int, bytes]]:
        """Read and verify the snapshot: ``(version, blob)`` or ``None``.

        Every failure mode — missing file, bad magic/header, short body
        (torn write), checksum mismatch, decompression error — is a
        counted, logged miss, never an exception.
        """
        path = self.snapshot_path(digest)
        try:
            with open(path, "rb") as handle:
                magic = handle.readline()
                if magic != SNAPSHOT_MAGIC:
                    return self._miss(digest, "snapshot-bad-magic")
                try:
                    header = json.loads(handle.readline().decode("utf-8"))
                    length = int(header["length"])
                    version = int(header["version"])
                    sha256 = header["sha256"]
                    stamped = header["digest"]
                except (ValueError, KeyError, TypeError, UnicodeDecodeError):
                    return self._miss(digest, "snapshot-bad-header")
                body = handle.read()
        except FileNotFoundError:
            return self._miss(digest, "snapshot-missing")
        except OSError:
            return self._miss(digest, "snapshot-unreadable")
        if stamped != digest:
            return self._miss(digest, "snapshot-wrong-digest")
        if len(body) != length:
            return self._miss(digest, "snapshot-torn")
        if hashlib.sha256(body).hexdigest() != sha256:
            return self._miss(digest, "snapshot-checksum")
        try:
            blob = zlib.decompress(body)
        except zlib.error:
            return self._miss(digest, "snapshot-undecompressable")
        return version, blob

    # -- WAL writes ----------------------------------------------------------

    def append_wal(self, digest: str, version: int, lines: List[str]) -> None:
        """Append one committed delta, fsync'd before this call returns.

        The record is one line — ``crc32(payload) <space> payload`` with
        the payload a compact JSON object ``{"lines": [...], "v": N}`` —
        so a torn append is detectable (missing newline, short line, or
        checksum mismatch) and truncatable without touching earlier
        records.
        """
        self._ensure_layout()
        record = self._encode_wal_record(version, lines)
        path = self.wal_path(digest)
        handle = self.fs.open(path, "ab")
        try:
            self.fs.write(handle, record)
            self.fs.fsync(handle)
        finally:
            handle.close()
        with self._lock:
            self.wal_appends += 1

    @staticmethod
    def _encode_wal_record(version: int, lines: List[str]) -> bytes:
        payload = json.dumps(
            {"lines": list(lines), "v": version},
            sort_keys=True,
            separators=(",", ":"),
        ).encode("utf-8")
        crc = zlib.crc32(payload) & 0xFFFFFFFF
        return b"%08x %s\n" % (crc, payload)

    def reset_wal(self, digest: str) -> None:
        """Atomically replace the WAL with an empty one (compaction).

        Only called *after* a successful :meth:`put_snapshot` at the
        session's current version, so a crash before the replace leaves
        a WAL that the new snapshot fully covers (its records are
        skipped on rehydration) — correct either way.
        """
        self._ensure_layout()
        path = self.wal_path(digest)
        tmp = self._tmp_path(path)
        handle = self.fs.open(tmp, "wb")
        try:
            self.fs.fsync(handle)
        finally:
            handle.close()
        self.fs.replace(tmp, path)
        self.fs.fsync_path(os.path.dirname(path))

    def load_wal(self, digest: str) -> Tuple[List[Tuple[int, List[str]]], int, bool]:
        """Salvage the WAL: ``(records, valid_bytes, torn_tail)``.

        Records are ``(version, delta_lines)`` in file order, up to and
        excluding the first damaged line; ``valid_bytes`` is the file
        offset of that damage (callers repair by truncating there), and
        ``torn_tail`` says whether anything was dropped.
        """
        path = self.wal_path(digest)
        try:
            with open(path, "rb") as handle:
                raw = handle.read()
        except FileNotFoundError:
            return [], 0, False
        except OSError:
            return [], 0, False
        records: List[Tuple[int, List[str]]] = []
        offset = 0
        torn = False
        while offset < len(raw):
            newline = raw.find(b"\n", offset)
            if newline < 0:
                torn = True  # partial final line: the classic torn append
                break
            line = raw[offset : newline]
            parsed = self._decode_wal_line(line)
            if parsed is None:
                # A damaged line poisons the framing of everything after
                # it; salvage stops here and the tail is truncated.
                torn = True
                break
            records.append(parsed)
            offset = newline + 1
        return records, offset, torn

    @staticmethod
    def _decode_wal_line(line: bytes) -> Optional[Tuple[int, List[str]]]:
        try:
            crc_text, payload = line.split(b" ", 1)
            if int(crc_text, 16) != (zlib.crc32(payload) & 0xFFFFFFFF):
                return None
            record = json.loads(payload.decode("utf-8"))
            version = record["v"]
            lines = record["lines"]
            if not isinstance(version, int) or not isinstance(lines, list):
                return None
            if not all(isinstance(entry, str) for entry in lines):
                return None
        except (ValueError, KeyError, TypeError, UnicodeDecodeError):
            return None
        return version, lines

    def repair_wal(self, digest: str, valid_bytes: int) -> None:
        """Truncate the WAL at the last complete record.

        Called during rehydration when :meth:`load_wal` reported a torn
        tail, so subsequent appends start on a clean line boundary.
        """
        path = self.wal_path(digest)
        try:
            self.fs.truncate(path, valid_bytes)
        except OSError:
            # Repair is best-effort: a store that cannot repair serves
            # this rehydration correctly anyway (the salvaged records
            # were already read); the next one re-salvages.
            logger.warning("could not repair torn WAL tail for %s", digest)

    def invalidate(self, digest: str) -> None:
        """Drop both artifacts of *digest* (best-effort).

        Used when durability for a digest can no longer be guaranteed —
        e.g. a WAL append failed after the in-memory update was applied.
        A later rehydration then degrades to a clean cold admission
        instead of silently serving a state older than one the client
        saw acknowledged.
        """
        for path in (self.snapshot_path(digest), self.wal_path(digest)):
            try:
                self.fs.remove(path)
            except OSError:
                logger.warning("could not invalidate %s", path)

    # -- rehydration ---------------------------------------------------------

    def rehydrate(
        self,
        digest: str,
        method: Optional[str] = None,
        acyclicity: Optional[str] = None,
    ) -> Optional[ProvenanceSession]:
        """Rebuild the live session for *digest*, or ``None`` on a miss.

        Unpickles the verified snapshot, restores a session around it
        (marking the one evaluation as already paid —
        ``stats.evaluations`` reports 1), then replays the WAL suffix
        through :meth:`~repro.core.session.ProvenanceSession.update`:
        records covered by the snapshot are skipped, the remainder must
        extend it contiguously (version stamps ``S+1, S+2, ...``) or the
        whole digest degrades to a miss. ``method`` / ``acyclicity``
        guard against serving a snapshot built under different
        evaluation knobs (possible only if state directories are mixed
        across differently-configured registries).
        """
        loaded = self.load_snapshot(digest)
        if loaded is None:
            return None
        snapshot_version, blob = loaded
        try:
            snapshot = EvaluationSnapshot.from_bytes(blob)
        except Exception:
            return self._miss(digest, "snapshot-unpicklable")
        if method is not None and snapshot.method != method:
            return self._miss(digest, "snapshot-knob-mismatch")
        if acyclicity is not None and snapshot.acyclicity != acyclicity:
            return self._miss(digest, "snapshot-knob-mismatch")
        records, valid_bytes, torn = self.load_wal(digest)
        if torn:
            logger.warning(
                "truncating torn WAL tail for %s at byte %d", digest, valid_bytes
            )
            self.repair_wal(digest, valid_bytes)
        try:
            session = snapshot.restore()
        except Exception:
            return self._miss(digest, "snapshot-restore-failed")
        session.mark_rehydrated()
        expected = snapshot_version + 1
        for version, lines in records:
            if version < expected:
                continue  # covered by the snapshot (post-demotion WAL)
            if version > expected:
                # A gap: some committed state is unreachable. Serving the
                # snapshot alone could be *stale* relative to an
                # acknowledged update, so the digest degrades to a miss.
                return self._miss(digest, "wal-version-gap")
            try:
                delta = delta_from_lines(lines)
                receipt = session.update(delta)
            except Exception:
                return self._miss(digest, "wal-replay-failed")
            if receipt.version != version or session.version != version:
                return self._miss(digest, "wal-version-mismatch")
            expected = version + 1
        with self._lock:
            self.rehydrations += 1
        return session

    def _miss(self, digest: str, reason: str) -> None:
        with self._lock:
            self.miss_reasons[reason] = self.miss_reasons.get(reason, 0) + 1
        # A digest that was simply never stored is the normal first-
        # admission case, not a degradation worth warning about.
        level = logging.DEBUG if reason == "snapshot-missing" else logging.WARNING
        logger.log(
            level,
            "rehydration miss for %s (%s); falling back to cold admission",
            digest,
            reason,
        )
        return None

    # -- introspection -------------------------------------------------------

    def stored_digests(self) -> List[str]:
        """Digests with a snapshot on disk, sorted."""
        directory = os.path.join(self.root, "snapshots")
        try:
            entries = os.listdir(directory)
        except OSError:
            return []
        return sorted(
            entry[: -len(SNAPSHOT_SUFFIX)]
            for entry in entries
            if entry.endswith(SNAPSHOT_SUFFIX)
        )

    def disk_bytes(self) -> int:
        """Total bytes of snapshots plus WALs currently on disk."""
        total = 0
        for sub in ("snapshots", "wal"):
            directory = os.path.join(self.root, sub)
            try:
                entries = os.listdir(directory)
            except OSError:
                continue
            for entry in entries:
                try:
                    total += os.path.getsize(os.path.join(directory, entry))
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
