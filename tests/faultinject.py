"""Fault injection for the durable store.

The store routes every mutating filesystem operation through
one seam (:class:`repro.service.store.StoreFS`). :class:`CrashingFS`
wraps that seam with a global operation counter and raises
:class:`SimulatedCrash` *instead of performing* the N-th operation —
after which every further operation raises too, because a crashed
process performs nothing. Run the same workload twice and you have a
complete crash-point enumeration:

    counting = CrashingFS()            # crash_at=None: count only
    workload(SnapshotStore(root, fs=counting))
    for crash_at in range(len(counting.ops)):
        fs = CrashingFS(crash_at=crash_at)
        with pytest.raises(SimulatedCrash):
            workload(SnapshotStore(fresh_root, fs=fs))
        # ... reopen fresh_root with a real StoreFS and assert recovery

``torn=True`` additionally models the half-written sector: when the
crashed operation is a ``write``, the first half of the payload reaches
the file before the crash. That is the input the log's torn-tail
salvage and per-record checksums exist for.

Reads are deliberately un-instrumented, mirroring the seam itself:
recovery code must read whatever the crash left behind.
"""

from typing import Callable, List, Optional, Tuple

from repro.service.store import StoreFS


class SimulatedCrash(RuntimeError):
    """The injected process death: raised in place of a filesystem op."""


class CrashingFS(StoreFS):
    """A :class:`StoreFS` that dies at the N-th mutating operation.

    Parameters
    ----------
    crash_at:
        Zero-based index (into :attr:`ops`) of the operation to crash
        on, or ``None`` to only count. The crashed operation itself is
        *not* performed (except a torn prefix, below), and every later
        operation raises :class:`SimulatedCrash` as well.
    torn:
        When the crashed operation is a ``write``, first write the first
        half of the payload — a torn append / torn temp file.
    """

    def __init__(self, crash_at: Optional[int] = None, torn: bool = False):
        self.crash_at = crash_at
        self.torn = torn
        #: Every mutating operation observed, in order: ``(name, detail)``.
        self.ops: List[Tuple[str, str]] = []
        self.crashed = False

    def _tick(self, name: str, detail: str, torn_write: Optional[Callable] = None):
        if self.crashed:
            raise SimulatedCrash(f"{name} on dead process")
        index = len(self.ops)
        self.ops.append((name, detail))
        if self.crash_at is not None and index == self.crash_at:
            self.crashed = True
            if torn_write is not None and self.torn:
                torn_write()
            raise SimulatedCrash(f"op {index}: {name} {detail}")

    # -- instrumented operations ----------------------------------------------

    def open(self, path: str, mode: str):
        """Count opens that create or extend a file; pass reads through."""
        if "w" in mode or "a" in mode:
            self._tick("open", f"{path} {mode}")
        return super().open(path, mode)

    def write(self, handle, data: bytes) -> None:
        """Count; on a torn crash, half the payload lands first."""
        self._tick(
            "write",
            f"{len(data)} bytes",
            torn_write=lambda: StoreFS.write(self, handle, data[: len(data) // 2]),
        )
        super().write(handle, data)

    def fsync(self, handle) -> None:
        """Count: a crash here leaves the write visible but un-synced."""
        self._tick("fsync", "handle")
        super().fsync(handle)

    def fsync_path(self, path: str) -> None:
        """Count: a crash here leaves the rename visible but un-synced."""
        self._tick("fsync_path", path)
        super().fsync_path(path)

    def replace(self, source: str, destination: str) -> None:
        """Count: the atomic commit point of a new log."""
        self._tick("replace", destination)
        super().replace(source, destination)

    def truncate(self, path: str, length: int) -> None:
        """Count: torn-tail repair is itself a crash point."""
        self._tick("truncate", f"{path}@{length}")
        super().truncate(path, length)

    def remove(self, path: str) -> None:
        """Count: invalidation deletes are crash points too."""
        self._tick("remove", path)
        super().remove(path)

    def makedirs(self, path: str) -> None:
        """Count only the first creation of each directory."""
        import os

        if not os.path.isdir(path):
            self._tick("makedirs", path)
        super().makedirs(path)
