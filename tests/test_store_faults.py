"""Crash-point enumeration for the durable store.

The store's contract (``docs/PERSISTENCE.md``): a crash at *any*
filesystem-operation boundary leaves a reopened store serving the
previous consistent state, the fully-committed new one, or a clean miss
— never a torn state, never an exception, never a state older than an
acknowledged update. These tests prove it by brute force: run each
write workload once under a counting :class:`faultinject.CrashingFS` to
enumerate its operations, then re-run it once per operation index with
the crash injected there (with and without torn half-writes) and assert
the recovery invariant on a reopened store each time. Hypothesis
generalizes the sweep over random delta sequences, base sequences and
crash indices.
"""

import shutil
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faultinject import CrashingFS, SimulatedCrash
from repro.core.session import ProvenanceSession
from repro.datalog.io import delta_to_lines
from repro.scenarios.synthetic import generate_instance
from repro.service.store import SnapshotStore

#: A syntactically plausible registry digest (the store treats it as an
#: opaque filename component + base-record stamp).
DIGEST = "f" * 64

#: The base-record texts of the synthetic sweeps; the store does not
#: parse them until a rehydration.
BASE = {
    "program": "tc(X, Y) :- e(X, Y).",
    "database": "e(a, b).",
    "answer": "tc",
}


def _put(store, database=BASE["database"]):
    return store.put_snapshot(DIGEST, **{**BASE, "database": database})


def _salvage(root):
    """The records a reopened store reads back, or ``None`` if no log."""
    try:
        records, _, _ = SnapshotStore(str(root)).load_log(DIGEST)
    except FileNotFoundError:
        return None
    return records


def _assert_repair_is_exact(root):
    """Truncating a torn tail keeps exactly the salvaged records."""
    store = SnapshotStore(str(root))
    records, valid_bytes, torn = store.load_log(DIGEST)
    if torn:
        store.repair_log(DIGEST, valid_bytes)
        again, valid_again, torn_again = store.load_log(DIGEST)
        assert not torn_again
        assert again == records
        assert valid_again == valid_bytes
    return records


# -- deterministic sweeps ------------------------------------------------------


def test_snapshot_overwrite_recovers_old_or_new_at_every_crash_point(tmp_path):
    def seed(root):
        store = SnapshotStore(str(root))
        _put(store, "e(a, b).")
        store.append_wal(DIGEST, 1, ["+e(b, c)."])

    counting = CrashingFS()
    counted_root = tmp_path / "count"
    seed(counted_root)
    old = _salvage(counted_root)
    _put(SnapshotStore(str(counted_root), fs=counting), "e(x, y).")
    new = _salvage(counted_root)
    assert counting.ops, "the sweep below must cover at least one operation"
    assert len(old) == 2 and len(new) == 1

    for torn in (False, True):
        for crash_at in range(len(counting.ops)):
            root = tmp_path / f"{'torn' if torn else 'clean'}-{crash_at}"
            seed(root)
            crashing = SnapshotStore(
                str(root), fs=CrashingFS(crash_at=crash_at, torn=torn)
            )
            with pytest.raises(SimulatedCrash):
                _put(crashing, "e(x, y).")
            assert _salvage(root) in (old, new)


def test_first_snapshot_write_recovers_new_or_clean_miss(tmp_path):
    counting = CrashingFS()
    _put(SnapshotStore(str(tmp_path / "count"), fs=counting))
    new = _salvage(tmp_path / "count")

    for torn in (False, True):
        for crash_at in range(len(counting.ops)):
            root = tmp_path / f"{'torn' if torn else 'clean'}-{crash_at}"
            crashing = SnapshotStore(
                str(root), fs=CrashingFS(crash_at=crash_at, torn=torn)
            )
            with pytest.raises(SimulatedCrash):
                _put(crashing)
            assert _salvage(root) in (None, new)


def test_wal_append_preserves_prior_records_at_every_crash_point(tmp_path):
    prior = [(1, ["+e(1,2)."]), (2, ["-e(1,2).", "+e(2,3)."])]
    new_record = (3, ["+e(3,4).", "-e(0,1)."])

    def seed(root):
        store = SnapshotStore(str(root))
        _put(store)
        for version, lines in prior:
            store.append_wal(DIGEST, version, lines)

    counting = CrashingFS()
    counted_root = tmp_path / "count"
    seed(counted_root)
    seeded = _salvage(counted_root)
    SnapshotStore(str(counted_root), fs=counting).append_wal(DIGEST, *new_record)
    appended = _salvage(counted_root)
    assert appended[:-1] == seeded
    assert appended[-1] == {"lines": new_record[1], "v": new_record[0]}

    for torn in (False, True):
        for crash_at in range(len(counting.ops)):
            root = tmp_path / f"{'torn' if torn else 'clean'}-{crash_at}"
            seed(root)
            crashing = SnapshotStore(
                str(root), fs=CrashingFS(crash_at=crash_at, torn=torn)
            )
            with pytest.raises(SimulatedCrash):
                crashing.append_wal(DIGEST, *new_record)
            assert _assert_repair_is_exact(root) in (seeded, appended)


def test_session_workload_crash_sweep_rehydrates_consistently(tmp_path):
    """The end-to-end contract over a real session's durable workload.

    Admission base record + per-update appends, crashed at every
    operation boundary: the reopened store must either rehydrate a
    session at a version between the acknowledged appends and one more
    (and its answers must match a cold session at that exact version),
    or report a clean miss — the latter only when the base record never
    committed.
    """
    instance = generate_instance("chain", size=8, seed=5, delta_rounds=3)
    answer = instance.query.answer_predicate

    def workload(store, progress):
        """Counts *acknowledged* appends in ``progress`` (a crash
        propagates out of this function, so the count lives outside it)."""
        session = ProvenanceSession(instance.query, instance.database.copy())
        store.put_snapshot(
            DIGEST,
            instance.program_text(),
            instance.database_text(),
            answer,
        )
        for delta in instance.deltas:
            receipt = session.update(delta)
            if receipt.effective.is_empty():
                continue
            store.append_wal(
                DIGEST, receipt.version, delta_to_lines(receipt.effective)
            )
            progress["acked"] += 1

    # Reference run: answers at every version the workload passes through.
    reference_progress = {"acked": 0}
    workload(SnapshotStore(str(tmp_path / "reference")), reference_progress)
    assert reference_progress["acked"] > 0, "the instance must exercise the log"
    answers_by_version = {}
    replay = ProvenanceSession(instance.query, instance.database.copy())
    answers_by_version[replay.version] = replay.answers()
    for delta in instance.deltas:
        replay.update(delta)
        answers_by_version[replay.version] = replay.answers()

    counting = CrashingFS()
    workload(SnapshotStore(str(tmp_path / "count"), fs=counting), {"acked": 0})
    assert len(counting.ops) > 6

    for torn in (False, True):
        for crash_at in range(len(counting.ops)):
            root = tmp_path / f"{'torn' if torn else 'clean'}-{crash_at}"
            progress = {"acked": 0}
            try:
                workload(
                    SnapshotStore(
                        str(root), fs=CrashingFS(crash_at=crash_at, torn=torn)
                    ),
                    progress,
                )
            except SimulatedCrash:
                pass
            acked = progress["acked"]
            store = SnapshotStore(str(root))
            session = store.rehydrate(DIGEST)
            if session is None:
                # A miss is only clean while nothing was ever acknowledged
                # durable — i.e. the base record never committed.
                assert acked == 0
                assert store.miss_reasons == {"log-missing": 1}
            else:
                assert acked <= session.version <= acked + 1
                assert session.stats.evaluations == 1
                assert session.answers() == answers_by_version[session.version]


# -- hypothesis: the same invariants over generated inputs ---------------------

printable = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=24
)


@given(
    records=st.lists(st.lists(printable, max_size=3), min_size=1, max_size=5),
    crash_at=st.integers(min_value=0, max_value=40),
    torn=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_wal_crash_property(records, crash_at, torn):
    """Salvage = the base, the completed appends, at most the in-flight one."""
    root = tempfile.mkdtemp(prefix="repro-wal-prop-")
    try:
        _put(SnapshotStore(root))
        store = SnapshotStore(root, fs=CrashingFS(crash_at=crash_at, torn=torn))
        completed = 0
        try:
            for version, lines in enumerate(records, start=1):
                store.append_wal(DIGEST, version, lines)
                completed += 1
        except SimulatedCrash:
            pass
        salvaged = _assert_repair_is_exact(root)
        assert salvaged[0]["v"] == 0
        expected = [
            {"lines": list(lines), "v": v} for v, lines in enumerate(records, start=1)
        ]
        assert salvaged[1:] in (expected[:completed], expected[: completed + 1])
    finally:
        shutil.rmtree(root, ignore_errors=True)


@given(
    databases=st.lists(printable, min_size=1, max_size=3),
    crash_at=st.integers(min_value=0, max_value=30),
    torn=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_snapshot_crash_property(databases, crash_at, torn):
    """The visible log is always a whole base the caller wrote."""
    root = tempfile.mkdtemp(prefix="repro-snap-prop-")
    try:
        store = SnapshotStore(root, fs=CrashingFS(crash_at=crash_at, torn=torn))
        completed = 0
        try:
            for database in databases:
                _put(store, database)
                completed += 1
        except SimulatedCrash:
            pass
        records = _salvage(root)
        if records is None:
            assert completed == 0
        else:
            (base,) = records
            assert base["database"] in databases[max(0, completed - 1) : completed + 1]
    finally:
        shutil.rmtree(root, ignore_errors=True)
