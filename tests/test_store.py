"""The store's corruption matrix and registry-level recovery.

Complementary to ``test_store_faults.py`` (which enumerates crash
points): here the on-disk log is damaged *byte-wise* — truncated base
record, bit-flipped base, torn delta line, version-gapped log, unreadable
log — and the contract under test is the soft half of recovery: every
kind of damage degrades to a cold admission with a counted, logged
reason, and is never surfaced to the client as an exception or a
silently wrong answer.
"""

import logging
import os
import threading

import pytest

from repro.datalog.io import delta_from_lines
from repro.scenarios.synthetic import generate_instance
from repro.service.protocol import ServiceError
from repro.service.registry import SessionRegistry
from repro.service.store import SnapshotStore, _frame, _unframe


@pytest.fixture
def instance():
    return generate_instance("chain", size=8, seed=11, delta_rounds=2)


def _texts(instance):
    return (
        instance.program_text(),
        instance.database_text(),
        instance.query.answer_predicate,
    )


def _admit(state_dir, instance):
    registry = SessionRegistry(store=SnapshotStore(str(state_dir)))
    entry, admitted = registry.acquire(*_texts(instance))
    assert admitted and not entry.rehydrated
    return registry, entry


def _reacquire(state_dir, instance):
    """A 'restarted daemon': a fresh registry over the same state dir."""
    store = SnapshotStore(str(state_dir))
    registry = SessionRegistry(store=store)
    entry, admitted = registry.acquire(*_texts(instance))
    assert admitted
    return store, entry


def _forge_base(registry, entry, **fields):
    """Rewrite the base record of *entry*'s log with *fields*; return the old one."""
    path = registry.store.log_path(entry.digest)
    with open(path, "rb") as handle:
        base, *deltas = handle.read().splitlines(keepends=True)
    record = _unframe(base.rstrip(b"\n"))
    with open(path, "wb") as handle:
        handle.write(_frame({**record, **fields}) + b"".join(deltas))
    return record


def _apply_deltas(registry, entry, deltas):
    """Commit *deltas* the way the server does: update, then log it."""
    for delta in deltas:
        with entry.lock:
            receipt = entry.session.update(delta)
            registry.record_update(entry, receipt)


# -- the corruption matrix -----------------------------------------------------


def test_truncated_snapshot_degrades_to_cold_admission(tmp_path, instance, caplog):
    registry, entry = _admit(tmp_path, instance)
    expected = entry.session.answers()
    path = registry.store.log_path(entry.digest)
    with open(path, "rb") as handle:
        data = handle.read()
    with open(path, "wb") as handle:
        handle.write(data[:-10])  # the base record loses its tail

    with caplog.at_level(logging.WARNING, logger="repro.service.store"):
        store, recovered = _reacquire(tmp_path, instance)
    assert not recovered.rehydrated  # cold fallback, not rehydration
    assert recovered.session.answers() == expected
    assert store.miss_reasons == {"log-base-damaged": 1}
    assert "log-base-damaged" in caplog.text


def test_bit_flipped_snapshot_body_fails_checksum(tmp_path, instance, caplog):
    registry, entry = _admit(tmp_path, instance)
    expected = entry.session.answers()
    path = registry.store.log_path(entry.digest)
    with open(path, "rb") as handle:
        data = handle.read()
    middle = len(data) // 2
    # A letter of the JSON payload becomes another letter: the line still
    # parses, so only the checksum can trip.
    flipped = data[:middle] + bytes([data[middle] ^ 0x01]) + data[middle + 1 :]
    assert len(flipped) == len(data)
    with open(path, "wb") as handle:
        handle.write(flipped)

    with caplog.at_level(logging.WARNING, logger="repro.service.store"):
        store, recovered = _reacquire(tmp_path, instance)
    assert not recovered.rehydrated
    assert recovered.session.answers() == expected
    assert store.miss_reasons == {"log-base-damaged": 1}
    assert "log-base-damaged" in caplog.text


def test_torn_final_wal_line_is_truncated_and_replay_succeeds(
    tmp_path, instance, caplog
):
    registry, entry = _admit(tmp_path, instance)
    _apply_deltas(registry, entry, instance.deltas)
    expected = entry.session.answers()
    version = entry.session.version
    assert version > 0, "the instance must produce effective updates"

    path = registry.store.log_path(entry.digest)
    with open(path, "ab") as handle:
        handle.write(b"deadbeef {this is not a committed record")

    with caplog.at_level(logging.WARNING, logger="repro.service.store"):
        store, recovered = _reacquire(tmp_path, instance)
    assert recovered.rehydrated  # the valid prefix still serves
    assert recovered.session.version == version
    assert recovered.session.answers() == expected
    assert "torn log tail" in caplog.text
    with open(path, "rb") as handle:
        repaired = handle.read()
    assert not repaired.endswith(b"committed record")  # tail truncated


def test_wal_version_gap_degrades_to_cold_admission(tmp_path, instance, caplog):
    registry, entry = _admit(tmp_path, instance)
    expected = entry.session.answers()
    # The base is version 0; a record stamped v=2 leaves committed
    # version 1 unreachable, so serving the log could be stale.
    registry.store.append_wal(entry.digest, 2, ["+c_e(n1, n2)."])

    with caplog.at_level(logging.WARNING, logger="repro.service.store"):
        store, recovered = _reacquire(tmp_path, instance)
    assert not recovered.rehydrated
    assert recovered.session.answers() == expected
    assert store.miss_reasons == {"log-version-gap": 1}
    assert "log-version-gap" in caplog.text


def test_knob_mismatch_is_a_counted_miss(tmp_path, instance):
    """A base naming the transitive-closure encoding was written by a
    daemon started with ``--acyclicity transitive-closure``; it misses."""
    registry, entry = _admit(tmp_path, instance)
    expected = entry.session.answers()
    record = _forge_base(registry, entry, acyclicity="transitive-closure")
    assert record["acyclicity"] == "vertex-elimination"

    store, recovered = _reacquire(tmp_path, instance)
    assert not recovered.rehydrated
    assert recovered.session.answers() == expected
    assert store.miss_reasons == {"log-knob-mismatch": 1}


def test_default_daemon_log_still_rehydrates(tmp_path, instance):
    """Every log a daemon wrote while the acyclicity encoding was a knob,
    run at its default, names ``"vertex-elimination"``; it still serves."""
    registry, entry = _admit(tmp_path, instance)
    _apply_deltas(registry, entry, instance.deltas)
    expected = entry.session.answers()
    version = entry.session.version
    record = _forge_base(registry, entry, acyclicity="vertex-elimination")
    assert record["acyclicity"] == "vertex-elimination"

    store, recovered = _reacquire(tmp_path, instance)
    assert recovered.rehydrated
    assert recovered.session.version == version
    assert recovered.session.answers() == expected
    assert store.miss_reasons == {}


def test_base_record_carrying_method_still_rehydrates(tmp_path, instance):
    """Every log written while the evaluation method was a registry knob
    has ``"method": "seminaive"`` in its base record; it still serves."""
    registry, entry = _admit(tmp_path, instance)
    _apply_deltas(registry, entry, instance.deltas)
    expected = entry.session.answers()
    version = entry.session.version
    record = _forge_base(registry, entry, method="seminaive")
    assert "method" not in record

    store, recovered = _reacquire(tmp_path, instance)
    assert recovered.rehydrated
    assert recovered.session.version == version
    assert recovered.session.answers() == expected
    assert store.miss_reasons == {}


def test_unreadable_log_is_a_counted_miss(tmp_path):
    program = "tc(X, Y) :- e(X, Y). tc(X, Z) :- tc(X, Y), e(Y, Z)."
    database = "e(a, b). e(b, c)."
    registry = SessionRegistry(store=SnapshotStore(str(tmp_path)))
    entry, _ = registry.acquire(program, database, "tc")
    assert len(entry.session.answers()) == 3
    _apply_deltas(registry, entry, [delta_from_lines(["+e(c, d)."])])
    assert entry.session.version == 1
    assert len(entry.session.answers()) == 6

    # The acknowledged update is on disk, but the log cannot be read:
    # serving the admitted texts as if nothing were stored would be
    # stale, so the store must count a miss, not report "never stored".
    path = registry.store.log_path(entry.digest)
    os.remove(path)
    os.mkdir(path)
    store = SnapshotStore(str(tmp_path))
    assert store.rehydrate(entry.digest) is None
    assert store.miss_reasons == {"log-unreadable": 1}
    recovered, admitted = SessionRegistry(store=store).acquire(program, database, "tc")
    assert admitted and not recovered.rehydrated
    assert recovered.session.version == 0
    assert store.miss_reasons == {"log-unreadable": 2}


def test_concurrent_double_snapshot_put_is_safe(tmp_path, instance):
    registry, entry = _admit(tmp_path, instance)
    expected = entry.session.answers()
    store = registry.store
    barrier = threading.Barrier(2)
    errors = []

    def put():
        barrier.wait()
        try:
            store.put_snapshot(
                entry.digest,
                instance.program_text(),
                instance.database_text(),
                entry.answer,
            )
        except Exception as exc:  # pragma: no cover - the failure under test
            errors.append(exc)

    threads = [threading.Thread(target=put) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
        assert not thread.is_alive()
    assert errors == []
    assert store.snapshot_writes == 3
    recovered = SnapshotStore(str(tmp_path)).rehydrate(entry.digest)
    assert recovered is not None
    assert recovered.answers() == expected


# -- registry semantics around the store ---------------------------------------


def test_unknown_digest_still_raises_unknown_session(tmp_path):
    registry = SessionRegistry(store=SnapshotStore(str(tmp_path)))
    with pytest.raises(ServiceError) as excinfo:
        registry.get("0" * 16)
    assert excinfo.value.code == "unknown-session"


def test_evicted_digest_get_rehydrates_transparently(tmp_path, instance):
    registry = SessionRegistry(max_sessions=1, store=SnapshotStore(str(tmp_path)))
    entry, _ = registry.acquire(*_texts(instance))
    _apply_deltas(registry, entry, instance.deltas)
    expected = entry.session.answers()
    version = entry.session.version
    other = generate_instance("tree", size=6, seed=3, delta_rounds=0)
    registry.acquire(*_texts(other))
    assert registry.evictions == 1
    # The log is always current, so eviction writes nothing: one base
    # per admission and one record per update are all that was written.
    assert registry.store.snapshot_writes == 2
    assert registry.store.wal_appends == version

    revived = registry.get(entry.digest)
    assert revived.rehydrated
    assert revived.session.version == version
    assert revived.session.stats.evaluations == 1
    assert revived.session.answers() == expected
    assert registry.rehydrations == 1
