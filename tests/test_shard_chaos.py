"""Chaos tests: SIGKILL a sharded worker and prove the contract holds.

ISSUE 8's failure-semantics acceptance, as executable assertions:

* killing the worker that owns a session must be *invisible* to an
  idempotent request — the supervisor respawns the slot, the router
  retries against the new generation, and with a shared ``--state-dir``
  the replacement rehydrates the session from its snapshot (so
  ``session_stats.evaluations`` stays 1: rehydration is never
  re-evaluation);
* a kill *mid-request* must still yield exactly one well-formed
  response line — transparently retried, or a ``worker-failure`` error
  — and the client connection must remain usable afterwards;
* ``update`` (the one non-idempotent op) reconnects across a respawn
  when the failure is detected before the request is sent.

These are real ``kill -9``\\ s of real worker processes, found by pid
through the public ``stats`` op — no test hooks inside the daemon.
"""

import os
import signal
import tempfile
import threading
import time

import pytest

from repro.service.client import ServiceClient, local_sharded_service
from repro.service.protocol import ServiceError
from repro.service.registry import routing_digest
from repro.service.shard import HashRing, worker_slots

PROGRAM_TEXT = """
tc(X, Y) :- e(X, Y).
tc(X, Z) :- tc(X, Y), e(Y, Z).
"""
DATABASE_TEXT = "e(a, b). e(b, c). e(a, c)."


def chain_db(n: int) -> str:
    return " ".join(f"e(x{i}, x{i + 1})." for i in range(n))


def worker_row(client: ServiceClient, slot: str) -> dict:
    """The named worker's row in the aggregate sharding table."""
    table = client.stats()["result"]["sharding"]["per_worker"]
    (row,) = [r for r in table if r["slot"] == slot]
    return row


def wait_for_respawn(client: ServiceClient, slot: str, timeout: float = 30.0):
    """Block until the supervisor reports *slot* alive with restarts>=1."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        row = worker_row(client, slot)
        if row.get("alive") and row.get("restarts", 0) >= 1:
            return row
        time.sleep(0.1)
    raise AssertionError(f"worker {slot} did not respawn within {timeout}s")


class TestChaosKill:
    def test_idle_kill_is_invisible_and_rehydrates_from_snapshot(self):
        with tempfile.TemporaryDirectory() as state_dir:
            with local_sharded_service(workers=2, state_dir=state_dir) as client:
                digest = client.open(PROGRAM_TEXT, DATABASE_TEXT, "tc")["session"]
                before = client.why(digest, ("a", "c"))["result"]["members"]
                shard = client.stats(digest)["result"]["shard"]
                assert shard["alive"] and shard["restarts"] == 0

                os.kill(shard["pid"], signal.SIGKILL)

                # Same client, same connection: the next why must come
                # back identical, served by the slot's replacement.
                after = client.why(digest, ("a", "c"))["result"]["members"]
                assert after == before

                stats = client.stats(digest)["result"]
                assert stats["shard"]["slot"] == shard["slot"]
                assert stats["shard"]["restarts"] >= 1
                assert stats["shard"]["pid"] != shard["pid"]
                # Rehydrated from the snapshot store, not re-evaluated.
                (row,) = [
                    s for s in stats["sessions"] if s["digest"] == digest
                ]
                assert row["rehydrated"] is True
                assert stats["session_stats"]["evaluations"] == 1
                assert stats["rehydrations"] == 1

    def test_kill_without_state_dir_surfaces_unknown_session(self):
        """No snapshot tier → the replacement worker cannot rehydrate.

        The retry still happens (the op is idempotent and the response
        is well-formed), but the replacement has never seen the digest:
        the honest answer is ``unknown-session``, and re-``open`` with
        the inline texts repairs it.
        """
        with local_sharded_service(workers=2) as client:
            digest = client.open(PROGRAM_TEXT, DATABASE_TEXT, "tc")["session"]
            members = client.why(digest, ("a", "c"))["result"]["members"]
            shard = client.stats(digest)["result"]["shard"]

            os.kill(shard["pid"], signal.SIGKILL)

            with pytest.raises(ServiceError) as excinfo:
                client.why(digest, ("a", "c"))
            assert excinfo.value.code == "unknown-session"

            # The connection survived the error; inline re-open lands on
            # the same slot (routing is digest-stable) and works.
            reopened = client.open(PROGRAM_TEXT, DATABASE_TEXT, "tc")
            assert reopened["session"] == digest
            assert client.why(digest, ("a", "c"))["result"]["members"] == members

    def test_mid_request_kill_yields_one_well_formed_response(self):
        """kill -9 while the owner is busy: retried or worker-failure.

        Which outcome the client sees is a race (the kill can land
        before the request, mid-evaluation, or after the response is
        already in flight) — the contract is that there is exactly one
        response line, it is well-formed, and the connection stays
        usable.
        """
        with tempfile.TemporaryDirectory() as state_dir:
            with local_sharded_service(workers=2, state_dir=state_dir) as client:
                # A big enough admission to still be running when the
                # kill lands (hundreds of facts through full evaluation).
                database = chain_db(220)
                digest = routing_digest(PROGRAM_TEXT, database, "tc")
                slot = HashRing(worker_slots(2)).lookup(digest)
                victim = worker_row(client, slot)["pid"]

                killer = threading.Timer(
                    0.3, lambda: os.kill(victim, signal.SIGKILL)
                )
                killer.start()
                try:
                    response = client.request(
                        {
                            "op": "open",
                            "program": PROGRAM_TEXT,
                            "database": database,
                            "answer": "tc",
                        }
                    )
                finally:
                    # Joined, not cancelled: the kill lands before, during
                    # or after the response, never not at all, so the
                    # respawn awaited below always comes.
                    killer.join(timeout=30)
                assert not killer.is_alive()

                if response.get("ok"):
                    assert response["session"] == digest
                else:
                    assert response["error"]["code"] == "worker-failure"

                # One response, not two: the next exchange pairs up.
                assert client.ping()["result"]["pong"] is True
                wait_for_respawn(client, slot)
                reopened = client.open(PROGRAM_TEXT, database, "tc")
                assert reopened["session"] == digest

    def test_update_reconnects_across_a_respawn(self):
        """Post-respawn ``update`` goes through a fresh connection.

        The router detects the stale worker generation before sending,
        so the connect-phase retry applies even to the one op that is
        never retried after transmission.
        """
        with tempfile.TemporaryDirectory() as state_dir:
            with local_sharded_service(workers=2, state_dir=state_dir) as client:
                digest = client.open(PROGRAM_TEXT, DATABASE_TEXT, "tc")["session"]
                shard = client.stats(digest)["result"]["shard"]

                os.kill(shard["pid"], signal.SIGKILL)
                wait_for_respawn(client, shard["slot"])

                updated = client.update(digest, insert=["e(c, d)."])["result"]
                assert updated["version"] == 1
                members = client.why(digest, ("a", "d"))["result"]["members"]
                assert members  # the inserted edge is derivable post-kill

                stats = client.stats(digest)["result"]
                assert stats["session_stats"]["evaluations"] == 1
                assert stats["session_stats"]["updates"] == 1

    def test_repeated_kills_keep_the_pool_serving(self):
        """Three consecutive kills of the same slot never wedge the pool."""
        with tempfile.TemporaryDirectory() as state_dir:
            with local_sharded_service(workers=2, state_dir=state_dir) as client:
                digest = client.open(PROGRAM_TEXT, DATABASE_TEXT, "tc")["session"]
                expected = client.why(digest, ("a", "c"))["result"]["members"]
                for round_number in range(1, 4):
                    pid = client.stats(digest)["result"]["shard"]["pid"]
                    os.kill(pid, signal.SIGKILL)
                    got = client.why(digest, ("a", "c"))["result"]["members"]
                    assert got == expected, f"divergence after kill {round_number}"
                restarts = client.stats(digest)["result"]["shard"]["restarts"]
                assert restarts >= 3
