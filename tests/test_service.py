"""Tests for the provenance service daemon (registry, protocol, server).

Four layers, innermost first: the wire protocol helpers, the
content-addressed session registry (admission, LRU eviction, byte
budget), the transport-independent dispatcher (every operation, in
process), and the real TCP stack — including the concurrency contract:
threaded clients hammering one session, interleaved ``update`` / ``why``
traffic attributed by version stamps, and eviction / re-admission
round-trips over the wire.

The wire-level tests are written against the *public protocol only*
(the stats op instead of in-process registry peeking), which lets the
same assertions run parametrized over both daemon topologies:
``single`` (one process, ``local_service``) and ``sharded`` (the same
front-end routing to real worker processes, ``local_sharded_service``).
Anything the contract promises must hold identically in both.
"""

import json
import socket
import struct
import threading
import time
from contextlib import contextmanager

import pytest

from repro.core.session import ProvenanceSession
from repro.datalog.database import Database
from repro.datalog.parser import parse_database, parse_program
from repro.datalog.program import DatalogQuery
from repro.service.client import (
    ServiceClient,
    local_service,
    local_sharded_service,
    parse_address,
)
from repro.service.protocol import (
    PROTOCOL_VERSION,
    ServiceError,
    decode_request,
    encode,
    render_member,
    render_members,
)
from repro.service.registry import SessionRegistry, content_digest
from repro.service.store import SnapshotStore
from repro.service.server import ProvenanceService, TCPServiceServer

PROGRAM_TEXT = """
tc(X, Y) :- e(X, Y).
tc(X, Z) :- tc(X, Y), e(Y, Z).
"""
DATABASE_TEXT = "e(a, b). e(b, c). e(a, c)."


def make_session() -> ProvenanceSession:
    program = parse_program(PROGRAM_TEXT)
    database = Database(parse_database(DATABASE_TEXT))
    return ProvenanceSession(DatalogQuery(program, "tc"), database)


def chain_db(n: int) -> str:
    """A path graph a0 -> a1 -> ... -> an as database text."""
    return " ".join(f"e(x{i}, x{i + 1})." for i in range(n))


#: The two daemon topologies every wire-contract test must satisfy.
WIRE_MODES = ("single", "sharded")


@contextmanager
def wire_service(mode: str, threads: int = 4):
    """A connected client against the requested daemon topology.

    ``single`` is the in-process TCP daemon; ``sharded`` is the
    multi-process one — the same TCP front-end routing to two supervised
    worker subprocesses. The yielded client speaks the same protocol to
    both, which is the whole point of parametrizing over this.
    """
    if mode == "sharded":
        with local_sharded_service(workers=2, worker_threads=threads) as client:
            yield client
    else:
        with local_service(threads=threads) as client:
            yield client


class TestProtocol:
    def test_decode_rejects_bad_json(self):
        with pytest.raises(ServiceError) as err:
            decode_request("{not json")
        assert err.value.code == "parse-error"

    def test_decode_rejects_non_object(self):
        with pytest.raises(ServiceError) as err:
            decode_request("[1, 2]")
        assert err.value.code == "parse-error"

    def test_encode_is_deterministic(self):
        a = encode({"b": 1, "a": [2, 3]})
        b = encode({"a": [2, 3], "b": 1})
        assert a == b
        assert "\n" not in a

    def test_render_member_sorts_facts(self):
        facts = parse_database("e(b, c). e(a, b).")
        assert render_member(facts) == ["e(a, b).", "e(b, c)."]

    def test_render_members_keeps_list_order(self):
        m1 = frozenset(parse_database("e(a, c)."))
        m2 = frozenset(parse_database("e(a, b). e(b, c)."))
        rendered = render_members([m2, m1])
        assert rendered == [["e(a, b).", "e(b, c)."], ["e(a, c)."]]

    def test_parse_address(self):
        assert parse_address("localhost:7463") == ("localhost", 7463)
        assert parse_address(":99") == ("127.0.0.1", 99)
        with pytest.raises(ValueError):
            parse_address("no-port")


class TestRegistry:
    def test_digest_ignores_rule_fact_order_and_whitespace(self):
        registry = SessionRegistry()
        base = registry.digest_for(PROGRAM_TEXT, DATABASE_TEXT, "tc")
        reordered_rules = (
            "tc(X, Z) :- tc(X, Y), e(Y, Z).\ntc(X, Y)   :-   e(X, Y)."
        )
        reordered_facts = "e(b, c).\n\n  e(a, c). e(a, b)."
        assert registry.digest_for(reordered_rules, reordered_facts, "tc") == base

    def test_digest_separates_answer_predicates(self):
        two_idb = "p(X) :- e(X, Y).\nq(Y) :- e(X, Y)."
        registry = SessionRegistry()
        assert registry.digest_for(two_idb, "e(a, b).", "p") != registry.digest_for(
            two_idb, "e(a, b).", "q"
        )

    def test_digest_separates_databases(self):
        registry = SessionRegistry()
        assert registry.digest_for(
            PROGRAM_TEXT, "e(a, b).", "tc"
        ) != registry.digest_for(PROGRAM_TEXT, "e(a, c).", "tc")

    def test_acquire_admits_then_hits(self):
        registry = SessionRegistry()
        entry, admitted = registry.acquire(PROGRAM_TEXT, DATABASE_TEXT, "tc")
        assert admitted and registry.admissions == 1
        again, admitted_again = registry.acquire(PROGRAM_TEXT, DATABASE_TEXT, "tc")
        assert not admitted_again and again is entry
        assert registry.hits == 1
        # Admission pays the evaluation up front; hits never re-evaluate.
        assert entry.session.stats.evaluations == 1

    def test_answer_defaulting_single_idb(self):
        registry = SessionRegistry()
        entry, _ = registry.acquire(PROGRAM_TEXT, DATABASE_TEXT)
        assert entry.answer == "tc"

    def test_answer_required_when_ambiguous(self):
        registry = SessionRegistry()
        two_idb = "p(X) :- e(X, Y).\nq(Y) :- e(X, Y)."
        with pytest.raises(ServiceError) as err:
            registry.acquire(two_idb, "e(a, b).")
        assert err.value.code == "bad-request"

    def test_unparsable_program_is_program_error(self):
        registry = SessionRegistry()
        with pytest.raises(ServiceError) as err:
            registry.acquire("this is not datalog", DATABASE_TEXT, "tc")
        assert err.value.code == "program-error"

    def test_out_of_schema_database_rejected(self):
        registry = SessionRegistry()
        with pytest.raises(ServiceError) as err:
            registry.acquire(PROGRAM_TEXT, "zzz(a).", "tc")
        assert err.value.code == "bad-request"

    def test_get_unknown_session(self):
        registry = SessionRegistry()
        with pytest.raises(ServiceError) as err:
            registry.get("deadbeef")
        assert err.value.code == "unknown-session"

    def test_lru_eviction_at_session_cap(self):
        registry = SessionRegistry(max_sessions=2, max_bytes=None)
        first, _ = registry.acquire(PROGRAM_TEXT, chain_db(2), "tc")
        second, _ = registry.acquire(PROGRAM_TEXT, chain_db(3), "tc")
        # Touch the first so the second becomes the LRU victim.
        registry.get(first.digest)
        registry.acquire(PROGRAM_TEXT, chain_db(4), "tc")
        assert registry.evictions == 1
        registry.get(first.digest)  # survived: it was recently used
        with pytest.raises(ServiceError):
            registry.get(second.digest)

    def test_byte_budget_eviction_keeps_newest(self):
        # A budget below any single session: older entries are evicted,
        # the newest always survives (no thrashing on oversized input).
        registry = SessionRegistry(max_sessions=8, max_bytes=1)
        a, _ = registry.acquire(PROGRAM_TEXT, chain_db(2), "tc")
        b, _ = registry.acquire(PROGRAM_TEXT, chain_db(3), "tc")
        assert len(registry) == 1
        registry.get(b.digest)
        with pytest.raises(ServiceError):
            registry.get(a.digest)

    def test_eviction_then_readmission_round_trip(self):
        registry = SessionRegistry(max_sessions=1, max_bytes=None)
        first, _ = registry.acquire(PROGRAM_TEXT, DATABASE_TEXT, "tc")
        expected = first.session.answers()
        registry.acquire(PROGRAM_TEXT, chain_db(3), "tc")  # evicts the first
        with pytest.raises(ServiceError):
            registry.get(first.digest)
        readmitted, admitted = registry.acquire(PROGRAM_TEXT, DATABASE_TEXT, "tc")
        assert admitted
        assert readmitted.digest == first.digest  # same content, same address
        assert readmitted.session.answers() == expected

    def test_stats_shape(self):
        registry = SessionRegistry()
        registry.acquire(PROGRAM_TEXT, DATABASE_TEXT, "tc")
        stats = registry.stats()
        assert stats["session_count"] == 1
        assert stats["admissions"] == 1
        assert stats["bytes_in_use"] > 0
        (described,) = stats["sessions"]
        assert described["answer"] == "tc"
        assert described["version"] == 0

    def test_concurrent_admissions_evaluate_once(self):
        # Racing acquires of one new digest: exactly one admission,
        # everyone gets the same entry, the session evaluated once.
        registry = SessionRegistry()
        results = []

        def admit():
            results.append(registry.acquire(PROGRAM_TEXT, DATABASE_TEXT, "tc"))

        threads = [threading.Thread(target=admit) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert registry.admissions == 1
        entries = {id(entry) for entry, _ in results}
        assert len(entries) == 1
        assert sum(1 for _, admitted in results if admitted) == 1
        (entry, _) = results[0]
        assert entry.session.stats.evaluations == 1

    def test_failed_admission_does_not_wedge_the_digest(self):
        # A bad-request admission must clear its in-flight marker so a
        # corrected retry (same digest would differ, but same racing
        # path) still works.
        registry = SessionRegistry()
        with pytest.raises(ServiceError):
            registry.acquire(PROGRAM_TEXT, "zzz(a).", "tc")
        entry, admitted = registry.acquire(PROGRAM_TEXT, DATABASE_TEXT, "tc")
        assert admitted and entry.answer == "tc"

    def test_content_digest_function_matches_registry(self):
        program = parse_program(PROGRAM_TEXT)
        database = Database(parse_database(DATABASE_TEXT))
        query = DatalogQuery(program, "tc")
        registry = SessionRegistry()
        assert registry.digest_for(PROGRAM_TEXT, DATABASE_TEXT, "tc") == (
            content_digest(query, database)
        )


class TestDispatcher:
    """The transport-independent request -> response mapping."""

    def setup_method(self):
        self.service = ProvenanceService(registry=SessionRegistry())

    def teardown_method(self):
        self.service.close()

    def open_session(self) -> str:
        response = self.service.handle_request(
            {"op": "open", "program": PROGRAM_TEXT, "database": DATABASE_TEXT,
             "answer": "tc"}
        )
        assert response["ok"]
        return response["session"]

    def test_ping(self):
        response = self.service.handle_request({"id": 5, "op": "ping"})
        assert response["id"] == 5 and response["ok"]
        assert response["result"]["protocol"] == PROTOCOL_VERSION

    def test_unknown_op(self):
        response = self.service.handle_request({"op": "frobnicate"})
        assert not response["ok"]
        assert response["error"]["code"] == "unknown-op"

    def test_handle_line_bad_json(self):
        response = json.loads(self.service.handle_line("{oops"))
        assert not response["ok"]
        assert response["error"]["code"] == "parse-error"

    def test_open_reports_admission_then_warm_hit(self):
        first = self.service.handle_request(
            {"op": "open", "program": PROGRAM_TEXT, "database": DATABASE_TEXT}
        )
        assert first["result"]["admitted"] is True
        assert first["result"]["answers"] == 3
        second = self.service.handle_request(
            {"op": "open", "program": PROGRAM_TEXT, "database": DATABASE_TEXT}
        )
        assert second["result"]["admitted"] is False
        assert second["session"] == first["session"]

    def test_why_matches_in_process_session(self):
        digest = self.open_session()
        response = self.service.handle_request(
            {"op": "why", "session": digest, "tuple": ["a", "c"]}
        )
        session = make_session()
        assert response["result"]["members"] == render_members(
            session.why(("a", "c"))
        )
        assert response["version"] == 0

    def test_why_non_answer(self):
        digest = self.open_session()
        response = self.service.handle_request(
            {"op": "why", "session": digest, "tuple": ["c", "a"]}
        )
        assert response["result"] == {
            "is_answer": False, "members": [], "exhausted": True,
        }

    def test_why_says_whether_the_list_is_complete(self):
        digest = self.open_session()
        full = self.service.handle_request(
            {"op": "why", "session": digest, "tuple": ["a", "c"]}
        )
        assert full["result"]["exhausted"] is True
        assert len(full["result"]["members"]) == 2
        # A limit that binds leaves the list unproven complete.
        cut = self.service.handle_request(
            {"op": "why", "session": digest, "tuple": ["a", "c"], "limit": 1}
        )
        assert cut["result"]["exhausted"] is False
        assert cut["result"]["members"] == full["result"]["members"][:1]

    def test_why_arity_mismatch_is_bad_request(self):
        digest = self.open_session()
        response = self.service.handle_request(
            {"op": "why", "session": digest, "tuple": ["a"]}
        )
        assert not response["ok"]
        assert response["error"]["code"] == "bad-request"

    def test_why_requires_tuple(self):
        digest = self.open_session()
        response = self.service.handle_request({"op": "why", "session": digest})
        assert response["error"]["code"] == "bad-request"

    def test_session_or_inline_texts_required(self):
        response = self.service.handle_request({"op": "why", "tuple": ["a", "c"]})
        assert response["error"]["code"] == "bad-request"

    def test_inline_texts_auto_open(self):
        response = self.service.handle_request(
            {"op": "why", "program": PROGRAM_TEXT, "database": DATABASE_TEXT,
             "tuple": ["a", "c"]}
        )
        assert response["ok"] and len(response["result"]["members"]) == 2
        assert response["session"]  # addressable for follow-up requests

    def test_unknown_session(self):
        response = self.service.handle_request(
            {"op": "why", "session": "deadbeef", "tuple": ["a", "c"]}
        )
        assert response["error"]["code"] == "unknown-session"

    def test_decide_parity_and_tree_class_validation(self):
        digest = self.open_session()
        member = self.service.handle_request(
            {"op": "decide", "session": digest, "tuple": ["a", "c"],
             "subset": ["e(a, c)."]}
        )
        assert member["result"] == {"member": True, "tree_class": "unambiguous"}
        non_member = self.service.handle_request(
            {"op": "decide", "session": digest, "tuple": ["a", "c"],
             "subset": ["e(a, b)."], "tree_class": "arbitrary"}
        )
        assert non_member["result"]["member"] is False
        bad = self.service.handle_request(
            {"op": "decide", "session": digest, "tuple": ["a", "c"],
             "subset": ["e(a, c)."], "tree_class": "wibble"}
        )
        assert bad["error"]["code"] == "bad-request"

    def test_smallest_and_minimal_parity(self):
        digest = self.open_session()
        session = make_session()
        smallest = self.service.handle_request(
            {"op": "smallest", "session": digest, "tuple": ["a", "c"]}
        )
        assert smallest["result"]["member"] == render_member(
            session.smallest_member(("a", "c"))
        )
        minimal = self.service.handle_request(
            {"op": "minimal", "session": digest, "tuple": ["a", "c"]}
        )
        assert minimal["result"]["members"] == render_members(
            session.minimal_members(("a", "c"))
        )

    def test_batch_all_answers_parity(self):
        digest = self.open_session()
        response = self.service.handle_request(
            {"op": "batch", "session": digest, "all_answers": True}
        )
        session = make_session()
        batch = session.explain_batch()
        wire = response["result"]["results"]
        assert [tuple(r["tuple"]) for r in wire] == [
            r.tuple_value for r in batch.results
        ]
        assert [r["members"] for r in wire] == [
            render_members(r.members) for r in batch.results
        ]

    def test_batch_reports_per_tuple_errors(self):
        digest = self.open_session()
        response = self.service.handle_request(
            {"op": "batch", "session": digest,
             "tuples": [["a", "b"], ["a"], ["c", "a"]]}
        )
        results = response["result"]["results"]
        assert results[0]["is_answer"] and results[0]["error"] is None
        assert results[1]["error"] is not None
        assert not results[2]["is_answer"] and results[2]["error"] is None

    def test_batch_requires_tuples_or_all_answers(self):
        digest = self.open_session()
        response = self.service.handle_request({"op": "batch", "session": digest})
        assert response["error"]["code"] == "bad-request"

    @pytest.mark.parametrize("field", ["sample", "seed"])
    def test_answers_refuses_sampling_fields(self, field):
        digest = self.open_session()
        response = self.service.handle_request(
            {"op": "answers", "session": digest, field: 1}
        )
        assert response["error"]["code"] == "bad-request"
        full = self.service.handle_request({"op": "answers", "session": digest})
        assert full["result"] == {
            "answers": [list(tup) for tup in make_session().answers()]
        }

    def test_update_bumps_version_and_stamps_responses(self):
        digest = self.open_session()
        before = self.service.handle_request(
            {"op": "why", "session": digest, "tuple": ["a", "c"]}
        )
        assert before["version"] == 0
        update = self.service.handle_request(
            {"op": "update", "session": digest, "lines": ["-e(b, c)."]}
        )
        assert update["ok"]
        assert update["result"]["version"] == 1
        assert update["result"]["deleted"] == 1
        after = self.service.handle_request(
            {"op": "why", "session": digest, "tuple": ["a", "c"]}
        )
        assert after["version"] == 1
        assert after["result"]["members"] == [["e(a, c)."]]

    def test_update_insert_delete_fields(self):
        digest = self.open_session()
        response = self.service.handle_request(
            {"op": "update", "session": digest,
             "insert": ["e(c, d)."], "delete": ["e(a, c)."]}
        )
        assert response["result"]["inserted"] == 1
        assert response["result"]["deleted"] == 1
        assert response["result"]["fact_count"] == 3

    def test_update_malformed_line_rejected(self):
        digest = self.open_session()
        response = self.service.handle_request(
            {"op": "update", "session": digest, "lines": ["wibble"]}
        )
        assert response["error"]["code"] == "bad-request"
        assert "wibble" in response["error"]["message"]

    def test_update_out_of_schema_rejected_session_survives(self):
        digest = self.open_session()
        rejected = self.service.handle_request(
            {"op": "update", "session": digest, "lines": ["+zzz(q)."]}
        )
        assert rejected["error"]["code"] == "bad-request"
        ok = self.service.handle_request(
            {"op": "why", "session": digest, "tuple": ["a", "c"]}
        )
        assert ok["ok"] and ok["version"] == 0

    def test_update_empty_delta_rejected(self):
        digest = self.open_session()
        response = self.service.handle_request(
            {"op": "update", "session": digest, "lines": []}
        )
        assert response["error"]["code"] == "bad-request"

    def test_update_never_reevaluates(self):
        digest = self.open_session()
        for lines in (["+e(c, d)."], ["-e(c, d)."], ["-e(a, b)."]):
            self.service.handle_request(
                {"op": "update", "session": digest, "lines": lines}
            )
        stats = self.service.handle_request({"op": "stats", "session": digest})
        assert stats["result"]["session_stats"]["evaluations"] == 1
        assert stats["result"]["session_stats"]["updates"] == 3

    def test_stats_counts_requests(self):
        self.service.handle_request({"op": "ping"})
        response = self.service.handle_request({"op": "stats"})
        assert response["result"]["requests_served"] >= 1
        assert response["result"]["protocol"] == PROTOCOL_VERSION
        collector = response["result"]["gc"]
        assert isinstance(collector["frozen"], int)
        assert len(collector["collections"]) == 3
        assert all(isinstance(n, int) for n in collector["collections"])

    def test_internal_errors_become_responses(self):
        # A request the handlers cannot serve must still produce a
        # response envelope, never an exception up the transport.
        response = self.service.handle_request(
            {"op": "why", "program": PROGRAM_TEXT, "database": DATABASE_TEXT,
             "tuple": {"not": "an array"}}
        )
        assert not response["ok"]

    def test_non_constant_tuple_elements_are_bad_request(self):
        digest = self.open_session()
        for bad in ([["a"], "c"], [None, "c"], [True, "c"]):
            response = self.service.handle_request(
                {"op": "why", "session": digest, "tuple": bad}
            )
            assert response["error"]["code"] == "bad-request"


@pytest.mark.parametrize("mode", WIRE_MODES)
class TestWire:
    """The same contracts through a real TCP socket, in both topologies.

    Every test here runs twice — against the single-process daemon and
    against the sharded multi-process one — asserting only what the
    public protocol promises (responses, version stamps, the stats op),
    never process internals.
    """

    def test_byte_identity_over_the_wire(self, mode):
        session = make_session()
        with wire_service(mode) as client:
            opened = client.open(PROGRAM_TEXT, DATABASE_TEXT, "tc")
            digest = opened["session"]
            for tup in session.answers():
                wire = client.why(digest, tup)["result"]["members"]
                assert wire == render_members(session.why(tup))
            batch = client.batch(digest, all_answers=True)["result"]["results"]
            local = session.explain_batch()
            assert [r["members"] for r in batch] == [
                render_members(r.members) for r in local.results
            ]

    def test_pipelined_requests_match_ids(self, mode):
        with wire_service(mode) as client:
            opened = client.open(PROGRAM_TEXT, DATABASE_TEXT, "tc")
            digest = opened["session"]
            for index in range(5):
                response = client.request(
                    {"id": 1000 + index, "op": "answers", "session": digest}
                )
                assert response["id"] == 1000 + index and response["ok"]

    def test_threaded_clients_hammer_one_session(self, mode):
        # N threads x M why-requests against one warm session: every
        # response identical, the session still evaluated exactly once
        # (the per-session lock — on whichever process owns the session —
        # made the concurrent cache fills safe). Asserted through the
        # public stats op, so the same check holds when the session
        # lives on a shard worker rather than in this process.
        session = make_session()
        expected = {
            tup: render_members(session.why(tup)) for tup in session.answers()
        }
        failures = []
        with wire_service(mode) as client:
            digest = client.open(PROGRAM_TEXT, DATABASE_TEXT, "tc")["session"]

            def hammer():
                try:
                    with ServiceClient(port=client.address[1]) as mine:
                        for _ in range(4):
                            for tup, members in expected.items():
                                got = mine.why(digest, tup)["result"]["members"]
                                if got != members:
                                    failures.append((tup, got))
                except Exception as exc:  # surface in the main thread
                    failures.append(exc)

            threads = [threading.Thread(target=hammer) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            stats = client.stats(digest)["result"]
            assert stats["session_stats"]["evaluations"] == 1
        assert failures == []

    def test_interleaved_update_and_why_version_consistency(self, mode):
        # One writer toggles e(c, d); readers hammer why(a, d). Version
        # stamps let every response be attributed to a database state:
        # odd version => the edge exists => two witnesses through it;
        # even version => no edge => not an answer. Any mismatch means a
        # read observed a half-applied update.
        from repro.datalog.atoms import Atom
        from repro.datalog.database import Delta

        with_edge = make_session()
        with_edge.update(Delta.insert(Atom("e", ("c", "d"))))
        expected_odd = render_members(with_edge.why(("a", "d")))
        failures = []
        with wire_service(mode) as client:
            digest = client.open(PROGRAM_TEXT, DATABASE_TEXT, "tc")["session"]
            port = client.address[1]
            stop = threading.Event()

            def writer():
                try:
                    with ServiceClient(port=port) as mine:
                        for round_index in range(6):
                            line = "+e(c, d)." if round_index % 2 == 0 else "-e(c, d)."
                            mine.update(digest, lines=[line])
                finally:
                    stop.set()

            def reader():
                try:
                    with ServiceClient(port=port) as mine:
                        while not stop.is_set():
                            response = mine.why(digest, ("a", "d"))
                            version = response["version"]
                            members = response["result"]["members"]
                            expected = expected_odd if version % 2 == 1 else []
                            if members != expected:
                                failures.append((version, members))
                except Exception as exc:
                    failures.append(exc)

            threads = [threading.Thread(target=reader) for _ in range(3)]
            writer_thread = threading.Thread(target=writer)
            for t in threads:
                t.start()
            writer_thread.start()
            writer_thread.join(timeout=60)
            for t in threads:
                t.join(timeout=60)
            final = client.why(digest, ("a", "d"))
            assert final["version"] == 6
            assert final["result"]["members"] == []
        assert failures == []

    def test_eviction_and_readmission_over_the_wire(self, mode):
        if mode == "sharded":
            # Eviction happens per worker, so the two evicting sessions
            # must land on the *same shard* as the first. Routing is a
            # pure function of content digest and slot names, so the
            # co-located databases can be computed up front — which is
            # itself a test of the routing rule's determinism.
            from repro.service.registry import routing_digest
            from repro.service.shard import HashRing, worker_slots

            ring = HashRing(worker_slots(2))
            owner = ring.lookup(routing_digest(PROGRAM_TEXT, DATABASE_TEXT, "tc"))
            colocated = [
                chain_db(n)
                for n in range(3, 60)
                if ring.lookup(routing_digest(PROGRAM_TEXT, chain_db(n), "tc"))
                == owner
            ][:2]
            assert len(colocated) == 2
            ctx = local_sharded_service(workers=2, max_sessions=2)
        else:
            colocated = [chain_db(3), chain_db(4)]
            ctx = local_service(
                registry=SessionRegistry(max_sessions=2, max_bytes=None)
            )
        with ctx as client:
            first = client.open(PROGRAM_TEXT, DATABASE_TEXT, "tc")["session"]
            first_answers = client.answers(first)["result"]["answers"]
            client.open(PROGRAM_TEXT, colocated[0], "tc")
            client.open(PROGRAM_TEXT, colocated[1], "tc")  # evicts the first
            with pytest.raises(ServiceError) as err:
                client.answers(first)
            assert err.value.code == "unknown-session"
            # Re-admission: same texts, same digest, same answers.
            reopened = client.open(PROGRAM_TEXT, DATABASE_TEXT, "tc")
            assert reopened["session"] == first
            assert reopened["result"]["admitted"] is True
            assert client.answers(first)["result"]["answers"] == first_answers

    def test_update_storm_recovery(self, mode):
        # A burst of updates leaves the session correct and still on its
        # first evaluation; the next read serves from maintained state.
        session = make_session()
        with wire_service(mode) as client:
            digest = client.open(PROGRAM_TEXT, DATABASE_TEXT, "tc")["session"]
            for index in range(5):
                client.update(digest, lines=[f"+e(s{index}, s{index + 1})."])
            for index in range(5):
                client.update(digest, lines=[f"-e(s{index}, s{index + 1})."])
            response = client.why(digest, ("a", "c"))
            assert response["version"] == 10
            assert response["result"]["members"] == render_members(
                session.why(("a", "c"))
            )
            stats = client.stats(digest)["result"]
            assert stats["session_stats"]["evaluations"] == 1

    def test_shutdown_request_stops_server(self, mode):
        with wire_service(mode) as client:
            assert client.shutdown_server()["result"] == {"stopping": True}

    def test_requests_served_counts_each_client_request_once(self, mode):
        with wire_service(mode) as client:
            for _ in range(3):
                client.ping()
            digest = client.open(PROGRAM_TEXT, DATABASE_TEXT, "tc")["session"]
            for _ in range(2):
                client.why(digest, ("a", "c"))
            assert client.stats()["result"]["requests_served"] == 6
            assert client.stats()["result"]["requests_served"] == 7

    def test_over_long_line_gets_one_parse_error(self, mode, monkeypatch):
        monkeypatch.setattr("repro.service.server.MAX_LINE_BYTES", 64)
        with wire_service(mode) as client:
            with socket.create_connection(
                ("127.0.0.1", client.address[1]), timeout=10
            ) as sock:
                reader = sock.makefile("r", encoding="utf-8", newline="\n")
                # Answered as soon as the limit is passed, before the
                # line's newline arrives.
                sock.sendall(b'{"id": 1, "op": "ping", "pad": "' + b"x" * 1000)
                response = json.loads(reader.readline())
                assert response["error"]["code"] == "parse-error"
                assert "64-byte limit" in response["error"]["message"]
                # The rest of the long line is skipped, not served: the
                # next line gets the next response.
                sock.sendall(b"x" * 1000 + b'"}\n')
                sock.sendall(encode({"id": 2, "op": "ping"}).encode() + b"\n")
                assert json.loads(reader.readline())["id"] == 2
            # A line of exactly the limit is still served.
            at_limit = {"id": 3, "op": "ping", "pad": ""}
            at_limit["pad"] = "x" * (64 - len(encode(at_limit)))
            assert len(encode(at_limit)) == 64
            assert client.request(at_limit)["ok"]


class TestErrorPaths:
    """Hostile and unlucky clients: the daemon must answer or shrug, never die.

    Today's wire tests all speak well-formed NDJSON and wait politely for
    replies; these cover the rest — garbage frames, unknown operations,
    oversized batch requests against the server cap, and clients that
    vanish mid-request — asserting both the error envelope and that the
    daemon keeps serving everyone else afterwards.
    """

    @staticmethod
    def _raw_exchange(port: int, payload: bytes) -> dict:
        """Send raw bytes on a fresh socket, read back one response line."""
        with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
            sock.sendall(payload)
            reader = sock.makefile("r", encoding="utf-8", newline="\n")
            line = reader.readline()
        assert line, "server closed the connection without answering"
        return json.loads(line)

    def test_malformed_ndjson_frame_gets_parse_error(self):
        with local_service() as client:
            port = client.address[1]
            response = self._raw_exchange(port, b"{this is not json\n")
            assert not response["ok"]
            assert response["error"]["code"] == "parse-error"
            # The registry and dispatcher survived a garbage frame.
            assert client.ping()["ok"]

    def test_non_object_frame_gets_parse_error(self):
        with local_service() as client:
            response = self._raw_exchange(client.address[1], b"[1, 2, 3]\n")
            assert not response["ok"]
            assert response["error"]["code"] == "parse-error"

    def test_connection_survives_bad_frame_then_serves(self):
        # One connection: garbage line, then a valid request. NDJSON
        # framing is per line, so the stream resynchronizes by itself.
        with local_service() as client:
            with socket.create_connection(
                ("127.0.0.1", client.address[1]), timeout=5
            ) as sock:
                reader = sock.makefile("r", encoding="utf-8", newline="\n")
                sock.sendall(b"%%% garbage %%%\n")
                first = json.loads(reader.readline())
                assert first["error"]["code"] == "parse-error"
                sock.sendall(encode({"id": 1, "op": "ping"}).encode() + b"\n")
                second = json.loads(reader.readline())
                assert second["ok"] and second["id"] == 1

    def test_unknown_op_over_the_wire(self):
        with local_service() as client:
            response = client.request({"op": "frobnicate"})
            assert not response["ok"]
            assert response["error"]["code"] == "unknown-op"
            assert "known:" in response["error"]["message"]

    def test_missing_op_over_the_wire(self):
        with local_service() as client:
            response = client.request({"tuple": ["a", "b"]})
            assert not response["ok"]
            assert response["error"]["code"] == "unknown-op"

    def test_oversized_batch_rejected_inline(self):
        service = ProvenanceService(max_batch_tuples=3)
        try:
            digest = service.handle_request(
                {"op": "open", "program": PROGRAM_TEXT,
                 "database": DATABASE_TEXT, "answer": "tc"}
            )["session"]
            response = service.handle_request(
                {"op": "batch", "session": digest,
                 "tuples": [["a", "b"]] * 4}
            )
            assert not response["ok"]
            assert response["error"]["code"] == "bad-request"
            assert "cap of 3" in response["error"]["message"]
            # At the cap is still fine.
            response = service.handle_request(
                {"op": "batch", "session": digest,
                 "tuples": [["a", "b"]] * 3}
            )
            assert response["ok"]
        finally:
            service.close()

    def test_oversized_batch_rejected_all_answers(self):
        # chain_db(6) yields 21 closure answers; cap the batch below that.
        service = ProvenanceService(max_batch_tuples=5)
        try:
            digest = service.handle_request(
                {"op": "open", "program": PROGRAM_TEXT,
                 "database": chain_db(6), "answer": "tc"}
            )["session"]
            response = service.handle_request(
                {"op": "batch", "session": digest, "all_answers": True}
            )
            assert not response["ok"]
            assert response["error"]["code"] == "bad-request"
            assert "split the request" in response["error"]["message"]
        finally:
            service.close()

    def test_disconnect_before_response_leaves_server_alive(self):
        # The client fires a request and hangs up without reading: the
        # handler's write hits a dead socket (BrokenPipe/ConnectionReset)
        # and must swallow it; the next client is served normally.
        with local_service() as client:
            port = client.address[1]
            for _ in range(3):
                sock = socket.create_connection(("127.0.0.1", port), timeout=5)
                sock.sendall(
                    encode({"op": "open", "program": PROGRAM_TEXT,
                            "database": DATABASE_TEXT, "answer": "tc"}).encode()
                    + b"\n"
                )
                # Hard close (RST rather than FIN) maximizes the chance
                # the server's write actually fails mid-flight.
                sock.setsockopt(
                    socket.SOL_SOCKET, socket.SO_LINGER,
                    struct.pack("ii", 1, 0),
                )
                sock.close()
            deadline = time.time() + 5
            while time.time() < deadline:
                if client.ping()["ok"]:
                    break
            opened = client.open(PROGRAM_TEXT, DATABASE_TEXT, "tc")
            assert opened["ok"] and opened["result"]["answers"] == 3

    def test_disconnect_mid_line_is_ignored(self):
        # A partial request line (no newline) then EOF: the reader loop
        # sees an unterminated line at EOF and the connection just ends.
        with local_service() as client:
            with socket.create_connection(
                ("127.0.0.1", client.address[1]), timeout=5
            ) as sock:
                sock.sendall(b'{"op": "ping"')  # no newline, then FIN
            assert client.ping()["ok"]


def test_threads_bound_the_requests_executing_at_once(monkeypatch):
    # Six connections, each on its own server thread, send slow requests
    # at once: never more than ``threads`` of them run together.
    import sys

    service = ProvenanceService(threads=2)
    handle_line = service.handle_line
    lock = threading.Lock()
    running = 0
    peaks = []

    def slow_handle_line(line, conns=None):
        nonlocal running
        with lock:
            running += 1
            peaks.append(running)
        time.sleep(0.02)
        with lock:
            running -= 1
        return handle_line(line)

    monkeypatch.setattr(service, "handle_line", slow_handle_line)
    server = TCPServiceServer(service)
    server.serve_in_thread()
    errors = []

    def client_loop():
        try:
            with ServiceClient(port=server.port, timeout=30) as client:
                for _ in range(5):
                    assert client.ping()["ok"]
        except Exception as exc:  # surface in the main thread
            errors.append(exc)

    threads = [threading.Thread(target=client_loop) for _ in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
        server.shutdown()
        server.server_close()
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(peaks) == 30 and max(peaks) == 2
    assert service.requests_served == 30


def test_local_service_teardown_is_prompt():
    # The accept loop notices shutdown() within one poll interval, so
    # leaving the context must not wait out socketserver's 0.5 s default.
    with local_service() as client:
        assert client.ping()["ok"]
        started = time.perf_counter()
    assert time.perf_counter() - started < 0.3


class TestDurableService:
    """The durable store as seen over the wire.

    The store itself is covered in ``test_store.py`` /
    ``test_store_faults.py``; here the assertions are about what clients
    observe: the ``stats`` counters, the ``rehydrated`` flag on ``open``,
    and warm state surviving a full daemon teardown + restart on the
    same ``--state-dir``.
    """

    def test_stats_expose_durability_counters(self, tmp_path):
        with local_service(state_dir=str(tmp_path)) as client:
            client.open(PROGRAM_TEXT, DATABASE_TEXT, "tc")
            stats = client.stats()["result"]
            for counter in ("evictions", "rehydrations", "persist_failures"):
                assert stats[counter] == 0
            store = stats["store"]
            assert store["stored_digests"] == 1
            assert store["snapshot_writes"] == 1
            assert store["disk_bytes"] > 0

    def test_stats_store_is_null_without_state_dir(self):
        with local_service() as client:
            client.open(PROGRAM_TEXT, DATABASE_TEXT, "tc")
            assert client.stats()["result"]["store"] is None

    def test_restart_serves_updated_state_without_reevaluating(self, tmp_path):
        with local_service(state_dir=str(tmp_path)) as client:
            opened = client.open(PROGRAM_TEXT, DATABASE_TEXT, "tc")
            assert opened["result"]["rehydrated"] is False
            digest = opened["session"]
            client.update(digest, insert=["e(c, d)."])
            answers = client.answers(digest)["result"]["answers"]

        # Hard stop above (nothing flushed); second daemon, same dir.
        with local_service(state_dir=str(tmp_path)) as client:
            reopened = client.open(PROGRAM_TEXT, DATABASE_TEXT, "tc")
            assert reopened["session"] == digest
            assert reopened["result"]["admitted"] is True
            assert reopened["result"]["rehydrated"] is True
            assert reopened["version"] == 1  # the logged update replayed
            stats = client.stats(session=digest)["result"]
            assert stats["session_stats"]["evaluations"] == 1
            assert stats["rehydrations"] == 1
            assert client.answers(digest)["result"]["answers"] == answers

    def test_evicted_digest_reopen_rehydrates_over_the_wire(self, tmp_path):
        registry = SessionRegistry(
            max_sessions=1, store=SnapshotStore(str(tmp_path))
        )
        with local_service(registry=registry) as client:
            first = client.open(PROGRAM_TEXT, DATABASE_TEXT, "tc")["session"]
            client.open(PROGRAM_TEXT, chain_db(3), "tc")  # evicts the first
            stats = client.stats()["result"]
            assert stats["evictions"] == 1
            assert stats["store"]["snapshot_writes"] == 2  # eviction wrote none
            reopened = client.open(PROGRAM_TEXT, DATABASE_TEXT, "tc")
            assert reopened["session"] == first
            assert reopened["result"]["rehydrated"] is True
            assert client.stats()["result"]["rehydrations"] == 1


class TestSharded:
    """What only the multi-process daemon promises: routing and topology.

    The shared wire contract is covered by the parametrized
    :class:`TestWire`; these tests pin down the sharded daemon's own
    observable behavior — the aggregate stats table, the shard block on
    session stats, routing stability against the published hash ring,
    and error-message parity with the single-process dispatcher.
    """

    def test_aggregate_stats_shape(self):
        with local_sharded_service(workers=2) as client:
            client.open(PROGRAM_TEXT, DATABASE_TEXT, "tc")
            result = client.stats()["result"]
            sharding = result["sharding"]
            assert sharding["workers"] == 2
            assert len(sharding["per_worker"]) == 2
            slots = [row["slot"] for row in sharding["per_worker"]]
            assert slots == ["shard-0", "shard-1"]
            for row in sharding["per_worker"]:
                assert row["alive"] is True
                assert row["restarts"] == 0
                assert isinstance(row["pid"], int)
                assert len(row["gc"]["collections"]) == 3
            # Each row carries its worker's collector; the session's owner
            # froze it. The router holds no sessions and reports none.
            [owner] = [r for r in sharding["per_worker"] if r["session_count"] == 1]
            assert owner["gc"]["frozen"] > 0
            assert result["gc"] is None
            # Exactly one worker holds the admitted session; the summed
            # counters see it exactly once.
            assert result["session_count"] == 1
            assert result["admissions"] == 1
            assert [s["answer"] for s in result["sessions"]] == ["tc"]
            assert result["store"] is None

    def test_single_process_stats_report_no_sharding(self):
        with local_service() as client:
            assert client.stats()["result"]["sharding"] is None

    def test_session_stats_carry_owning_shard(self):
        from repro.service.registry import routing_digest
        from repro.service.shard import HashRing, worker_slots

        with local_sharded_service(workers=2) as client:
            digest = client.open(PROGRAM_TEXT, DATABASE_TEXT, "tc")["session"]
            shard = client.stats(digest)["result"]["shard"]
            # The advertised owner is exactly what the published ring
            # computes from the digest — clients can predict placement.
            ring = HashRing(worker_slots(2))
            assert shard["slot"] == ring.lookup(digest)
            assert digest == routing_digest(PROGRAM_TEXT, DATABASE_TEXT, "tc")
            assert shard["alive"] is True

    def test_routing_is_stable_across_requests(self):
        with local_sharded_service(workers=2) as client:
            digest = client.open(PROGRAM_TEXT, DATABASE_TEXT, "tc")["session"]
            owners = {
                client.stats(digest)["result"]["shard"]["slot"] for _ in range(5)
            }
            assert len(owners) == 1
            # Inline texts route to the same shard as their digest: the
            # warm session is found, not re-admitted elsewhere.
            reopened = client.open(PROGRAM_TEXT, DATABASE_TEXT, "tc")
            assert reopened["result"]["admitted"] is False
            assert reopened["session"] == digest

    def test_error_parity_with_single_process(self):
        """Router-level failures must be byte-identical to dispatcher ones."""
        probes = [
            {"op": "frobnicate"},
            {"op": "why", "tuple": ["a", "c"]},
            {"op": "why", "session": 7, "tuple": ["a", "c"]},
            {"op": "why", "program": PROGRAM_TEXT, "database": DATABASE_TEXT,
             "answer": 9, "tuple": ["a", "c"]},
            {"op": "why", "program": "this is not datalog",
             "database": DATABASE_TEXT, "tuple": ["a", "c"]},
            {"op": "why", "session": "deadbeef", "tuple": ["a", "c"]},
        ]
        with local_service() as single, local_sharded_service(workers=2) as sharded:
            for index, probe in enumerate(probes):
                request = {**probe, "id": index}
                assert single.request(request) == sharded.request(request), probe

    def test_supervisor_stop_closes_worker_stderr_pipes(self):
        from repro.service.shard import WorkerSupervisor

        supervisor = WorkerSupervisor(2)
        supervisor.start()
        procs = [handle.proc for handle in supervisor.handles.values()]
        supervisor.stop()
        assert len(procs) == 2
        assert all(proc.stderr.closed for proc in procs)

    def test_ping_served_by_the_router(self):
        with local_sharded_service(workers=2) as client:
            result = client.ping()["result"]
            assert result["pong"] is True
            assert result["protocol"] == PROTOCOL_VERSION

    def test_sessions_spread_over_workers(self):
        # Open sessions until both shards own at least one (bounded by
        # the ring's balance; a handful of distinct digests suffices).
        from repro.service.registry import routing_digest
        from repro.service.shard import HashRing, worker_slots

        ring = HashRing(worker_slots(2))
        databases = []
        seen = set()
        for n in range(2, 60):
            text = chain_db(n)
            slot = ring.lookup(routing_digest(PROGRAM_TEXT, text, "tc"))
            if slot not in seen:
                seen.add(slot)
                databases.append(text)
            if len(seen) == 2:
                break
        assert len(databases) == 2
        with local_sharded_service(workers=2) as client:
            for text in databases:
                client.open(PROGRAM_TEXT, text, "tc")
            per_worker = client.stats()["result"]["sharding"]["per_worker"]
            assert [row["session_count"] for row in per_worker] == [1, 1]
