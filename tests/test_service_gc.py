"""The ``repro serve`` daemon's heap freeze and the acyclic state it needs.

When its last request in flight finishes, :class:`DaemonService` runs one
collection and then ``gc.freeze()``, so the cyclic collector's full
passes stop re-traversing warm sessions. A frozen object is never
examined again: what outlives a request (an admitted session, a cache
entry, a connection) is freed only if reference counting alone can free
it. These tests pin that down:

* serving every op (``decide`` in every tree class, on a non-linear
  program), every error class, the interpreted engine, a pooled batch,
  LRU eviction, rehydration from a store and a TCP connection leaves no
  frozen object that later became cyclic garbage;
* repeated admit/evict cycles over the same tenants leave the permanent
  generation the same size;
* a cycle a request drops is collected, not frozen, and nothing is
  frozen while another request is in flight; the in-flight count returns
  to zero after concurrent requests;
* a plain :class:`ProvenanceService`, the in-process one, freezes nothing.

Each test runs under the :func:`collector` fixture, which starts from a
collected heap and restores the collector (enabled, nothing frozen, no
debug flags) afterwards.
"""

import gc
import multiprocessing
import sys
import threading
import weakref
from collections import Counter

import pytest

from repro.core.decision import TREE_CLASSES
from repro.service.client import _serving
from repro.service.registry import SessionRegistry
from repro.service.server import DaemonService, ProvenanceService
from repro.service.store import SnapshotStore

PROGRAM_TEXT = """
tc(X, Y) :- e(X, Y).
tc(X, Z) :- tc(X, Y), e(Y, Z).
"""

# Non-linear: `nonrecursive` decides by the path-aware oracle here, not
# by SAT, and `minimal-depth` by its depth-bounded search.
NONLINEAR_TEXT = """
tc(X, Y) :- e(X, Y).
tc(X, Z) :- tc(X, Y), tc(Y, Z).
"""

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


def chain_db(n: int) -> str:
    """A path graph x0 -> x1 -> ... -> xn as database text."""
    return " ".join(f"e(x{i}, x{i + 1})." for i in range(n))


def _raise_internal(self, request):
    raise RuntimeError("a handler bug")


class _Node:
    """A weakly referenceable object that can point at itself."""


@pytest.fixture
def collector():
    """A collected heap with nothing frozen; the collector restored after."""
    gc.unfreeze()
    gc.collect()
    try:
        yield
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
        gc.unfreeze()


def test_no_frozen_object_becomes_cyclic_garbage(collector, tmp_path, monkeypatch):
    gc.disable()
    registry = SessionRegistry(max_sessions=1, store=SnapshotStore(str(tmp_path)))
    service = DaemonService(
        registry=registry, batch_workers=2 if HAS_FORK else 1, parallel_threshold=2
    )
    request = service.handle_request
    first = request(
        {"op": "open", "program": PROGRAM_TEXT, "database": chain_db(4), "answer": "tc"}
    )
    digest = first["session"]
    ops = [
        {"op": "answers"},
        {"op": "why", "tuple": ["x0", "x3"]},
        {"op": "decide", "tuple": ["x0", "x2"], "subset": ["e(x0, x1).", "e(x1, x2)."]},
        {"op": "smallest", "tuple": ["x0", "x3"]},
        {"op": "minimal", "tuple": ["x0", "x3"]},
        {"op": "batch", "all_answers": True},  # pooled where fork exists
        {"op": "update", "lines": ["+e(x4, x5)."]},
        {"op": "stats"},
    ]
    for op in ops:
        assert request({**op, "session": digest})["ok"], op
    assert request({"op": "stats"})["ok"]
    errors = [
        request({"op": "why", "session": digest}),
        request({"op": "why", "session": "deadbeef", "tuple": ["x0", "x1"]}),
    ]
    monkeypatch.setattr(DaemonService, "_op_answers", _raise_internal)
    errors.append(request({"op": "answers", "session": digest}))
    monkeypatch.undo()
    assert [e["error"]["code"] for e in errors] == [
        "bad-request", "unknown-session", "internal-error",
    ]
    # A non-linear tenant decided in every tree class, evaluated by the
    # interpreted engine; with max_sessions=1 it evicts the first tenant.
    monkeypatch.setenv("REPRO_ENGINE", "interpreted")
    nonlinear = request(
        {"op": "open", "program": NONLINEAR_TEXT, "database": chain_db(3), "answer": "tc"}
    )["session"]
    monkeypatch.delenv("REPRO_ENGINE")
    for tree_class in TREE_CLASSES:
        for subset in (["e(x0, x1).", "e(x1, x2)."], ["e(x0, x1)."]):
            decided = request({
                "op": "decide", "session": nonlinear, "tuple": ["x0", "x2"],
                "subset": subset, "tree_class": tree_class,
            })
            assert decided["result"]["member"] is (len(subset) == 2), (tree_class, subset)
    # Reading the first tenant by digest rebuilds it from the store's log
    # (evicting the second).
    rehydrated = request({"op": "why", "session": digest, "tuple": ["x0", "x5"]})
    assert rehydrated["ok"] and rehydrated["version"] == 1
    stats = request({"op": "stats"})["result"]
    assert stats["evictions"] == 2 and stats["rehydrations"] == 1
    with _serving(DaemonService()) as client:
        assert client.open(PROGRAM_TEXT, chain_db(3), "tc")["ok"]
    service.close()
    del service, registry, request

    gc.collect()  # cyclic garbage no freeze reached is the collector's as usual
    gc.unfreeze()
    gc.set_debug(gc.DEBUG_SAVEALL)
    gc.collect()
    leaked = Counter(type(obj).__name__ for obj in gc.garbage)
    assert not leaked, f"frozen objects that became cyclic garbage: {dict(leaked)}"


def test_admit_evict_cycles_keep_the_frozen_set_flat(collector):
    service = DaemonService(registry=SessionRegistry(max_sessions=1))
    tenants = [chain_db(n) for n in (4, 5, 6)]
    sizes = []
    for _ in range(4):
        for database in tenants:
            response = service.handle_request(
                {"op": "why", "program": PROGRAM_TEXT, "database": database,
                 "answer": "tc", "tuple": ["x0", "x2"], "limit": 1}
            )
            assert response["ok"]
        sizes.append(gc.get_freeze_count())
    assert service.registry.evictions == 11
    # The first cycle warms lazy imports and caches; after it, each cycle
    # frees exactly what it admitted.
    assert sizes[1] == sizes[2] == sizes[3], sizes


def test_serving_an_open_freezes_the_session(collector):
    service = DaemonService()
    before = gc.get_freeze_count()
    response = service.handle_request(
        {"op": "open", "program": PROGRAM_TEXT, "database": chain_db(4), "answer": "tc"}
    )
    assert response["ok"]
    frozen = gc.get_freeze_count()
    assert frozen > before
    reported = service.handle_request({"op": "stats"})["result"]["gc"]
    assert reported["frozen"] >= frozen


def test_an_in_process_service_freezes_nothing(collector):
    service = ProvenanceService()
    response = service.handle_request(
        {"op": "open", "program": PROGRAM_TEXT, "database": chain_db(4), "answer": "tc"}
    )
    assert response["ok"]
    assert gc.get_freeze_count() == 0
    assert service.handle_request({"op": "stats"})["result"]["gc"]["frozen"] == 0


def test_a_cycle_a_request_drops_is_collected_not_frozen(collector, monkeypatch):
    gc.disable()
    dropped = []
    answers = DaemonService._op_answers

    def cyclic_answers(self, request):
        node = _Node()
        node.self = node
        dropped.append(weakref.ref(node))
        return answers(self, request)

    monkeypatch.setattr(DaemonService, "_op_answers", cyclic_answers)
    service = DaemonService()
    digest = service.handle_request(
        {"op": "open", "program": PROGRAM_TEXT, "database": chain_db(3), "answer": "tc"}
    )["session"]
    assert service.handle_request({"op": "answers", "session": digest})["ok"]
    [ref] = dropped
    assert ref() is None


def test_nothing_is_frozen_while_another_request_is_in_flight(collector, monkeypatch):
    gc.disable()
    started, release = threading.Event(), threading.Event()
    held = []
    answers = DaemonService._op_answers

    def slow_answers(self, request):
        # A cycle that is live while the concurrent ping is served and
        # becomes garbage when this request ends.
        node = _Node()
        node.self = node
        held.append(weakref.ref(node))
        started.set()
        assert release.wait(10)
        return answers(self, request)

    monkeypatch.setattr(DaemonService, "_op_answers", slow_answers)
    service = DaemonService()
    digest = service.handle_request(
        {"op": "open", "program": PROGRAM_TEXT, "database": chain_db(3), "answer": "tc"}
    )["session"]
    responses = []
    worker = threading.Thread(
        target=lambda: responses.append(
            service.handle_request({"op": "answers", "session": digest})
        )
    )
    worker.start()
    assert started.wait(10)
    assert service.handle_request({"op": "ping"})["ok"]
    release.set()
    worker.join(10)
    assert responses and responses[0]["ok"]
    # Had the ping frozen the live cycle, nothing would ever free it.
    [ref] = held
    assert ref() is None


def test_the_in_flight_count_survives_concurrent_requests(collector):
    # Collections and freezes from many threads: every request answered,
    # and the count back at zero, so the next idle moment freezes again.
    service = DaemonService(threads=8)
    failed = []

    def client():
        for _ in range(25):
            response = service.handle_request({"op": "ping"})
            if not response["ok"]:
                failed.append(response)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        clients = [threading.Thread(target=client) for _ in range(8)]
        for thread in clients:
            thread.start()
        for thread in clients:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in clients)
    assert not failed
    assert service._in_flight == 0
