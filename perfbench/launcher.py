"""Run the daemon with span recorders around the layers' entry points.

Usage (with the repository's ``src`` on ``PYTHONPATH``)::

    python3 perfbench/launcher.py SPANS.json serve --port 0 ...

Everything after the spans path is handed to the normal ``repro`` command
line. Before it starts, the entry points named in :func:`install` are
replaced by wrappers that record one span per call: name, start, end,
parent span, request and a few counts. Parents come from a thread-local
stack because the dispatcher serves requests on pool threads; a request
is one ``handle_line`` call and every span below it carries its index.
Spans stay in memory and are written to ``SPANS.json`` when ``serve``
returns. The program itself is not modified.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time


class Recorder:
    """In-memory span and counter store shared by every wrapper."""

    def __init__(self):
        self.spans = []
        self.counts = []
        self._ids = itertools.count()
        self._requests = itertools.count()
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, root: bool = False):
        stack = self._stack()
        if root:
            self._local.request = next(self._requests)
        parent = stack[-1] if stack else -1
        span_id = next(self._ids)
        stack.append(span_id)
        return span_id, parent, time.perf_counter()

    def end(self, name: str, token, extra=None) -> None:
        span_id, parent, start = token
        finish = time.perf_counter()
        self._stack().pop()
        request = getattr(self._local, "request", -1)
        self.spans.append((span_id, name, start, finish, parent, request, extra))

    def count(self, name: str) -> None:
        self.counts.append((name, getattr(self._local, "request", -1)))

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "counts": self.counts}, handle)


RECORDER = Recorder()


def wrap_method(owner, attribute, name, root=False, before=None, after=None):
    """Record a span around ``owner.attribute``.

    ``before(args)`` runs ahead of the call; ``after(args, state, result)``
    gets its value and the call's result and returns the span's counts.
    """
    original = getattr(owner, attribute)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        state = before(args) if before else None
        token = RECORDER.begin(root)
        result = None
        try:
            result = original(*args, **kwargs)
            return result
        finally:
            extra = after(args, state, result) if after else None
            RECORDER.end(name, token, extra)

    setattr(owner, attribute, wrapper)


def wrap_counter(owner, attribute, name):
    """Count calls of ``owner.attribute`` without opening a span."""
    original = getattr(owner, attribute)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        RECORDER.count(name)
        return original(*args, **kwargs)

    setattr(owner, attribute, wrapper)


def _stat(field):
    return lambda args: getattr(args[0].stats, field)


def _solver_before(args):
    stats = args[0].stats
    return stats.conflicts, stats.propagations


def _solver_after(args, state, result):
    stats = args[0].stats
    return {
        "conflicts": stats.conflicts - state[0],
        "propagations": stats.propagations - state[1],
    }


def _snapshot_after(args, state, size):
    return {"bytes": size or 0}


def _wal_after(args, state, result):
    from repro.service.store import SnapshotStore

    _, _, version, lines = args
    return {"bytes": len(SnapshotStore._encode_wal_record(version, lines))}


def _built_after(field, describe):
    """Counts for a cache lookup: whether it built, and what it built."""

    def after(args, state, result):
        built = getattr(args[0].stats, field) - state
        extra = {"built": built}
        if built and result is not None:
            extra.update(describe(result))
        return extra

    return after


def _update_after(args, state, receipt):
    if receipt is None:
        return None
    return {
        "dirty": receipt.dirty_fact_count(),
        "invalidated": receipt.invalidated_closures,
        "retained": receipt.retained_closures,
    }


def _evaluation_sizes(evaluation):
    return {"model": len(evaluation.model), "trace": len(evaluation.instances or ())}


def _maintain_after(args, state, result):
    return None if result is None else _evaluation_sizes(result.evaluation)


def _wrap_evaluation(session_class) -> None:
    """Span the ``evaluation`` property only when it actually evaluates."""
    getter = session_class.evaluation.fget

    def evaluation(self):
        if self._evaluation is not None:
            return self._evaluation
        token = RECORDER.begin()
        result = None
        try:
            result = getter(self)
            return result
        finally:
            extra = None if result is None else _evaluation_sizes(result)
            RECORDER.end("engine.evaluate", token, extra)

    session_class.evaluation = property(evaluation)


def _wrap_enumerate(enumerator_class) -> None:
    """One span per member the enumeration yields, plus its last step."""
    original = enumerator_class.enumerate

    @functools.wraps(original)
    def enumerate(self, *args, **kwargs):
        members = original(self, *args, **kwargs)
        while True:
            token = RECORDER.begin()
            try:
                record = next(members)
            except StopIteration:
                RECORDER.end("enumerator.last", token)
                return
            RECORDER.end("enumerator.member", token)
            yield record

    enumerator_class.enumerate = enumerate


def install() -> None:
    """Put span recorders on every traced entry point."""
    from repro.core import incremental
    from repro.core.enumerator import WhyProvenanceEnumerator
    from repro.core.session import ProvenanceSession
    from repro.provenance import grounding
    from repro.sat.solver import CDCLSolver
    from repro.service.registry import SessionRegistry
    from repro.service.server import ProvenanceService
    from repro.service.store import SnapshotStore, StoreFS

    wrap_method(ProvenanceService, "handle_line", "server.handle_line", root=True)
    wrap_method(SessionRegistry, "acquire", "registry.acquire")
    wrap_method(SessionRegistry, "get", "registry.get")
    wrap_method(SessionRegistry, "refresh_cost", "registry.refresh_cost")
    wrap_method(SnapshotStore, "put_snapshot", "store.put_snapshot",
                after=_snapshot_after)
    wrap_method(SnapshotStore, "append_wal", "store.append_wal", after=_wal_after)
    wrap_method(SnapshotStore, "rehydrate", "store.rehydrate")
    wrap_counter(StoreFS, "fsync", "store.fsync")
    wrap_counter(StoreFS, "fsync_path", "store.fsync")
    _wrap_evaluation(ProvenanceSession)
    wrap_method(ProvenanceSession, "closure_or_none", "grounding.closure",
                before=_stat("closure_builds"),
                after=_built_after("closure_builds", lambda c: {"nodes": len(c.nodes)}))
    wrap_method(ProvenanceSession, "encoding_or_none", "encoder.encoding",
                before=_stat("encoding_builds"),
                after=_built_after("encoding_builds", lambda e: {
                    "vars": e.cnf.num_vars, "clauses": len(e.cnf.clauses)}))
    wrap_method(ProvenanceSession, "update", "incremental.update", after=_update_after)
    wrap_method(ProvenanceSession, "decide", "decision.decide",
                before=_stat("sat_solver_builds"),
                after=lambda args, state, result: {
                    "solver_builds": args[0].stats.sat_solver_builds - state})
    _wrap_enumerate(WhyProvenanceEnumerator)
    wrap_method(CDCLSolver, "solve", "sat.solve",
                before=_solver_before, after=_solver_after)
    # Imported by name elsewhere: wrap them where they are looked up.
    wrap_method(grounding, "gri_maps_from_instances", "grounding.gri_build")
    wrap_method(incremental, "maintain_evaluation", "engine.maintain",
                after=_maintain_after)


def main(argv) -> int:
    spans_path, repro_args = argv[0], argv[1:]
    install()
    from repro.cli import main as repro_main

    try:
        return repro_main(repro_args)
    finally:
        RECORDER.dump(spans_path)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
