"""Per-layer metrics from the traced run's spans.

A layer's time is the *self* time of its spans: a span's duration minus
the part of it covered by its child spans, summed over the timed
requests. Self times of all spans of a request add up to its
``handle_line`` span, so nothing is dropped: what no wrapped entry point
covers is ``server.self_s``. Metrics marked *whole run* also count the
set-up requests, because that is where the work happens (evaluation at
admission).
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Dict, List

#: name -> (unit, better). The class medians come from the untraced phase.
LAYER_METRICS = {
    "decide_p50_s": ("s", "lower"),
    "decide_minus_p50_s": ("s", "lower"),
    "update_p50_s": ("s", "lower"),
    "fresh_read_p50_s": ("s", "lower"),
    "hit_p50_s": ("s", "lower"),
    "miss_p50_s": ("s", "lower"),
    "failed_frac": ("fraction", "lower"),
    "server.wire_s": ("s", "lower"),
    "server.self_s": ("s", "lower"),
    "protocol.request_bytes": ("bytes", "lower"),
    "protocol.response_bytes": ("bytes", "lower"),
    "registry.acquire_s": ("s", "lower"),
    "registry.refresh_cost_s": ("s", "lower"),
    "registry.hits": ("count", "higher"),
    "registry.admissions": ("count", "lower"),
    "registry.rehydrations": ("count", "lower"),
    "registry.evictions": ("count", "lower"),
    "registry.hit_ratio": ("fraction", "higher"),
    "store.rehydrate_s": ("s", "lower"),
    "store.snapshot_put_s": ("s", "lower"),
    "store.wal_append_s": ("s", "lower"),
    "store.bytes_written": ("bytes", "lower"),
    "store.fsyncs": ("count", "lower"),
    "engine.evaluate_s": ("s", "lower"),
    "engine.evaluations": ("count", "lower"),
    "engine.maintain_s": ("s", "lower"),
    "engine.model_facts": ("count", "lower"),
    "engine.trace_instances": ("count", "lower"),
    "engine.plan_reuses": ("count", "higher"),
    "grounding.gri_build_s": ("s", "lower"),
    "grounding.gri_builds": ("count", "lower"),
    "grounding.closure_s": ("s", "lower"),
    "grounding.closure_builds": ("count", "lower"),
    "grounding.closure_nodes": ("count", "lower"),
    "incremental.update_s": ("s", "lower"),
    "incremental.dirty_facts": ("count", "lower"),
    "incremental.closures_invalidated": ("count", "lower"),
    "incremental.closures_retained": ("count", "higher"),
    "incremental.s_per_dirty_fact": ("s", "lower"),
    "session.closure_hit_ratio": ("fraction", "higher"),
    "session.encoding_hit_ratio": ("fraction", "higher"),
    "session.evaluations": ("count", "lower"),
    "encoder.encode_s": ("s", "lower"),
    "encoder.encodings": ("count", "lower"),
    "encoder.cnf_vars": ("count", "lower"),
    "encoder.cnf_clauses": ("count", "lower"),
    "enumerator.self_s": ("s", "lower"),
    "enumerator.members": ("count", "higher"),
    "enumerator.delay_p50_s": ("s", "lower"),
    "enumerator.delay_max_s": ("s", "lower"),
    "sat.solve_s": ("s", "lower"),
    "sat.solves": ("count", "lower"),
    "sat.conflicts": ("count", "lower"),
    "sat.propagations": ("count", "lower"),
    "sat.conflicts_per_member": ("count", "lower"),
    "sat.pooled_verdicts": ("count", "lower"),
    "sat.pool_hits": ("count", "higher"),
    "sat.pool_misses": ("count", "lower"),
    "decision.decide_s": ("s", "lower"),
    "decision.decides": ("count", "lower"),
    "decision.solver_builds": ("count", "lower"),
    "daemon.cpu_s": ("s", "lower"),
    "daemon.busy_frac": ("fraction", "higher"),
    "trace.overhead_frac": ("fraction", "lower"),
    "wall.setup_s": ("s", "lower"),
    "wall.ops_per_s": ("requests/s", "higher"),
    "wall.why_p50_s": ("s", "lower"),
    "host.kernel_s": ("s", "lower"),
}
UNITS = {name: unit for name, (unit, _) in LAYER_METRICS.items()}


class Spans:
    """The traced daemon's spans, indexed for self-time sums."""

    def __init__(self, dump: Dict, first_request: int, count: int):
        self.spans = [tuple(span) for span in dump["spans"]]
        self.counts = [tuple(c) for c in dump["counts"]]
        self.timed = range(first_request, first_request + count)
        covered = defaultdict(float)
        for span_id, _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        self.self_time = {
            span[0]: span[3] - span[2] - covered[span[0]] for span in self.spans
        }

    def named(self, *names: str, whole_run: bool = False) -> List[tuple]:
        return [s for s in self.spans if s[1] in names
                and (whole_run or s[5] in self.timed)]

    def self_s(self, *names: str, whole_run: bool = False) -> float:
        return sum(self.self_time[s[0]] for s in self.named(*names, whole_run=whole_run))

    def extra(self, name: str, field: str, whole_run: bool = False) -> List[float]:
        return [s[6][field] for s in self.named(name, whole_run=whole_run)
                if s[6] and field in s[6]]

    def roots(self) -> Dict[int, tuple]:
        return {s[5]: s for s in self.named("server.handle_line")}


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def accounting_errors(traced) -> List[str]:
    """Each timed request has one ``handle_line`` span inside its latency."""
    spans = Spans(traced.spans, traced.first_timed, len(traced.requests))
    roots = spans.roots()
    errors = []
    for offset, request in enumerate(traced.requests):
        root = roots.get(traced.first_timed + offset)
        if root is None:
            errors.append(f"request {offset} has no handle_line span")
        elif not request.sent <= root[2] <= root[3] <= request.received:
            errors.append(f"request {offset}: handle_line span lies outside "
                          "the client's latency")
    if len(roots) != len(traced.requests):
        errors.append(f"{len(roots)} handle_line spans for "
                      f"{len(traced.requests)} timed requests")
    return errors


def per_layer(plain, traced) -> Dict[str, float]:
    spans = Spans(traced.spans, traced.first_timed, len(traced.requests))
    roots = spans.roots()
    counters = traced.counters
    requests = traced.requests
    failed = sum(1 for r in plain.requests if r.error)
    wire = 0.0
    for offset, request in enumerate(requests):
        root = roots.get(traced.first_timed + offset)
        if root is not None:
            wire += request.latency - (root[3] - root[2])
    closures = spans.named("grounding.closure")
    closure_builds = sum(spans.extra("grounding.closure", "built"))
    encodings = spans.named("encoder.encoding")
    encoding_builds = sum(spans.extra("encoder.encoding", "built"))
    updates = spans.named("incremental.update")
    dirty = sum(spans.extra("incremental.update", "dirty"))
    members = spans.named("enumerator.member")
    delays = [s[3] - s[2] for s in members]
    conflicts = sum(spans.extra("sat.solve", "conflicts"))
    hits, admissions = counters["registry.hits"], counters["registry.admissions"]
    sizes = [s for s in spans.named("engine.evaluate", "engine.maintain", whole_run=True)
             if s[6]]
    return {
        "failed_frac": ratio(failed, len(plain.requests)),
        "server.wire_s": wire,
        "server.self_s": spans.self_s("server.handle_line"),
        "protocol.request_bytes": float(sum(len(r.line) + 1 for r in requests)),
        "protocol.response_bytes": float(sum(len(r.response) for r in requests)),
        "registry.acquire_s": spans.self_s("registry.acquire", "registry.get"),
        "registry.refresh_cost_s": spans.self_s("registry.refresh_cost"),
        "registry.hits": float(hits),
        "registry.admissions": float(admissions),
        "registry.rehydrations": float(counters["registry.rehydrations"]),
        "registry.evictions": float(counters["registry.evictions"]),
        "registry.hit_ratio": ratio(hits, hits + admissions),
        "store.rehydrate_s": spans.self_s("store.rehydrate"),
        "store.snapshot_put_s": spans.self_s("store.put_snapshot"),
        "store.wal_append_s": spans.self_s("store.append_wal"),
        "store.bytes_written": float(sum(spans.extra("store.put_snapshot", "bytes"))
                                     + sum(spans.extra("store.append_wal", "bytes"))),
        "store.fsyncs": float(sum(1 for name, request in spans.counts
                                  if name == "store.fsync" and request in spans.timed)),
        "engine.evaluate_s": spans.self_s("engine.evaluate", whole_run=True),
        "engine.evaluations": float(len(spans.named("engine.evaluate", whole_run=True))),
        "engine.maintain_s": spans.self_s("engine.maintain"),
        "engine.model_facts": float(max((s[6]["model"] for s in sizes), default=0)),
        "engine.trace_instances": float(max((s[6]["trace"] for s in sizes), default=0)),
        "engine.plan_reuses": float(counters.get("session.plan_reuses", 0)),
        "grounding.gri_build_s": spans.self_s("grounding.gri_build"),
        "grounding.gri_builds": float(len(spans.named("grounding.gri_build"))),
        "grounding.closure_s": spans.self_s("grounding.closure"),
        "grounding.closure_builds": float(closure_builds),
        "grounding.closure_nodes": float(sum(spans.extra("grounding.closure", "nodes"))),
        "incremental.update_s": spans.self_s("incremental.update"),
        "incremental.dirty_facts": float(dirty),
        "incremental.closures_invalidated": float(
            sum(spans.extra("incremental.update", "invalidated"))),
        "incremental.closures_retained": float(
            sum(spans.extra("incremental.update", "retained"))),
        "incremental.s_per_dirty_fact": ratio(sum(s[3] - s[2] for s in updates), dirty),
        "session.closure_hit_ratio": ratio(len(closures) - closure_builds, len(closures)),
        "session.encoding_hit_ratio": ratio(len(encodings) - encoding_builds,
                                            len(encodings)),
        "session.evaluations": float(len(spans.named("engine.evaluate", whole_run=True))),
        "encoder.encode_s": spans.self_s("encoder.encoding"),
        "encoder.encodings": float(encoding_builds),
        "encoder.cnf_vars": float(sum(spans.extra("encoder.encoding", "vars"))),
        "encoder.cnf_clauses": float(sum(spans.extra("encoder.encoding", "clauses"))),
        "enumerator.self_s": spans.self_s("enumerator.member", "enumerator.last"),
        "enumerator.members": float(len(members)),
        "enumerator.delay_p50_s": statistics.median(delays) if delays else 0.0,
        "enumerator.delay_max_s": max(delays, default=0.0),
        "sat.solve_s": spans.self_s("sat.solve"),
        "sat.solves": float(len(spans.named("sat.solve"))),
        "sat.conflicts": float(conflicts),
        "sat.propagations": float(sum(spans.extra("sat.solve", "propagations"))),
        "sat.conflicts_per_member": ratio(conflicts, len(members)),
        "sat.pooled_verdicts": float(counters.get("session.sat_pooled_verdicts", 0)),
        "sat.pool_hits": float(counters.get("session.sat_pool_hits", 0)),
        "sat.pool_misses": float(counters.get("session.sat_pool_misses", 0)),
        "decision.decide_s": spans.self_s("decision.decide"),
        "decision.decides": float(len(spans.named("decision.decide"))),
        "decision.solver_builds": float(sum(spans.extra("decision.decide", "solver_builds"))),
        "daemon.cpu_s": plain.cpu_s,
        "daemon.busy_frac": ratio(plain.cpu_s, sum(r.latency for r in plain.requests)),
        "trace.overhead_frac": 1.0 - ratio(sum(plain.scaled(r) for r in plain.requests),
                                           sum(traced.scaled(r) for r in requests)),
    }
