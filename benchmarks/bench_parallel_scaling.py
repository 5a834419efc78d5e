"""Batch-throughput scaling of the parallel provenance service.

One Andersen database, one fixed batch of sampled answer tuples, served by
``ProvenanceSession.explain_batch`` at increasing worker counts (default
1, 2, 4 — override with ``REPRO_BENCH_SCALING_WORKERS="1,2,4,8"``). The
serial run is the baseline; every parallel run must return *identical*
results (same witnesses, same order), so the speedup curve measures pure
sharding, never changed work.

Reading the numbers: speedup is bounded by the machine's core count
(recorded as ``cpu_count`` in the JSON envelope). On a >= 4-core machine
the 4-worker row is expected at >= 2x serial throughput; on fewer cores
the curve flattens accordingly — compare rows against ``cpu_count``, not
against the worker count alone.

Emits ``BENCH_parallel_scaling.json`` with the speedup-vs-workers curve.
"""

import os

from repro.core.parallel import EvaluationSnapshot
from repro.core.session import ProvenanceSession
from repro.harness.runner import sample_answer_tuples
from repro.scenarios import get_scenario

from _common import (
    BENCH_MEMBERS,
    BENCH_TIMEOUT,
    print_banner,
    run_once,
    write_bench_json,
)

SCALING_WORKERS = [
    int(part)
    for part in os.environ.get("REPRO_BENCH_SCALING_WORKERS", "1,2,4").split(",")
    if part.strip()
]
# The serial run is the baseline of every speedup number, so it always
# runs, and first — even when the override omits or reorders it.
SCALING_WORKERS = [1] + [w for w in SCALING_WORKERS if w != 1]
SCALING_DATABASE = os.environ.get("REPRO_BENCH_SCALING_DB", "D2")
SCALING_TUPLES = int(os.environ.get("REPRO_BENCH_SCALING_TUPLES", "16"))


def _run_curve():
    scenario = get_scenario("Andersen")
    query = scenario.query()
    database = scenario.database(SCALING_DATABASE).restrict(query.program.edb)
    session = ProvenanceSession(query, database)
    session.evaluation  # shared one-time cost, outside every timed region
    tuples = sample_answer_tuples(
        query, database, count=SCALING_TUPLES, seed=7,
        evaluation=session.evaluation,
    )
    curve = []
    baseline = None
    for workers in SCALING_WORKERS:
        # A fresh session per round: cold per-fact caches for serial and
        # parallel alike, so the timed region is the same work everywhere.
        # capture/restore (no pickling) starts each round without a GRI
        # index: the index lives on the session, and sharing it across
        # rounds would hand later rounds a warm cache.
        round_session = EvaluationSnapshot.capture(session).restore()
        batch = round_session.explain_batch(
            tuples,
            workers=workers,
            limit=BENCH_MEMBERS,
            timeout_seconds=BENCH_TIMEOUT,
        )
        if baseline is None:
            baseline = batch
            identical = True
        else:
            # Sharding must never change the answer. Ordering is a hard
            # invariant; member-list identity is recorded rather than
            # asserted because the per-tuple timeout can truncate an
            # enumeration differently under load (tests/test_parallel.py
            # proves identity with the timeout off).
            assert [r.tuple_value for r in batch.results] == [
                r.tuple_value for r in baseline.results
            ]
            identical = [r.members for r in batch.results] == [
                r.members for r in baseline.results
            ]
        curve.append(
            {
                "workers": batch.workers,
                "requested_workers": workers,
                "parallel": batch.parallel,
                "fallback_reason": batch.fallback_reason,
                "chunk_size": batch.chunk_size,
                "snapshot_bytes": batch.snapshot_bytes,
                "seconds": batch.total_seconds,
                "throughput": batch.throughput,
                "members_total": sum(len(r.members) for r in batch.results),
                "identical_to_serial": identical,
            }
        )
    serial_seconds = curve[0]["seconds"]
    for row in curve:
        row["speedup"] = serial_seconds / row["seconds"] if row["seconds"] else 0.0
    return curve, len(tuples)


def test_parallel_scaling(benchmark, capsys):
    curve, batch_size = run_once(benchmark, _run_curve)
    with capsys.disabled():
        print_banner(
            f"Parallel batch scaling (Andersen/{SCALING_DATABASE}, "
            f"{batch_size} tuples, {os.cpu_count()} cores)"
        )
        print(f"{'workers':>8} {'seconds':>9} {'tuples/s':>9} {'speedup':>8}")
        for row in curve:
            note = "" if row["identical_to_serial"] else "  (timeout truncation)"
            print(
                f"{row['workers']:>8} {row['seconds']:>9.3f} "
                f"{row['throughput']:>9.2f} {row['speedup']:>7.2f}x{note}"
            )
        four = next((r for r in curve if r["requested_workers"] == 4), None)
        if four is not None:
            cores = os.cpu_count() or 1
            if four["speedup"] >= 2.0:
                print("scaling check OK: >= 2x batch throughput at 4 workers")
            elif cores < 4:
                print(
                    f"scaling note: only {cores} core(s) available — the 2x "
                    "target needs >= 4 cores; curve recorded for comparison"
                )
            else:
                print(
                    "scaling check FAILED: < 2x at 4 workers on a "
                    f"{cores}-core machine; investigate before citing"
                )
        path = write_bench_json(
            "parallel_scaling",
            {
                "scenario": "Andersen",
                "database": SCALING_DATABASE,
                "batch_size": batch_size,
                "curve": curve,
            },
        )
        print(f"machine-readable record: {path}")
    # The batch itself must have produced work at every worker count.
    assert all(row["members_total"] > 0 for row in curve)
