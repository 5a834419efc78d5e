"""Update latency of incremental view maintenance vs full re-evaluation.

The live-updates workload: a warm :class:`ProvenanceSession` (evaluated,
grounded, with every sampled tuple's closure/encoding/solver cached)
receives a database delta and must serve correct provenance again. Two
strategies are timed per delta:

* **incremental** — ``session.update(delta)``: deletions re-rank the
  rank-supported cone of the deleted facts, delta-semi-naive insertion
  rounds add what the inserts derive, both patching the evaluation and
  the instance trace in place, only the caches the delta reaches are
  dropped, and the
  sampled tuples' closures/encodings are re-warmed through the surviving
  caches;
* **full** — the pre-incremental protocol: apply the delta to a copy of
  the database, build a cold session (fresh evaluation, fresh GRI), and
  rebuild the same tuples' closures and encodings from scratch.

The timed region is *time back to warm*: everything up to (and
including) the CNF encodings, which is exactly the work maintenance can
save. The first update of a freshly warmed session also pays the
one-time indexing of its trace by body fact, so each row times a second
seeded delta of the same size on the same session as well
(``steady_update_seconds``, update plus re-warm): the steady state of a
session that keeps receiving updates. SAT enumeration is excluded —
both strategies run it identically, so it would only dilute the ratio —
but member-list identity between the maintained and a cold session is
still asserted (untimed) after every delta. Deltas are
measured at increasing sizes (default 1, 4, 16 edits, half insertions /
half deletions, seeded) on the TransClosure/bitcoin and Andersen/D2
scenarios plus the dependency-resolution workload
(``synthetic-deps-n48-s0`` — the join/conflict-heavy repodata family,
where an update is a package upgrade); the incremental path is expected
to win clearly on small deltas and to degrade gracefully toward the
full-re-evaluation cost as the delta grows.

Emits ``BENCH_incremental_updates.json`` with the latency-vs-delta-size
curves (``REPRO_BENCH_DELTA_SIZES`` overrides the sizes).
"""

import os
import random
import time

from repro.datalog.database import Database, Delta
from repro.core.session import ProvenanceSession
from repro.harness.runner import sample_answer_tuples
from repro.scenarios import get_scenario

from _common import (
    BENCH_MEMBERS,
    BENCH_TIMEOUT,
    BENCH_TUPLES,
    engines_under_test,
    print_banner,
    run_once,
    write_bench_json,
)

DELTA_SIZES = [
    int(part)
    for part in os.environ.get("REPRO_BENCH_DELTA_SIZES", "1,4,16").split(",")
    if part.strip()
]
TARGETS = [
    ("TransClosure", "bitcoin"),
    ("Andersen", "D2"),
    ("synthetic-deps-n48-s0", "gen"),
]


def _random_delta(database: Database, rng: random.Random, size: int) -> Delta:
    """A seeded delta of *size* edits: half deletions, half fresh inserts.

    Deletions sample existing facts; insertions clone the shape of
    existing facts with one argument rewritten to a fresh constant, so
    they are guaranteed new while staying inside ``edb(Sigma)``.
    """
    facts = sorted(database.facts(), key=str)
    num_deleted = size // 2
    num_inserted = size - num_deleted
    deleted = frozenset(rng.sample(facts, k=min(num_deleted, len(facts))))
    inserted = set()
    while len(inserted) < num_inserted:
        template = rng.choice(facts)
        position = rng.randrange(template.arity)
        args = list(template.args)
        args[position] = f"new{rng.randrange(10 ** 6)}"
        candidate = type(template)(template.pred, tuple(args))
        if candidate not in database and candidate not in deleted:
            inserted.add(candidate)
    return Delta(inserted=frozenset(inserted), deleted=deleted)


def _warm(session: ProvenanceSession, tuples) -> None:
    """Build (or re-use) closures and encodings for every sampled tuple."""
    for tup in tuples:
        session.encoding_or_none(tup)


def _serve(session: ProvenanceSession, tuples) -> list:
    """Full enumeration per tuple — the untimed correctness check."""
    return [session.why(tup, limit=BENCH_MEMBERS, timeout_seconds=BENCH_TIMEOUT)
            for tup in tuples]


def _assert_identical(session: ProvenanceSession, cold: ProvenanceSession,
                      tuples, where: str) -> None:
    """Untimed: the maintained session must stay indistinguishable from
    the cold one — same answers, same witnesses, same order."""
    assert session.answers() == cold.answers(), f"answers diverged on {where}"
    assert _serve(session, tuples) == _serve(cold, tuples), (
        f"incremental != full on {where}"
    )


def _measure_scenario(scenario_name: str, database_name: str, engine: str) -> dict:
    scenario = get_scenario(scenario_name)
    query = scenario.query()
    database = scenario.database(database_name).restrict(query.program.edb)
    rows = []
    for size in DELTA_SIZES:
        # A fresh warm session per delta size: the incremental path must
        # not inherit invalidations from a previous round's delta.
        live_db = database.copy()
        session = ProvenanceSession(query, live_db, engine=engine)
        tuples = sample_answer_tuples(
            query, live_db, count=BENCH_TUPLES, seed=7,
            evaluation=session.evaluation,
        )
        _warm(session, tuples)  # warm closures/encodings
        plans_before = session.stats.plans_compiled
        reuses_before = session.stats.plan_reuses
        delta = _random_delta(live_db, random.Random(1000 + size), size)

        started = time.perf_counter()
        receipt = session.update(delta)
        _warm(session, tuples)
        incremental_seconds = time.perf_counter() - started

        if engine == "compiled":
            # Plan-cache contract: the initial evaluation compiled the
            # plans, and the maintenance rounds run through the same plan
            # cache — reusing evaluation's plans in every follow-up round,
            # or compiling (once, then caching) the EDB-pivot plans
            # evaluation never needed. An insertion whose pivot round
            # derives nothing has no follow-up round, so only the
            # compiled counter moves there (the deps upgrades hit this).
            assert plans_before > 0, "compiled session reported no plans"
            if receipt.effective.inserted:
                assert (
                    session.stats.plan_reuses > reuses_before
                    or session.stats.plans_compiled > plans_before
                ), "maintenance insertion rounds bypassed the plan cache"

        # Full re-evaluation baseline over an identically-updated copy.
        cold_db = database.copy()
        started = time.perf_counter()
        cold_db.apply(delta)
        cold = ProvenanceSession(query, cold_db, engine=engine)
        cold.evaluation
        cold.gri()
        _warm(cold, tuples)
        full_seconds = time.perf_counter() - started
        _assert_identical(session, cold, tuples, f"{scenario_name}/{database_name} "
                          f"delta size {size}")

        # The steady state: a second delta of the same size on the same,
        # re-warmed session, whose trace the first update indexed.
        steady_delta = _random_delta(live_db, random.Random(2000 + size), size)
        started = time.perf_counter()
        session.update(steady_delta)
        _warm(session, tuples)
        steady_seconds = time.perf_counter() - started
        cold_db.apply(steady_delta)
        _assert_identical(session, ProvenanceSession(query, cold_db, engine=engine), tuples,
                          f"{scenario_name}/{database_name} second delta size {size}")
        rows.append(
            {
                "delta_size": size,
                "inserted": len(receipt.effective.inserted),
                "deleted": len(receipt.effective.deleted),
                "model_facts_changed": receipt.dirty_fact_count(),
                "closures_invalidated": receipt.invalidated_closures,
                "closures_retained": receipt.retained_closures,
                "update_seconds": receipt.seconds,
                "steady_update_seconds": steady_seconds,
                "incremental_seconds": incremental_seconds,
                "full_seconds": full_seconds,
                "speedup": (full_seconds / incremental_seconds)
                if incremental_seconds
                else 0.0,
                "plans_compiled": session.stats.plans_compiled,
                "plan_reuses": session.stats.plan_reuses,
                "identical": True,
            }
        )
    return {
        "scenario": scenario_name,
        "database": database_name,
        "engine": engine,
        "fact_count": len(database),
        "tuples": BENCH_TUPLES,
        "rows": rows,
    }


def _run_all():
    return [
        _measure_scenario(name, db, engine)
        for engine in engines_under_test()
        for name, db in TARGETS
    ]


def test_incremental_updates(benchmark, capsys):
    """Latency of ``session.update`` + re-serve vs a cold session rebuild."""
    curves = run_once(benchmark, _run_all)
    with capsys.disabled():
        for curve in curves:
            print_banner(
                f"Incremental updates ({curve['scenario']}/{curve['database']}, "
                f"{curve['fact_count']} facts, {curve['tuples']} tuples, "
                f"{curve['engine']} engine)"
            )
            print(
                f"{'delta':>6} {'changed':>8} {'inval':>6} {'kept':>5} "
                f"{'incr (s)':>9} {'steady (s)':>10} {'full (s)':>9} {'speedup':>8}"
            )
            for row in curve["rows"]:
                print(
                    f"{row['delta_size']:>6} {row['model_facts_changed']:>8} "
                    f"{row['closures_invalidated']:>6} {row['closures_retained']:>5} "
                    f"{row['incremental_seconds']:>9.4f} "
                    f"{row['steady_update_seconds']:>10.4f} {row['full_seconds']:>9.4f} "
                    f"{row['speedup']:>7.2f}x"
                )
        path = write_bench_json(
            "incremental_updates", {"delta_sizes": DELTA_SIZES, "curves": curves}
        )
        print(f"machine-readable record: {path}")
    # Correctness is asserted inside the measurement; the headline claim —
    # incremental beats full re-evaluation on the smallest delta — is the
    # acceptance bar for the maintenance machinery.
    for curve in curves:
        smallest = curve["rows"][0]
        assert smallest["speedup"] > 1.0, (
            f"incremental update slower than full re-evaluation on "
            f"{curve['scenario']}/{curve['database']} at delta size "
            f"{smallest['delta_size']}"
        )
