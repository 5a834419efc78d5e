"""Service daemon throughput: concurrent clients against one live daemon.

A real TCP daemon is started in-process (`local_service`), one scenario
database is admitted, and three things are measured:

* **cold admission vs warm hit** — the ``open`` request that evaluates
  the program and builds the session, against the ``open`` that finds it
  live in the registry (the number that justifies keeping sessions warm);
* **throughput vs concurrency** — a fixed pool of ``why`` requests over
  the sampled answer tuples, fired by 1, 2, 4, ... concurrent client
  threads (each with its own TCP connection; override the ladder with
  ``REPRO_BENCH_SERVICE_CLIENTS="1,2,4,8"``). Requests against one
  session serialize on the per-session lock, so the curve measures the
  dispatch + wire overhead the daemon adds around the cached pipeline —
  on a multi-core host, point the clients at different databases to see
  cross-session parallelism instead;
* **update-storm recovery** — a burst of single-fact updates (insert
  then delete), recording per-update maintenance latency and the first
  ``why`` after each: how fast the daemon is back to warm serving after
  every write, without ever re-evaluating;
* **restart recovery** — a second daemon with a ``--state-dir``: cold
  admission (also starting the session's log) and a logged update
  burst, then a hard stop and a restart on the same directory, timing
  the rehydrating ``open`` (the logged deltas applied to the admitted
  database, evaluated once) against the cold admission plus the
  updates (``docs/PERSISTENCE.md``);
* **sharding** — the same request pool against ``serve --workers N``
  for each point of ``REPRO_BENCH_SERVICE_WORKERS`` (default ``1,4``):
  one session *per client* (distinct digests, so consistent hashing
  spreads them over the pool) and the aggregate req/s per worker count.
  Cross-session requests don't share a per-session lock, so on a
  multi-core host the curve bends upward with workers; the recorded
  ``cores`` field says whether this host could show that at all.

Emits ``BENCH_service_throughput.json`` with all five sections.
"""

import os
import shutil
import statistics
import tempfile
import threading
import time

from repro.datalog.io import database_to_text, program_to_text
from repro.harness.runner import sample_from_answers
from repro.scenarios import get_scenario
from repro.service.client import (
    ServiceClient,
    local_service,
    local_sharded_service,
)

from _common import (
    BENCH_MEMBERS,
    BENCH_TIMEOUT,
    print_banner,
    run_once,
    write_bench_json,
)

SERVICE_CLIENTS = [
    int(part)
    for part in os.environ.get("REPRO_BENCH_SERVICE_CLIENTS", "1,2,4").split(",")
    if part.strip()
]
SERVICE_SCENARIO = os.environ.get("REPRO_BENCH_SERVICE_SCENARIO", "TransClosure")
SERVICE_DATABASE = os.environ.get("REPRO_BENCH_SERVICE_DB", "bitcoin")
#: Total why-requests per concurrency point (split across the clients).
SERVICE_REQUESTS = int(os.environ.get("REPRO_BENCH_SERVICE_REQUESTS", "48"))
#: Distinct answer tuples the request pool cycles through.
SERVICE_TUPLES = int(os.environ.get("REPRO_BENCH_SERVICE_TUPLES", "8"))
#: Updates in the storm phase.
SERVICE_UPDATES = int(os.environ.get("REPRO_BENCH_SERVICE_UPDATES", "6"))
#: Worker-count ladder for the sharding section (1 = single-process).
SERVICE_WORKERS = [
    int(part)
    for part in os.environ.get("REPRO_BENCH_SERVICE_WORKERS", "1,4").split(",")
    if part.strip()
]


def _throughput_point(address, digest, tuples, clients):
    """Fire SERVICE_REQUESTS why-requests from *clients* threads; time it."""
    per_client = max(1, SERVICE_REQUESTS // clients)
    errors = []
    barrier = threading.Barrier(clients + 1)

    def worker(offset):
        try:
            with ServiceClient(host=address[0], port=address[1]) as mine:
                barrier.wait()
                for index in range(per_client):
                    tup = tuples[(offset + index) % len(tuples)]
                    response = mine.why(
                        digest, tup, limit=BENCH_MEMBERS, timeout=BENCH_TIMEOUT
                    )
                    if not response["ok"]:  # pragma: no cover - would be a bug
                        errors.append(response)
        except Exception as exc:
            # Break the barrier so nobody (main thread included) waits
            # forever on a party that already failed.
            errors.append(exc)
            barrier.abort()

    threads = [
        threading.Thread(target=worker, args=(offset,))
        for offset in range(clients)
    ]
    for thread in threads:
        thread.start()
    try:
        barrier.wait()
    except threading.BrokenBarrierError:
        pass  # a worker failed before the start line; errors has it
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    seconds = time.perf_counter() - started
    assert not errors, errors[:3]
    total = per_client * clients
    return {
        "clients": clients,
        "requests": total,
        "seconds": seconds,
        "requests_per_second": total / seconds if seconds else 0.0,
    }


def _run_service_benchmark():
    scenario = get_scenario(SERVICE_SCENARIO)
    query = scenario.query()
    database = scenario.database(SERVICE_DATABASE).restrict(query.program.edb)
    program_text = program_to_text(query.program)
    database_text = database_to_text(database)
    with local_service(threads=max(SERVICE_CLIENTS) + 2) as client:
        address = client.address

        # Cold admission: parse + evaluate, all in one request.
        cold_started = time.perf_counter()
        opened = client.open(program_text, database_text, query.answer_predicate)
        cold_seconds = time.perf_counter() - cold_started
        digest = opened["session"]
        assert opened["result"]["admitted"] is True

        # Warm hits: the same open served from the registry.
        warm_samples = []
        for _ in range(5):
            warm_started = time.perf_counter()
            reopened = client.open(program_text, database_text, query.answer_predicate)
            warm_samples.append(time.perf_counter() - warm_started)
            assert reopened["result"]["admitted"] is False
        warm_seconds = statistics.median(warm_samples)

        answers = [
            tuple(values) for values in client.answers(digest)["result"]["answers"]
        ]
        tuples = sample_from_answers(answers, count=SERVICE_TUPLES, seed=7)

        # Prime the per-fact caches once so every concurrency point
        # measures the same (warm) serving work.
        for tup in tuples:
            client.why(digest, tup, limit=BENCH_MEMBERS, timeout=BENCH_TIMEOUT)

        curve = [
            _throughput_point(address, digest, tuples, clients)
            for clients in SERVICE_CLIENTS
        ]

        # Update storm: per-update maintenance plus back-to-warm reads.
        update_seconds = []
        recovery_seconds = []
        probe = tuples[0]
        for index in range(SERVICE_UPDATES):
            line = (
                f"+{_storm_fact(scenario.name, index)}."
                if index % 2 == 0
                else f"-{_storm_fact(scenario.name, index - 1)}."
            )
            started = time.perf_counter()
            client.update(digest, lines=[line])
            update_seconds.append(time.perf_counter() - started)
            started = time.perf_counter()
            client.why(digest, probe, limit=BENCH_MEMBERS, timeout=BENCH_TIMEOUT)
            recovery_seconds.append(time.perf_counter() - started)
        stats = client.stats(digest)["result"]
        assert stats["session_stats"]["evaluations"] == 1

    restart = _run_restart_recovery(
        program_text, database_text, query.answer_predicate, scenario.name
    )
    sharding = _run_sharding_benchmark(
        program_text, database_text, query.answer_predicate, scenario.name
    )

    return {
        "scenario": scenario.name,
        "database": SERVICE_DATABASE,
        "fact_count": opened["result"]["fact_count"],
        "request_pool": {
            "tuples": SERVICE_TUPLES,
            "requests_per_point": SERVICE_REQUESTS,
            "member_limit": BENCH_MEMBERS,
            "timeout_seconds": BENCH_TIMEOUT,
        },
        "admission": {
            "cold_seconds": cold_seconds,
            "warm_hit_seconds": warm_seconds,
            "warm_hit_samples": warm_samples,
            "cost_bytes": opened["result"]["cost_bytes"],
        },
        "throughput_curve": curve,
        "update_storm": {
            "updates": SERVICE_UPDATES,
            "update_seconds": update_seconds,
            "first_why_after_update_seconds": recovery_seconds,
            "evaluations_after_storm": stats["session_stats"]["evaluations"],
        },
        "restart_recovery": restart,
        "sharding": sharding,
    }


def _multi_session_point(address, sessions):
    """One thread per session, each on its own connection; aggregate req/s.

    Unlike :func:`_throughput_point` the sessions are *distinct digests*,
    so in a sharded daemon they live on different workers and nothing
    serializes server-side except genuine compute.
    """
    clients = len(sessions)
    per_client = max(1, SERVICE_REQUESTS // clients)
    errors = []
    barrier = threading.Barrier(clients + 1)

    def worker(digest, tuples):
        try:
            with ServiceClient(host=address[0], port=address[1]) as mine:
                barrier.wait()
                for index in range(per_client):
                    tup = tuples[index % len(tuples)]
                    response = mine.why(
                        digest, tup, limit=BENCH_MEMBERS, timeout=BENCH_TIMEOUT
                    )
                    if not response["ok"]:  # pragma: no cover - would be a bug
                        errors.append(response)
        except Exception as exc:
            errors.append(exc)
            barrier.abort()

    threads = [
        threading.Thread(target=worker, args=session) for session in sessions
    ]
    for thread in threads:
        thread.start()
    try:
        barrier.wait()
    except threading.BrokenBarrierError:
        pass
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    seconds = time.perf_counter() - started
    assert not errors, errors[:3]
    total = per_client * clients
    return {
        "clients": clients,
        "requests": total,
        "seconds": seconds,
        "requests_per_second": total / seconds if seconds else 0.0,
    }


def _run_sharding_benchmark(program_text, database_text, answer, scenario_name):
    """Aggregate req/s per worker count, one session per client."""
    n_clients = max(max(SERVICE_WORKERS), 2)
    points = []
    for workers in SERVICE_WORKERS:
        if workers <= 1:
            context = local_service(threads=n_clients + 2)
        else:
            context = local_sharded_service(
                workers=workers, worker_threads=n_clients + 2
            )
        with context as client:
            sessions = []
            owners = set()
            for index in range(n_clients):
                # A unique extra fact gives each client its own digest —
                # and therefore, under sharding, its own worker.
                text = f"{database_text}\n{_shard_fact(scenario_name, index)}."
                digest = client.open(program_text, text, answer)["session"]
                answers = [
                    tuple(values)
                    for values in client.answers(digest)["result"]["answers"]
                ]
                tuples = sample_from_answers(answers, count=4, seed=7)
                for tup in tuples:  # prime the per-fact caches
                    client.why(digest, tup, limit=BENCH_MEMBERS, timeout=BENCH_TIMEOUT)
                if workers > 1:
                    owners.add(client.stats(digest)["result"]["shard"]["slot"])
                sessions.append((digest, tuples))
            point = _multi_session_point(client.address, sessions)
        point["workers"] = workers
        if workers > 1:
            point["distinct_shards_used"] = len(owners)
        points.append(point)

    baseline = next(
        (p for p in points if p["workers"] == 1), points[0]
    )
    best = max(points, key=lambda p: p["workers"])
    return {
        "workers_ladder": SERVICE_WORKERS,
        "clients": n_clients,
        "cores": os.cpu_count(),
        "points": points,
        "speedup_at_max_workers": (
            best["requests_per_second"] / baseline["requests_per_second"]
            if baseline["requests_per_second"]
            else 0.0
        ),
    }


def _shard_fact(scenario_name, index):
    if scenario_name == "TransClosure":
        return f"e(shard{index}_a, shard{index}_b)"
    return f"addressof(shard{index}_a, shard{index}_b)"


def _run_restart_recovery(program_text, database_text, answer, scenario_name):
    """Cold-admit with a durable store, hard-stop, restart, time the open."""
    state_dir = tempfile.mkdtemp(prefix="repro-bench-state-")
    try:
        with local_service(state_dir=state_dir) as client:
            started = time.perf_counter()
            opened = client.open(program_text, database_text, answer)
            cold_seconds = time.perf_counter() - started
            digest = opened["session"]
            assert opened["result"]["rehydrated"] is False
            # Insert-only burst: every update is effective, so the log
            # holds exactly this many deltas for the replay below. Each
            # update is timed because the fair baseline for a rehydrating
            # open is a cold admission *plus* re-applying these updates —
            # that is what reaching the same state without the store costs.
            update_seconds = []
            for index in range(SERVICE_UPDATES):
                started = time.perf_counter()
                client.update(
                    digest, lines=[f"+{_storm_fact(scenario_name, index)}."]
                )
                update_seconds.append(time.perf_counter() - started)
            disk_bytes = client.stats()["result"]["store"]["disk_bytes"]

        # The context exit is the hard stop: nothing is flushed beyond
        # what each committed request already fsync'd.
        with local_service(state_dir=state_dir) as client:
            started = time.perf_counter()
            reopened = client.open(program_text, database_text, answer)
            rehydrate_seconds = time.perf_counter() - started
            assert reopened["result"]["rehydrated"] is True
            assert reopened["version"] == SERVICE_UPDATES
            stats = client.stats(digest)["result"]
            evaluations = stats["session_stats"]["evaluations"]

        cold_equivalent = cold_seconds + sum(update_seconds)
        return {
            "cold_admission_seconds": cold_seconds,
            "update_seconds": update_seconds,
            "cold_equivalent_seconds": cold_equivalent,
            "rehydrate_seconds": rehydrate_seconds,
            "speedup": (
                cold_equivalent / rehydrate_seconds if rehydrate_seconds else 0.0
            ),
            "wal_updates_replayed": SERVICE_UPDATES,
            "state_dir_bytes": disk_bytes,
            "evaluations_after_restart": evaluations,
        }
    finally:
        shutil.rmtree(state_dir, ignore_errors=True)


def _storm_fact(scenario_name, index):
    if scenario_name == "TransClosure":
        return f"e(storm{index}, storm{index + 1})"
    return f"addressof(storm{index}, storm{index + 1})"


def test_service_throughput(benchmark, capsys):
    payload = run_once(benchmark, _run_service_benchmark)
    with capsys.disabled():
        print_banner(
            f"Service daemon throughput ({payload['scenario']}/"
            f"{payload['database']}, {os.cpu_count()} cores)"
        )
        admission = payload["admission"]
        print(
            f"cold admission {admission['cold_seconds']:.3f}s, "
            f"warm hit {admission['warm_hit_seconds'] * 1000:.2f}ms "
            f"({admission['cost_bytes']} bytes accounted)"
        )
        print(f"{'clients':>8} {'requests':>9} {'seconds':>9} {'req/s':>8}")
        for row in payload["throughput_curve"]:
            print(
                f"{row['clients']:>8} {row['requests']:>9} "
                f"{row['seconds']:>9.3f} {row['requests_per_second']:>8.1f}"
            )
        storm = payload["update_storm"]
        print(
            f"update storm: {storm['updates']} updates, "
            f"median update {statistics.median(storm['update_seconds']) * 1000:.2f}ms, "
            f"median back-to-warm why "
            f"{statistics.median(storm['first_why_after_update_seconds']) * 1000:.2f}ms, "
            f"evaluations still {storm['evaluations_after_storm']}"
        )
        restart = payload["restart_recovery"]
        print(
            f"restart recovery: cold admission + updates "
            f"{restart['cold_equivalent_seconds']:.3f}s vs rehydrate "
            f"{restart['rehydrate_seconds']:.3f}s "
            f"({restart['speedup']:.1f}x, "
            f"{restart['wal_updates_replayed']} logged updates replayed, "
            f"{restart['state_dir_bytes']} bytes on disk)"
        )
        sharding = payload["sharding"]
        print(
            f"sharding ({sharding['clients']} clients, "
            f"{sharding['cores']} cores): "
            + ", ".join(
                f"{p['workers']}w={p['requests_per_second']:.1f} req/s"
                for p in sharding["points"]
            )
            + f" — {sharding['speedup_at_max_workers']:.2f}x at max workers"
        )
        path = write_bench_json("service_throughput", payload)
        print(f"machine-readable record: {path}")
    # The acceptance shape: at least two concurrency points, all served.
    assert len(payload["throughput_curve"]) >= 2
    assert all(row["requests_per_second"] > 0 for row in payload["throughput_curve"])
    assert payload["update_storm"]["evaluations_after_storm"] == 1
    assert payload["restart_recovery"]["evaluations_after_restart"] == 1
    assert payload["restart_recovery"]["rehydrate_seconds"] > 0
    sharding = payload["sharding"]
    assert all(p["requests_per_second"] > 0 for p in sharding["points"])
    for point in sharding["points"]:
        if point["workers"] > 1:
            # Distinct digests really did land on distinct workers.
            assert point["distinct_shards_used"] >= 2
    # Throughput bending upward with workers needs actual cores; a
    # single-core host records the curve but cannot assert scaling.
    if (os.cpu_count() or 1) >= 2 and max(SERVICE_WORKERS) > 1:
        assert sharding["speedup_at_max_workers"] > 1.0, sharding
