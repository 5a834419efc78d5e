"""Experiment runner implementing the paper's setup (Section 5.3).

For each scenario and database: compute ``Q(D)``, select five answer
tuples uniformly at random (seeded), and for each tuple build the downward
closure, compile the Boolean formula, and enumerate the members of the
why-provenance (capped by member count and timeout). The records returned
carry the Figure 1/3 build times and the Figure 2/4 delay distributions.

Each database is served through one
:class:`~repro.core.session.ProvenanceSession`: the program is evaluated
once with instance recording on, and every sampled tuple's closure is a
reachability restriction of the shared GRI. Pass ``workers > 1`` to
shard the sampled tuples across the worker pool of
:class:`~repro.core.parallel.ParallelProvenanceExplainer` (one parent
evaluation, per-fact grounding/encoding/solving in forked workers).
Pass ``deltas=[...]`` to replay database updates through the live
session — each delta is applied by incremental view maintenance
(:meth:`ProvenanceSession.update`) and the experiment re-served, giving
the update-latency numbers of ``bench_incremental_updates.py``.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..datalog.database import Database, Delta
from ..datalog.engine import EvaluationResult, evaluate
from ..datalog.program import DatalogQuery
from ..core.enumerator import EnumerationReport, WhyProvenanceEnumerator
from ..core.session import ProvenanceSession
from ..scenarios.base import Scenario
from .stats import BoxStats, box_stats

#: Paper defaults, scaled: 10K members / 5 min in the paper.
DEFAULT_MEMBER_LIMIT = 500
DEFAULT_TIMEOUT_SECONDS = 20.0
DEFAULT_TUPLES_PER_DATABASE = 5


@dataclass
class TupleRun:
    """All measurements for one (scenario, database, tuple) cell."""

    scenario: str
    database: str
    tuple_value: Tuple
    closure_seconds: float
    formula_seconds: float
    members: int
    delays: List[float]
    exhausted: bool

    @property
    def build_seconds(self) -> float:
        """Closure plus formula construction (one bar of Figure 1)."""
        return self.closure_seconds + self.formula_seconds

    def delay_box(self) -> Optional[BoxStats]:
        """Five-number summary of the delays (``None`` if no members)."""
        if not self.delays:
            return None
        return box_stats(self.delays)


@dataclass
class DatabaseRun:
    """Five tuple runs over one database (one bar group / box of a figure).

    When the experiment replays database updates (``run_database(deltas=...)``)
    each post-update re-serve appends one more :class:`DatabaseRun` to
    ``update_runs``, labeled ``<database>+u<i>``; the top-level run is
    always the pre-update state.
    """

    scenario: str
    database: str
    fact_count: int
    tuple_runs: List[TupleRun]
    update_runs: List["DatabaseRun"] = field(default_factory=list)

    def build_times(self) -> List[float]:
        """Per-tuple build times (one Figure 1/3 bar group)."""
        return [run.build_seconds for run in self.tuple_runs]

    def pooled_delays(self) -> List[float]:
        """All delays of all tuple runs pooled (one Figure 2/4 box)."""
        delays: List[float] = []
        for run in self.tuple_runs:
            delays.extend(run.delays)
        return delays


def sample_from_answers(
    answers: Sequence[Tuple],
    count: int = DEFAULT_TUPLES_PER_DATABASE,
    seed: int = 7,
) -> List[Tuple]:
    """Sample *count* tuples from an answer list (sorted first, fixed seed).

    The sampling kernel shared by the in-process and the service-backed
    experiment paths — both sort before sampling, so the same seed picks
    the same tuples whether the answers came from a local evaluation or
    over the wire.
    """
    answers = sorted(answers)
    if not answers:
        return []
    rng = random.Random(seed)
    if len(answers) <= count:
        return list(answers)
    return rng.sample(answers, count)


def sample_answer_tuples(
    query: DatalogQuery,
    database: Database,
    count: int = DEFAULT_TUPLES_PER_DATABASE,
    seed: int = 7,
    evaluation: Optional[EvaluationResult] = None,
) -> List[Tuple]:
    """Select *count* answer tuples uniformly at random (with a fixed seed).

    Deterministic: answers are sorted before sampling so the same seed
    always yields the same tuples regardless of set iteration order.
    """
    if evaluation is None:
        evaluation = evaluate(query.program, database)
    answers = [
        fact.args for fact in evaluation.model.relation(query.answer_predicate)
    ]
    return sample_from_answers(answers, count=count, seed=seed)


def run_tuple(
    query: DatalogQuery,
    database: Database,
    tup: Tuple,
    scenario_name: str = "",
    database_name: str = "",
    member_limit: Optional[int] = DEFAULT_MEMBER_LIMIT,
    timeout_seconds: Optional[float] = DEFAULT_TIMEOUT_SECONDS,
    acyclicity: str = "vertex-elimination",
    session: Optional[ProvenanceSession] = None,
) -> TupleRun:
    """The per-tuple experiment: build + enumerate with limits.

    Without a *session* the enumerator builds one for this tuple.
    """
    enumerator = WhyProvenanceEnumerator(
        query, database, tup, acyclicity=acyclicity, session=session
    )
    report: EnumerationReport = enumerator.run(
        limit=member_limit, timeout_seconds=timeout_seconds
    )
    return TupleRun(
        scenario=scenario_name,
        database=database_name,
        tuple_value=tup,
        closure_seconds=report.closure_seconds,
        formula_seconds=report.formula_seconds,
        members=report.members,
        delays=report.delays,
        exhausted=report.exhausted,
    )


def _serve_tuples(
    session: ProvenanceSession,
    tuples: Sequence[Tuple],
    scenario_name: str,
    database_name: str,
    member_limit: Optional[int],
    timeout_seconds: Optional[float],
    workers: int,
) -> List[TupleRun]:
    """Serve the sampled tuples through *session* (serial or sharded)."""
    batch = session.explain_batch(
        tuples,
        workers=workers,
        limit=member_limit,
        timeout_seconds=timeout_seconds,
    )
    return [
        TupleRun(
            scenario=scenario_name,
            database=database_name,
            tuple_value=result.tuple_value,
            closure_seconds=result.closure_seconds,
            formula_seconds=result.formula_seconds,
            members=len(result.members),
            delays=result.delays,
            exhausted=result.exhausted,
        )
        for result in batch.results
    ]


def _tuple_runs_from_batch(
    batch_result: Dict,
    scenario_name: str,
    database_name: str,
) -> List[TupleRun]:
    """TupleRuns from one wire ``batch`` result (the service-backed path)."""
    return [
        TupleRun(
            scenario=scenario_name,
            database=database_name,
            tuple_value=tuple(entry["tuple"]),
            closure_seconds=entry["closure_seconds"],
            formula_seconds=entry["formula_seconds"],
            members=len(entry["members"]),
            delays=list(entry["delays"]),
            exhausted=entry["exhausted"],
        )
        for entry in batch_result["results"]
    ]


def _run_database_via_service(
    client,
    scenario: Scenario,
    database_name: str,
    query: DatalogQuery,
    database: Database,
    tuples_per_database: int,
    member_limit: Optional[int],
    timeout_seconds: Optional[float],
    seed: int,
    workers: int,
    deltas: Optional[Sequence[Delta]],
) -> DatabaseRun:
    """The experiment routed through a service daemon instead of in-process.

    Exactly the in-process protocol — open a (warm) session, sample the
    answer tuples with the shared seeded kernel, serve the batch, replay
    any deltas through ``update`` requests and re-serve — except every
    step is a wire request. The output is byte-identical to the
    in-process path (same tuples, same member counts, same exhaustion
    flags; ``tests/test_service_roundtrip.py`` asserts it), which is what
    makes the daemon a drop-in serving tier for the experiments.
    """
    from ..datalog.io import database_to_text, delta_to_lines, program_to_text

    opened = client.open(
        program_to_text(query.program),
        database_to_text(database),
        query.answer_predicate,
    )
    digest = opened["session"]
    if opened["version"] != 0:
        # A warm hit on a session some earlier client (or a previous
        # deltas= run) has updated: its database no longer matches the
        # texts just sent. Refuse rather than label post-update results
        # as the original database — experiments wanting isolation run
        # their own daemon (service=True).
        raise ValueError(
            f"service session {digest} has drifted to version "
            f"{opened['version']} under updates; run against a private "
            "daemon (service=True) for a pristine database"
        )

    expected_version = 0

    def check_version(response, label: str) -> None:
        # Every wire response is stamped with the session version it was
        # served at; anything other than the version this experiment
        # last established means a concurrent foreign update slipped in
        # — refuse rather than record mislabeled results.
        if response["version"] != expected_version:
            raise ValueError(
                f"service session {digest} drifted to version "
                f"{response['version']} (expected {expected_version}) "
                f"while serving {label}; a concurrent client updated it — "
                "run against a private daemon (service=True) for isolation"
            )

    def serve(label: str) -> List[TupleRun]:
        # Sampling happens daemon-side (same seeded kernel), so only the
        # handful of sampled tuples crosses the wire, never Q(D) itself.
        answered = client.answers(digest, sample=tuples_per_database, seed=seed)
        check_version(answered, label)
        tuples = [tuple(values) for values in answered["result"]["answers"]]
        batch = client.batch(
            digest,
            tuples=tuples,
            limit=member_limit,
            timeout=timeout_seconds,
            workers=workers,
        )
        check_version(batch, label)
        return _tuple_runs_from_batch(batch["result"], scenario.name, label)

    runs = serve(database_name)
    result = DatabaseRun(
        scenario=scenario.name,
        database=database_name,
        fact_count=opened["result"]["fact_count"],
        tuple_runs=runs,
    )
    for index, delta in enumerate(deltas or ()):
        receipt = client.update(digest, lines=delta_to_lines(delta))
        expected_version = receipt["version"]
        label = f"{database_name}+u{index + 1}"
        update_runs = serve(label)
        result.update_runs.append(
            DatabaseRun(
                scenario=scenario.name,
                database=label,
                fact_count=receipt["result"]["fact_count"],
                tuple_runs=update_runs,
            )
        )
    return result


def run_database(
    scenario: Scenario,
    database_name: str,
    tuples_per_database: int = DEFAULT_TUPLES_PER_DATABASE,
    member_limit: Optional[int] = DEFAULT_MEMBER_LIMIT,
    timeout_seconds: Optional[float] = DEFAULT_TIMEOUT_SECONDS,
    seed: int = 7,
    acyclicity: str = "vertex-elimination",
    workers: int = 1,
    deltas: Optional[Sequence[Delta]] = None,
    service=None,
    state_dir: Optional[str] = None,
    shards: int = 1,
    engine: Optional[str] = None,
) -> DatabaseRun:
    """Run the full per-database experiment of Section 5.3.

    ``engine`` selects the evaluation engine (``"compiled"`` /
    ``"interpreted"``; ``None`` consults ``REPRO_ENGINE``) for the
    session — the ablation axis of the engine benchmarks. Service routing
    ignores it: the daemon's registry builds sessions under its own
    (environment-resolved) engine.

    The sampled tuples share one :class:`ProvenanceSession` — one
    instrumented evaluation, one GRI, per-tuple closures by restriction.
    With ``workers > 1`` the sampled tuples are sharded across a forked
    worker pool; the per-tuple measurements are then taken inside the
    workers.

    ``deltas`` replays a sequence of database updates through the live
    session: after the initial serve, each delta is applied with :meth:`ProvenanceSession.update` — incremental
    view maintenance, no re-evaluation — the answer tuples are re-sampled
    over the updated model with the same seed, and the batch is re-served;
    each re-serve lands in :attr:`DatabaseRun.update_runs`.

    ``service`` routes the whole experiment through the provenance
    service daemon instead of an in-process session: pass a connected
    :class:`~repro.service.client.ServiceClient`, or ``True`` to spin up
    a private local daemon for this call. Every step — session admission,
    answer sampling, batch serving, delta replay — becomes a wire
    request, and the results are byte-identical to the in-process path.
    ``workers`` is forwarded as the batch request's worker count.

    ``state_dir`` (with ``service=True``) attaches the durable
    store to the private daemon: each of the experiment's sessions keeps
    its admitted texts and its deltas in a log on disk, so a second
    ``run_database`` over the same ``state_dir`` rehydrates from the
    logs — the harness-level restart workflow.

    ``shards`` (with ``service=True``) makes the private daemon the
    *sharded* one: ``shards`` real worker processes behind the shard
    router (``serve --workers N``), every request consistent-hash-routed
    by content digest — and still byte-identical to the in-process path,
    which is exactly what the sharded round-trip tests assert.
    """
    query = scenario.query()
    database = scenario.database(database_name)
    # A scenario database may be shared by several query variants (the
    # Doctors family); each variant sees its slice over edb(Sigma), as the
    # decision problems require a database over the extensional schema.
    database = database.restrict(query.program.edb)
    if service is not None and service is not False:
        if service is True:
            if shards > 1:
                from ..service.client import local_sharded_service

                with local_sharded_service(
                    workers=shards, state_dir=state_dir, acyclicity=acyclicity
                ) as client:
                    return _run_database_via_service(
                        client, scenario, database_name, query, database,
                        tuples_per_database, member_limit, timeout_seconds,
                        seed, workers, deltas,
                    )
            from ..service.client import local_service
            from ..service.registry import SessionRegistry

            # The private daemon inherits this experiment's evaluation
            # knobs, so acyclicity is honored, not silently defaulted.
            store = None
            if state_dir is not None:
                from ..service.store import SnapshotStore

                store = SnapshotStore(state_dir)
            registry = SessionRegistry(acyclicity=acyclicity, store=store)
            with local_service(registry=registry) as client:
                return _run_database_via_service(
                    client, scenario, database_name, query, database,
                    tuples_per_database, member_limit, timeout_seconds,
                    seed, workers, deltas,
                )
        if shards > 1:
            # A connected client's daemon already has its own topology;
            # a shards request against it would be silently meaningless.
            raise ValueError(
                "shards > 1 requires a private daemon (service=True); "
                "a connected client's daemon controls its own --workers"
            )
        if state_dir is not None:
            # An already-running daemon has its own persistence config;
            # silently ignoring the flag would fake durability.
            raise ValueError(
                "state_dir requires a private daemon (service=True); "
                "a connected client's daemon controls its own --state-dir"
            )
        daemon_acyclicity = service.stats()["result"].get("acyclicity")
        if daemon_acyclicity is not None and daemon_acyclicity != acyclicity:
            # Refuse rather than silently measuring the daemon's encoding
            # labeled as the requested one.
            raise ValueError(
                f"service daemon uses acyclicity {daemon_acyclicity!r}; "
                f"this experiment requested {acyclicity!r}"
            )
        return _run_database_via_service(
            service, scenario, database_name, query, database,
            tuples_per_database, member_limit, timeout_seconds,
            seed, workers, deltas,
        )
    if state_dir is not None:
        raise ValueError(
            "state_dir requires service routing (service=True); the "
            "in-process session path has no durable tier"
        )
    if shards > 1:
        raise ValueError(
            "shards > 1 requires service routing (service=True); the "
            "in-process session path has no worker pool to shard over"
        )
    session = ProvenanceSession(query, database, acyclicity=acyclicity, engine=engine)
    tuples = sample_answer_tuples(
        query, database, count=tuples_per_database, seed=seed,
        evaluation=session.evaluation,
    )
    runs = _serve_tuples(
        session, tuples, scenario.name, database_name,
        member_limit, timeout_seconds, workers,
    )
    result = DatabaseRun(
        scenario=scenario.name,
        database=database_name,
        fact_count=len(database),
        tuple_runs=runs,
    )
    for index, delta in enumerate(deltas or ()):
        session.update(delta)
        label = f"{database_name}+u{index + 1}"
        tuples = sample_answer_tuples(
            query, database, count=tuples_per_database, seed=seed,
            evaluation=session.evaluation,
        )
        update_runs = _serve_tuples(
            session, tuples, scenario.name, label,
            member_limit, timeout_seconds, workers,
        )
        result.update_runs.append(
            DatabaseRun(
                scenario=scenario.name,
                database=label,
                fact_count=len(database),
                tuple_runs=update_runs,
            )
        )
    return result


def run_scenario(
    scenario: Scenario,
    tuples_per_database: int = DEFAULT_TUPLES_PER_DATABASE,
    member_limit: Optional[int] = DEFAULT_MEMBER_LIMIT,
    timeout_seconds: Optional[float] = DEFAULT_TIMEOUT_SECONDS,
    seed: int = 7,
    acyclicity: str = "vertex-elimination",
    workers: int = 1,
    engine: Optional[str] = None,
) -> List[DatabaseRun]:
    """Run every database of a scenario."""
    return [
        run_database(
            scenario,
            name,
            tuples_per_database=tuples_per_database,
            member_limit=member_limit,
            timeout_seconds=timeout_seconds,
            seed=seed,
            acyclicity=acyclicity,
            workers=workers,
            engine=engine,
        )
        for name in scenario.database_names()
    ]
