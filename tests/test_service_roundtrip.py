"""Table-1 scenarios through the daemon: byte-identical to in-process.

The acceptance contract of the serving layer, checked on two scenarios
of the paper's Table 1 (TransClosure/bitcoin and Andersen/D1) by the
differential oracle (:func:`repro.testing.oracle.run_oracle`): a real
local daemon and the sharded one return the answers of an in-process
session and, for a seeded sample of answer tuples, the same witnesses in
the same order, before and after an insert-then-delete update pair. The
oracle reaches each later database state through wire ``update``
requests on the daemon and through :meth:`ProvenanceSession.update` in
process, and compares one canonical text per state byte for byte.
"""

import functools

import pytest

from repro.core.session import ProvenanceSession
from repro.datalog.atoms import Atom
from repro.datalog.database import Delta
from repro.datalog.io import database_to_text, program_to_text
from repro.harness.runner import sample_from_answers
from repro.scenarios import get_scenario
from repro.scenarios.synthetic import SyntheticInstance
from repro.service.client import local_service
from repro.service.protocol import render_members
from repro.testing.oracle import OracleConfig, OracleReport, run_oracle

#: Small budgets: the contract is identity, not scale. No wall clock: a
#: timeout could stop two paths at different members depending on host
#: speed; the member limit alone bounds them.
LIMIT = 8
TUPLES = 3

CASES = [("TransClosure", "bitcoin"), ("Andersen", "D1")]


def deltas_for(scenario_name: str):
    """A small insert-then-delete update sequence in the scenario schema."""
    if scenario_name == "TransClosure":
        edge = Atom("e", ("u_new", "u_new2"))
        return [Delta.insert(edge), Delta.delete(edge)]
    # Andersen: a fresh points-to base fact.
    fact = Atom("addressof", ("u_new", "u_new2"))
    return [Delta.insert(fact), Delta.delete(fact)]


def scenario_instance(
    scenario_name: str, database_name: str, updates: bool = True
) -> SyntheticInstance:
    """A scenario database (plus, with *updates*, its delta pair) as oracle input."""
    scenario = get_scenario(scenario_name)
    query = scenario.query()
    database = scenario.database(database_name).restrict(query.program.edb)
    return SyntheticInstance(
        family=scenario_name,
        size=0,
        seed=0,
        query=query,
        database=database,
        deltas=tuple(deltas_for(scenario_name)) if updates else (),
    )


@functools.lru_cache(maxsize=None)
def table1_report(scenario_name: str, database_name: str) -> OracleReport:
    """One oracle run per scenario database, shared by the four tests below.

    States: 0 is the scenario database, 1 and 2 follow the insert and
    the delete. ``incremental`` (one in-process session maintained
    across the deltas) is the reference.
    """
    return run_oracle(
        scenario_instance(scenario_name, database_name),
        OracleConfig(
            paths=("incremental", "service", "sharded"),
            limit=LIMIT,
            tuples_per_state=TUPLES,
        ),
    )


def assert_agrees_in_process(report: OracleReport, path: str, states) -> None:
    """*path* observed the in-process texts at each of *states*."""
    reference = report.observations["incremental"]
    observed = report.observations[path]
    assert len(observed) == len(reference) == 3
    for state in states:
        assert observed[state] == reference[state], f"{path} diverges at state {state}"


@pytest.mark.parametrize("scenario_name,database_name", CASES)
def test_service_round_trip_matches_in_process(scenario_name, database_name):
    report = table1_report(scenario_name, database_name)
    assert_agrees_in_process(report, "service", [0])


@pytest.mark.parametrize("scenario_name,database_name", CASES)
def test_service_round_trip_matches_after_updates(scenario_name, database_name):
    report = table1_report(scenario_name, database_name)
    assert_agrees_in_process(report, "service", [1, 2])


@pytest.mark.parametrize("scenario_name,database_name", CASES)
def test_sharded_service_round_trip_matches_in_process(
    scenario_name, database_name
):
    """The multi-process daemon (``serve --workers 2``) is byte-identical too.

    Every request crosses the shard router and a consistent-hash hop to
    one of two real worker processes.
    """
    report = table1_report(scenario_name, database_name)
    assert_agrees_in_process(report, "sharded", [0])


def test_sharded_service_round_trip_matches_after_updates():
    for scenario_name, database_name in CASES:
        report = table1_report(scenario_name, database_name)
        assert_agrees_in_process(report, "sharded", [1, 2])


@pytest.mark.parametrize("scenario_name,database_name", CASES)
def test_witnesses_byte_identical_across_update_sequence(
    scenario_name, database_name
):
    """Witness-level identity: same members, same order, every version."""
    scenario = get_scenario(scenario_name)
    query = scenario.query()
    database = scenario.database(database_name).restrict(query.program.edb)
    session = ProvenanceSession(query, database)
    with local_service() as client:
        digest = client.open(
            program_to_text(query.program),
            database_to_text(database),
            query.answer_predicate,
        )["session"]
        for step, delta in enumerate([None] + deltas_for(scenario_name)):
            if delta is not None:
                lines = [f"+{f}." for f in delta.inserted]
                lines += [f"-{f}." for f in delta.deleted]
                receipt = client.update(digest, lines=lines)
                session.update(delta)
                assert receipt["version"] == session.version
            for tup in session.answers()[:3]:
                wire = client.why(digest, tup, limit=8)
                assert wire["version"] == session.version
                assert wire["result"]["members"] == render_members(
                    session.why(tup, limit=8)
                ), f"witness drift at step {step}, tuple {tup}"
        # The daemon's session maintained, never re-evaluated.
        stats = client.stats(digest)["result"]["session_stats"]
        assert stats["evaluations"] == 1


def test_service_with_batch_workers_still_identical():
    """The daemon's forked batch pool returns the serial in-process answer."""
    instance = scenario_instance("TransClosure", "bitcoin")
    session = ProvenanceSession(instance.query, instance.database)
    tuples = sample_from_answers(session.answers(), count=TUPLES, seed=7)
    with local_service(batch_workers=2, parallel_threshold=2) as client:
        digest = client.open(
            instance.program_text(),
            instance.database_text(),
            instance.query.answer_predicate,
        )["session"]
        batch = client.batch(digest, tuples=tuples, limit=LIMIT)["result"]
    assert batch["parallel"], batch["fallback_reason"]
    assert [entry["members"] for entry in batch["results"]] == [
        render_members(session.why(tup, limit=LIMIT)) for tup in tuples
    ]
