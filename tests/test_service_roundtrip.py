"""Harness round-trips through the service daemon: byte-identical output.

The acceptance contract of the serving layer: routing an experiment
through a real local daemon (`run_database(service=...)` — admission,
sampling, batch, delta replay, all over TCP) produces *exactly* the
in-process results — same sampled tuples, same witnesses in the same
order, same exhaustion flags — over TransClosure and Andersen, including
after update sequences.
"""

import pytest

from repro.core.session import ProvenanceSession
from repro.datalog.atoms import Atom
from repro.datalog.database import Delta
from repro.datalog.io import database_to_text, program_to_text
from repro.harness.runner import run_database
from repro.scenarios import get_scenario
from repro.service.client import local_service
from repro.service.protocol import render_members

#: Small budgets: the contract is identity, not scale.
BUDGET = dict(tuples_per_database=3, member_limit=8, timeout_seconds=10.0)


def strip_timings(run):
    """A DatabaseRun as comparable data (timings excluded, counts kept)."""
    return {
        "scenario": run.scenario,
        "database": run.database,
        "fact_count": run.fact_count,
        "tuples": [
            (r.tuple_value, r.members, r.exhausted, len(r.delays))
            for r in run.tuple_runs
        ],
        "updates": [strip_timings(u) for u in run.update_runs],
    }


def deltas_for(scenario_name: str):
    """A small insert-then-delete update sequence in the scenario schema."""
    if scenario_name == "TransClosure":
        edge = Atom("e", ("u_new", "u_new2"))
        return [Delta.insert(edge), Delta.delete(edge)]
    # Andersen: a fresh points-to base fact.
    fact = Atom("addressof", ("u_new", "u_new2"))
    return [Delta.insert(fact), Delta.delete(fact)]


CASES = [("TransClosure", "bitcoin"), ("Andersen", "D1")]


@pytest.mark.parametrize("scenario_name,database_name", CASES)
def test_service_round_trip_matches_in_process(scenario_name, database_name):
    scenario = get_scenario(scenario_name)
    local = run_database(scenario, database_name, **BUDGET)
    via_service = run_database(scenario, database_name, service=True, **BUDGET)
    assert strip_timings(via_service) == strip_timings(local)


@pytest.mark.parametrize("scenario_name,database_name", CASES)
def test_service_round_trip_matches_after_updates(scenario_name, database_name):
    scenario = get_scenario(scenario_name)
    deltas = deltas_for(scenario_name)
    local = run_database(scenario, database_name, deltas=deltas, **BUDGET)
    via_service = run_database(
        scenario, database_name, deltas=deltas, service=True, **BUDGET
    )
    assert strip_timings(via_service) == strip_timings(local)
    assert len(via_service.update_runs) == len(deltas)


@pytest.mark.parametrize("scenario_name,database_name", CASES)
def test_sharded_service_round_trip_matches_in_process(
    scenario_name, database_name
):
    """ISSUE 8 acceptance: the --workers 4 daemon is byte-identical too.

    Same harness run, but every request crosses the shard router and a
    consistent-hash hop to one of four real worker processes.
    """
    scenario = get_scenario(scenario_name)
    local = run_database(scenario, database_name, **BUDGET)
    via_shards = run_database(
        scenario, database_name, service=True, shards=4, **BUDGET
    )
    assert strip_timings(via_shards) == strip_timings(local)


def test_sharded_service_round_trip_matches_after_updates():
    scenario = get_scenario("TransClosure")
    deltas = deltas_for("TransClosure")
    local = run_database(scenario, "bitcoin", deltas=deltas, **BUDGET)
    via_shards = run_database(
        scenario, "bitcoin", deltas=deltas, service=True, shards=4, **BUDGET
    )
    assert strip_timings(via_shards) == strip_timings(local)
    assert len(via_shards.update_runs) == len(deltas)


def test_shards_refused_without_service():
    scenario = get_scenario("TransClosure")
    with pytest.raises(ValueError, match="shard"):
        run_database(scenario, "bitcoin", shards=2, **BUDGET)


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
    """The daemon's parallel snapshot path returns the serial answer."""
    scenario = get_scenario("TransClosure")
    local = run_database(scenario, "bitcoin", **BUDGET)
    with local_service(batch_workers=2, parallel_threshold=2) as client:
        via_service = run_database(
            scenario, "bitcoin", service=client, workers=2, **BUDGET
        )
    assert strip_timings(via_service) == strip_timings(local)


def test_shared_daemon_drifted_session_refused():
    """A second deltas= run against a shared daemon must refuse, not
    silently serve the first run's post-delta database as the base."""
    scenario = get_scenario("TransClosure")
    deltas = deltas_for("TransClosure")[:1]  # leave the session drifted
    with local_service() as client:
        run_database(scenario, "bitcoin", deltas=deltas, service=client, **BUDGET)
        with pytest.raises(ValueError, match="drifted"):
            run_database(scenario, "bitcoin", service=client, **BUDGET)


def test_service_honors_non_default_acyclicity():
    """service=True spins a daemon with the experiment's encoding knob.

    Andersen/D1 keeps this cheap (about a second per side): two of its
    sampled tuples exhaust at one member and one reaches the member
    limit.
    """
    scenario = get_scenario("Andersen")
    # No wall clock: a timeout could stop the two sides at different
    # members depending on host speed; the member limit alone bounds them.
    kwargs = dict(BUDGET, acyclicity="transitive-closure", timeout_seconds=None)
    local = run_database(scenario, "D1", **kwargs)
    via_service = run_database(scenario, "D1", service=True, **kwargs)
    assert strip_timings(via_service) == strip_timings(local)


def test_shared_daemon_acyclicity_mismatch_refused():
    """A shared daemon with a different encoding must refuse, not mislabel."""
    scenario = get_scenario("TransClosure")
    with local_service() as client:  # daemon default: vertex-elimination
        with pytest.raises(ValueError, match="acyclicity"):
            run_database(
                scenario, "bitcoin", service=client,
                acyclicity="transitive-closure", **BUDGET,
            )
