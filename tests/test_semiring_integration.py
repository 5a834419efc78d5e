"""Cross-subsystem agreement on real scenario workloads.

Three independent implementations of why-provenance exist in this
repository: the brute-force oracles, the SAT pipeline, and the
why-semiring fixpoint.  These tests make them vote on actual Table 1
scenario databases (scaled), plus the minimal-depth witness and the
minimal-member extractors.
"""

import pytest

from repro.core.enumerator import WhyProvenanceEnumerator
from repro.core.minimal import minimal_members, smallest_member
from repro.datalog.engine import evaluate
from repro.harness.runner import sample_answer_tuples
from repro.provenance import extract_minimal_depth_tree
from repro.semiring import (
    BooleanSemiring,
    MinWhySemiring,
    WhySemiring,
    minimize_family,
    semiring_provenance,
)
from repro.scenarios import get_scenario


@pytest.fixture(scope="module")
def doctors_case():
    scenario = get_scenario("Doctors-2")
    query = scenario.query()
    database = scenario.database("D1").restrict(query.program.edb)
    evaluation = evaluate(query.program, database)
    tup = sample_answer_tuples(query, database, count=1, seed=3, evaluation=evaluation)[0]
    return query, database, tup


def test_doctors_sat_equals_semiring(doctors_case):
    query, database, tup = doctors_case
    enumerator = WhyProvenanceEnumerator(query, database, tup)
    sat_family = {record.support for record in enumerator.enumerate(limit=500)}
    semiring_family = semiring_provenance(query, database, tup, WhySemiring())
    # Doctors is linear and non-recursive, so why == whyUN and the two
    # routes must produce the same family (Fig. 5's fairness argument).
    assert query.is_linear and query.is_non_recursive
    assert sat_family == set(semiring_family)


def test_doctors_minimal_members_consistent(doctors_case):
    query, database, tup = doctors_case
    min_family = semiring_provenance(query, database, tup, MinWhySemiring())
    sat_minimal = set(minimal_members(query, database, tup))
    assert sat_minimal == set(min_family)
    smallest = smallest_member(query, database, tup)
    assert smallest in sat_minimal or any(
        len(smallest) == len(member) for member in sat_minimal
    )
    assert len(smallest) == min(len(member) for member in sat_minimal)


def test_doctors_witness_is_a_member(doctors_case):
    query, database, tup = doctors_case
    witness = extract_minimal_depth_tree(
        query.program, database, query.answer_atom(tup)
    ).support()
    family = semiring_provenance(query, database, tup, WhySemiring())
    assert witness in family


def test_boolean_semiring_on_scenario_answers(doctors_case):
    query, database, tup = doctors_case
    assert semiring_provenance(query, database, tup, BooleanSemiring()) is True


@pytest.mark.parametrize("scenario_name", ["TransClosure", "Andersen"])
def test_recursive_scenarios_minimal_agreement(scenario_name):
    scenario = get_scenario(scenario_name)
    query = scenario.query()
    # Use a deliberately small slice of the scenario database so the
    # brute-force side stays fast.
    database = scenario.database(scenario.database_names()[0]).restrict(
        query.program.edb
    )
    evaluation = evaluate(query.program, database)
    tuples = sample_answer_tuples(query, database, count=1, seed=5, evaluation=evaluation)
    tup = tuples[0]
    sat_minimal = set(minimal_members(query, database, tup, limit=50))
    assert sat_minimal  # the tuple is an answer, so a member exists
    for member in sat_minimal:
        for other in sat_minimal:
            assert not (member < other)  # an antichain
    witness = extract_minimal_depth_tree(
        query.program, database, query.answer_atom(tup)
    ).support()
    if len(sat_minimal) < 50:
        # The witness is a member of why, so it contains a minimal member
        # (only checkable when the minimal family was not truncated).
        assert any(member <= witness for member in sat_minimal)
