"""Tests for incremental view maintenance (deltas, rank repair, live sessions).

The load-bearing properties:

* ``Database.apply`` returns the *effective* delta and round-trips with
  ``Delta.inverted``;
* ``ranks_from_instances`` reproduces the engine's stage ranks exactly
  from a fixpoint trace (differential, across scenarios);
* ``maintain_evaluation`` (re-ranking the rank-supported cone for
  deletions, delta-semi-naive rounds and rank lowering for insertions)
  is indistinguishable from a from-scratch evaluation: same model, same
  ranks, same rounds, and the trace-patching invariant
  ``set(trace) == set(ground_instances(program, model))``; the head and
  body maps it patches, and the interned model, equal cold builds after
  every update;
* ``session.update(delta)`` keeps the session byte-identical to a cold
  session over the updated database — answers, witnesses, *witness
  order* — across random update sequences on the TransClosure and
  Andersen queries, including deletion cascades through transitive
  closure, while never re-evaluating and while retaining the cached
  closures the delta does not reach;
* the byte budget charges a maintained session for the trace index it
  keeps from its first update on.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.session import ProvenanceSession
from repro.datalog.atoms import Atom
from repro.datalog.database import Database, Delta
from repro.datalog.engine import (
    TraceIndex,
    evaluate,
    ground_instances,
    maintain_evaluation,
    ranks_from_instances,
)
from repro.datalog.parser import parse_database, parse_program
from repro.datalog.plans import InternedModel, PlanContext
from repro.datalog.program import DatalogQuery
from repro.provenance.grounding import gri_maps_from_instances
from repro.scenarios import get_scenario
from repro.scenarios.synthetic import generate_instance

TC_PROGRAM = parse_program(
    """
    tc(X, Y) :- e(X, Y).
    tc(X, Z) :- tc(X, Y), e(Y, Z).
    """
)
TC_QUERY = DatalogQuery(TC_PROGRAM, "tc")


def tc_session(facts: str) -> ProvenanceSession:
    return ProvenanceSession(TC_QUERY, Database(parse_database(facts)))


def edge(a: str, b: str) -> Atom:
    return Atom("e", (a, b))


# ---------------------------------------------------------------------------
# Delta and Database.apply
# ---------------------------------------------------------------------------


class TestDelta:
    def test_insert_delete_constructors(self):
        delta = Delta.insert(edge("a", "b"))
        assert delta.inserted == {edge("a", "b")} and not delta.deleted
        delta = Delta.delete(edge("a", "b"))
        assert delta.deleted == {edge("a", "b")} and not delta.inserted

    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="inserts and deletes"):
            Delta(inserted={edge("a", "b")}, deleted={edge("a", "b")})

    def test_non_ground_rejected(self):
        from repro.datalog.terms import Variable

        with pytest.raises(ValueError, match="not a ground fact"):
            Delta.insert(Atom("e", (Variable("X"), "b")))

    def test_empty_len_bool(self):
        assert Delta().is_empty() and not Delta() and len(Delta()) == 0
        delta = Delta.insert(edge("a", "b"))
        assert delta and len(delta) == 1 and not delta.is_empty()

    def test_inverted(self):
        delta = Delta(inserted={edge("a", "b")}, deleted={edge("c", "d")})
        inv = delta.inverted()
        assert inv.inserted == delta.deleted and inv.deleted == delta.inserted

    def test_apply_reports_effective_delta(self):
        db = Database([edge("a", "b")])
        effective = db.apply(
            Delta(
                inserted={edge("a", "b"), edge("b", "c")},  # a,b redundant
                deleted={edge("x", "y")},  # absent
            )
        )
        assert effective.inserted == {edge("b", "c")}
        assert effective.deleted == frozenset()
        assert db == {edge("a", "b"), edge("b", "c")}

    def test_apply_then_inverted_round_trips(self):
        db = Database([edge("a", "b"), edge("b", "c")])
        before = db.facts()
        effective = db.apply(
            Delta(inserted={edge("c", "d")}, deleted={edge("a", "b")})
        )
        db.apply(effective.inverted())
        assert db.facts() == before


# ---------------------------------------------------------------------------
# ranks_from_instances: exactness against the engine
# ---------------------------------------------------------------------------


class TestRanksFromInstances:
    @pytest.mark.parametrize(
        "scenario_name,database_name",
        [("TransClosure", "bitcoin"), ("Andersen", "D1"), ("Galen", "D1")],
    )
    def test_matches_engine_ranks(self, scenario_name, database_name):
        scenario = get_scenario(scenario_name)
        query = scenario.query()
        database = scenario.database(database_name).restrict(query.program.edb)
        evaluation = evaluate(query.program, database, record_instances=True)
        assert (
            ranks_from_instances(database, evaluation.instances)
            == evaluation.ranks
        )

    def test_handles_seeded_intensional_fact(self):
        # A fact of the answer predicate placed directly in the database
        # has rank 0 even when also derivable at a deeper stage.
        program = parse_program("p(X) :- q(X). p(X) :- p(X), r(X).")
        database = Database(parse_database("q(a). r(a). p(a)."))
        evaluation = evaluate(program, database, record_instances=True)
        assert ranks_from_instances(database, evaluation.instances) == evaluation.ranks
        assert evaluation.ranks[Atom("p", ("a",))] == 0


# ---------------------------------------------------------------------------
# maintain_evaluation: differential against from-scratch evaluation
# ---------------------------------------------------------------------------


def assert_maintained_equals_fresh(program, database, evaluation, delta):
    """Apply *delta*, maintain, and compare against a cold evaluation."""
    effective = database.apply(delta)
    result = maintain_evaluation(program, database, evaluation, effective)
    fresh = evaluate(program, database, record_instances=True)
    assert result.evaluation.model == fresh.model
    assert result.evaluation.ranks == fresh.ranks
    assert result.evaluation.rounds == fresh.rounds
    assert set(result.evaluation.instances) == set(fresh.instances)
    # The trace-patching invariant, stated directly:
    assert set(result.evaluation.instances) == set(
        ground_instances(program, result.evaluation.model)
    )
    return result


class TestMaintainEvaluation:
    def test_requires_trace(self):
        database = Database([edge("a", "b")])
        evaluation = evaluate(TC_PROGRAM, database)
        with pytest.raises(ValueError, match="instance trace"):
            maintain_evaluation(TC_PROGRAM, database, evaluation, Delta())

    def test_insertion_extends_closure(self):
        database = Database([edge("a", "b")])
        evaluation = evaluate(TC_PROGRAM, database, record_instances=True)
        result = assert_maintained_equals_fresh(
            TC_PROGRAM, database, evaluation, Delta.insert(edge("b", "c"))
        )
        assert Atom("tc", ("a", "c")) in result.added_facts
        assert result.removed_facts == frozenset()

    def test_deletion_cascades_through_transitive_closure(self):
        # A chain a -> b -> c -> d: deleting the middle edge must retract
        # every tc fact crossing it, transitively.
        database = Database(
            [edge("a", "b"), edge("b", "c"), edge("c", "d")]
        )
        evaluation = evaluate(TC_PROGRAM, database, record_instances=True)
        result = assert_maintained_equals_fresh(
            TC_PROGRAM, database, evaluation, Delta.delete(edge("b", "c"))
        )
        assert Atom("tc", ("a", "c")) in result.removed_facts
        assert Atom("tc", ("a", "d")) in result.removed_facts
        assert Atom("tc", ("b", "d")) in result.removed_facts
        assert Atom("tc", ("a", "b")) not in result.removed_facts

    def test_dred_rederives_alternative_derivations(self):
        # tc(a, c) via b and directly: deleting one path keeps the fact.
        database = Database([edge("a", "b"), edge("b", "c"), edge("a", "c")])
        evaluation = evaluate(TC_PROGRAM, database, record_instances=True)
        result = assert_maintained_equals_fresh(
            TC_PROGRAM, database, evaluation, Delta.delete(edge("b", "c"))
        )
        assert Atom("tc", ("a", "c")) in result.evaluation.model
        # The cone is e(b, c) and tc(b, c), which leave; tc(a, c) keeps its
        # rank-supporting instance through e(a, c) and stays out of it.
        assert (result.cone, result.raised) == (2, 0)

    def test_deletion_raises_a_surviving_rank(self):
        # a -> b -> c plus a -> c: without e(a, c), tc(a, c) is derived
        # only through tc(a, b), one stage later.
        database = Database([edge("a", "b"), edge("b", "c"), edge("a", "c")])
        evaluation = evaluate(TC_PROGRAM, database, record_instances=True)
        assert evaluation.ranks[Atom("tc", ("a", "c"))] == 1
        result = assert_maintained_equals_fresh(
            TC_PROGRAM, database, evaluation, Delta.delete(edge("a", "c"))
        )
        assert result.evaluation.ranks[Atom("tc", ("a", "c"))] == 2
        assert result.removed_facts == {edge("a", "c")}
        assert (result.cone, result.raised) == (2, 1)

    def test_insertion_lowers_ranks_downstream(self):
        # A shortcut a -> d into the chain a -> b -> c -> d -> e lowers
        # tc(a, d) from 3 to 1 and tc(a, e) from 4 to 2.
        database = Database(
            [edge("a", "b"), edge("b", "c"), edge("c", "d"), edge("d", "e")]
        )
        evaluation = evaluate(TC_PROGRAM, database, record_instances=True)
        assert evaluation.rounds == 4
        result = assert_maintained_equals_fresh(
            TC_PROGRAM, database, evaluation, Delta.insert(edge("a", "d"))
        )
        ranks = result.evaluation.ranks
        assert ranks[Atom("tc", ("a", "d"))] == 1
        assert ranks[Atom("tc", ("a", "e"))] == 2
        assert ranks[Atom("tc", ("a", "c"))] == 2  # upstream of the shortcut
        assert result.added_facts == {edge("a", "d")}
        assert result.evaluation.rounds == 3

    def test_seeded_intensional_fact_deleted_but_derivable(self):
        # p(a) is both seeded in the database and derivable from q(a):
        # deleting the seed keeps it, at the rank of its derivation, and
        # inserting the seed again brings rank 0 back.
        program = parse_program("p(X) :- q(X). p(X) :- p(X), r(X). s(X) :- p(X).")
        database = Database(parse_database("q(a). r(a). p(a)."))
        evaluation = evaluate(program, database, record_instances=True)
        p_a, s_a = Atom("p", ("a",)), Atom("s", ("a",))
        assert (evaluation.ranks[p_a], evaluation.ranks[s_a]) == (0, 1)
        result = assert_maintained_equals_fresh(
            program, database, evaluation, Delta.delete(p_a)
        )
        assert p_a in result.evaluation.model and not result.removed_facts
        assert (result.evaluation.ranks[p_a], result.evaluation.ranks[s_a]) == (1, 2)
        result = assert_maintained_equals_fresh(
            program, database, result.evaluation, Delta.insert(p_a)
        )
        assert (result.evaluation.ranks[p_a], result.evaluation.ranks[s_a]) == (0, 1)

    def test_deletion_does_not_resurrect_through_cycles(self):
        # A cycle reachable only through the deleted edge must die with
        # it: cyclic instances alone cannot re-derive their own support.
        database = Database([edge("a", "b"), edge("b", "c"), edge("c", "b")])
        evaluation = evaluate(TC_PROGRAM, database, record_instances=True)
        result = assert_maintained_equals_fresh(
            TC_PROGRAM, database, evaluation, Delta.delete(edge("a", "b"))
        )
        assert Atom("tc", ("a", "c")) in result.removed_facts
        assert Atom("tc", ("b", "c")) in result.evaluation.model

    def test_mixed_delta_delete_then_reinsert_path(self):
        database = Database([edge("a", "b"), edge("b", "c")])
        evaluation = evaluate(TC_PROGRAM, database, record_instances=True)
        assert_maintained_equals_fresh(
            TC_PROGRAM,
            database,
            evaluation,
            Delta(deleted={edge("b", "c")}, inserted={edge("b", "d"), edge("d", "c")}),
        )

    def test_rejects_a_plan_context_with_other_symbols(self):
        # The trace's keys are rows of the evaluation's symbol ids; a
        # context numbering constants otherwise would corrupt them.
        database = Database([edge("a", "b")])
        evaluation = evaluate(TC_PROGRAM, database, record_instances=True)
        effective = database.apply(Delta.insert(edge("b", "c")))
        with pytest.raises(ValueError, match="symbol table"):
            maintain_evaluation(
                TC_PROGRAM, database, evaluation, effective, plan_context=PlanContext()
            )

    def test_deleting_a_fact_repeated_in_one_body(self):
        # The instance q(a) :- r(a), r(a) names r(a) twice; removing it
        # must not trip over the body entry its first atom already dropped.
        program = parse_program("q(X) :- r(X), r(X). s(X) :- q(X), t(X).")
        database = Database(parse_database("r(a). t(a)."))
        evaluation = evaluate(program, database, record_instances=True)
        result = assert_maintained_equals_fresh(
            program, database, evaluation, Delta.delete(Atom("r", ("a",)))
        )
        assert Atom("s", ("a",)) in result.removed_facts

    def test_noop_delta_changes_nothing(self):
        database = Database([edge("a", "b")])
        evaluation = evaluate(TC_PROGRAM, database, record_instances=True)
        result = maintain_evaluation(TC_PROGRAM, database, evaluation, Delta())
        assert not result.changed()
        assert result.evaluation.model == evaluation.model

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_random_updates_match_fresh_evaluation(self, data):
        nodes = "abcdef"
        all_edges = sorted(
            {edge(u, v) for u in nodes for v in nodes if u != v}, key=str
        )
        initial = data.draw(st.sets(st.sampled_from(all_edges), min_size=1, max_size=10))
        database = Database(initial)
        evaluation = evaluate(TC_PROGRAM, database, record_instances=True)
        for _ in range(data.draw(st.integers(1, 3))):
            inserted = data.draw(
                st.sets(st.sampled_from(all_edges), max_size=3)
            )
            deletable = sorted(database.facts(), key=str)
            deleted = data.draw(
                st.sets(st.sampled_from(deletable), max_size=3)
                if deletable
                else st.just(set())
            )
            delta = Delta(inserted=frozenset(inserted) - frozenset(deleted),
                          deleted=frozenset(deleted))
            result = assert_maintained_equals_fresh(
                TC_PROGRAM, database, evaluation, delta
            )
            evaluation = result.evaluation


# ---------------------------------------------------------------------------
# ProvenanceSession.update: live sessions vs cold sessions
# ---------------------------------------------------------------------------


def assert_session_equals_cold(session, query=None):
    """The maintained session must be byte-identical to a cold one."""
    cold = ProvenanceSession(query or session.query, session.database.copy())
    assert session.model == cold.model
    assert session.ranks == cold.ranks
    assert session.answers() == cold.answers()
    for tup in session.answers():
        assert session.why(tup) == cold.why(tup)  # lists: order included
    return cold


class TestSessionUpdate:
    def test_insert_creates_new_witness(self):
        session = tc_session("e(a, b). e(b, c).")
        before = session.why(("a", "c"))
        assert len(before) == 1
        receipt = session.update(Delta.insert(edge("a", "c")))
        assert receipt.changed()
        after = session.why(("a", "c"))
        assert len(after) == 2
        assert frozenset({edge("a", "c")}) in after
        assert_session_equals_cold(session)

    def test_delete_retires_cached_witness(self):
        session = tc_session("e(a, b). e(b, c). e(a, c).")
        assert len(session.why(("a", "c"))) == 2
        session.update(Delta.delete(edge("b", "c")))
        members = session.why(("a", "c"))
        assert members == [frozenset({edge("a", "c")})]
        assert_session_equals_cold(session)

    def test_deletion_cascade_removes_answer(self):
        session = tc_session("e(a, b). e(b, c). e(c, d).")
        assert session.is_answer(("a", "d"))
        session.update(Delta.delete(edge("b", "c")))
        assert not session.is_answer(("a", "d"))
        assert session.why(("a", "d")) == []
        assert_session_equals_cold(session)

    def test_never_reevaluates(self):
        session = tc_session("e(a, b). e(b, c).")
        session.why(("a", "c"))
        for delta in (
            Delta.insert(edge("c", "d")),
            Delta.delete(edge("a", "b")),
            Delta.insert(edge("a", "b")),
        ):
            session.update(delta)
            session.answers()
            for tup in session.answers():
                session.why(tup)
        assert session.stats.evaluations == 1
        assert session.stats.updates == 3

    def test_unaffected_closures_survive_identically(self):
        session = tc_session("e(a, b). e(x, y). e(y, z).")
        untouched = session.closure_for(("x", "z"))
        receipt = session.update(Delta.insert(edge("b", "c")))
        assert receipt.retained_closures >= 1
        # Not merely equal — the identical cached object.
        assert session.closure_for(("x", "z")) is untouched
        assert session.stats.closure_invalidations == receipt.invalidated_closures

    def test_affected_closures_are_dropped(self):
        session = tc_session("e(a, b). e(b, c).")
        stale = session.closure_for(("a", "c"))
        receipt = session.update(Delta.insert(edge("a", "c")))
        assert receipt.invalidated_closures >= 1
        assert session.closure_for(("a", "c")) is not stale

    def test_warm_enumerators_fall_with_their_closure(self):
        session = tc_session("e(a, b). e(b, c). e(x, y).")
        tup = ("a", "c")
        warm = session.enumerator(tup)
        assert warm.members(limit=1)
        session.update(Delta.insert(edge("y", "z")))  # misses tc(a, c)'s closure
        assert session.enumerator(tup) is warm
        session.update(Delta.insert(edge("a", "c")))
        fresh = session.enumerator(tup)
        assert fresh is not warm
        cold = ProvenanceSession(TC_QUERY, session.database.copy())
        members = fresh.members()
        assert len(members) == 2
        assert members == cold.enumerator(tup).members()

    def test_non_answer_verdict_invalidated_when_fact_appears(self):
        session = tc_session("e(a, b).")
        assert session.closure_or_none(Atom("tc", ("b", "c"))) is None
        session.update(Delta.insert(edge("b", "c")))
        closure = session.closure_or_none(Atom("tc", ("b", "c")))
        assert closure is not None and closure.root == Atom("tc", ("b", "c"))

    def test_update_patches_the_evaluation_in_place(self):
        session = tc_session("e(a, b). e(b, c).")
        evaluation, model, ranks = session.evaluation, session.model, session.ranks
        session.update(Delta(inserted={edge("c", "d")}, deleted={edge("a", "b")}))
        assert session.evaluation is evaluation
        assert session.model is model and session.ranks is ranks
        assert isinstance(evaluation.instances, TraceIndex)
        assert_session_equals_cold(session)

    def test_noop_update_retains_everything(self):
        session = tc_session("e(a, b). e(b, c).")
        closure = session.closure_for(("a", "c"))
        version = session.version
        receipt = session.update(Delta.insert(edge("a", "b")))  # already present
        assert not receipt.changed()
        assert session.version == version
        assert session.closure_for(("a", "c")) is closure

    def test_rejected_update_leaves_session_untouched(self):
        session = tc_session("e(a, b).")
        session.answers()
        version = session.version
        before = session.database.facts()
        with pytest.raises(ValueError, match="extensional schema"):
            session.update(Delta.insert(Atom("tc", ("a", "b"))))
        assert session.database.facts() == before
        assert session.version == version
        assert session.answers() == [("a", "b")]

    def test_update_before_first_evaluation(self):
        session = tc_session("e(a, b).")
        receipt = session.update(Delta.insert(edge("b", "c")))
        assert receipt.changed() and session.stats.evaluations == 0
        assert session.answers() == [("a", "b"), ("a", "c"), ("b", "c")]
        assert session.stats.evaluations == 1

    def test_update_rejects_non_delta(self):
        session = tc_session("e(a, b).")
        with pytest.raises(TypeError, match="Delta"):
            session.update({edge("b", "c")})

    def test_update_rejects_fact_outside_schema(self):
        session = tc_session("e(a, b).")
        with pytest.raises(ValueError):
            session.update(Delta.insert(Atom("tc", ("a", "b"))))
            session.answers()

    def test_explain_batch_after_update_matches_cold(self):
        session = tc_session("e(a, b). e(b, c). e(c, d).")
        session.explain_batch()
        session.update(
            Delta(inserted={edge("d", "e")}, deleted={edge("a", "b")})
        )
        cold = ProvenanceSession(TC_QUERY, session.database.copy())
        live = session.explain_batch()
        fresh = cold.explain_batch()
        assert [r.tuple_value for r in live.results] == [
            r.tuple_value for r in fresh.results
        ]
        assert [r.members for r in live.results] == [
            r.members for r in fresh.results
        ]

    def test_decide_and_minimal_after_update(self):
        session = tc_session("e(a, b). e(b, c). e(a, c).")
        session.why(("a", "c"))
        session.update(Delta.delete(edge("a", "c")))
        support = {edge("a", "b"), edge("b", "c")}
        assert session.decide(("a", "c"), support)
        assert session.smallest_member(("a", "c")) == frozenset(support)


SCENARIO_CASES = [
    ("TransClosure", 14, 20),
    ("Andersen", None, None),
]


def _scenario_database(name, rng):
    if name == "TransClosure":
        nodes = [f"n{i}" for i in range(10)]
        facts = set()
        while len(facts) < 16:
            a, b = rng.sample(nodes, 2)
            facts.add(edge(a, b))
        return get_scenario(name).query(), Database(facts)
    from repro.scenarios.andersen import andersen_database, andersen_query

    return andersen_query(), andersen_database(num_vars=14, num_statements=30, seed=rng.randrange(10 ** 6))


def _random_scenario_delta(query, database, rng, size=2):
    predicates = sorted(query.program.edb)
    facts = sorted(database.facts(), key=str)
    deleted = set(rng.sample(facts, k=min(size, len(facts))))
    inserted = set()
    while len(inserted) < size and facts:
        template = rng.choice(facts)
        args = list(template.args)
        args[rng.randrange(len(args))] = rng.choice(
            [a for f in facts for a in f.args]
        )
        candidate = Atom(template.pred, tuple(args))
        if candidate not in database and candidate not in deleted:
            inserted.add(candidate)
    return Delta(inserted=frozenset(inserted), deleted=frozenset(deleted))


@pytest.mark.parametrize("scenario_name", ["TransClosure", "Andersen"])
def test_random_update_sequences_match_cold_sessions(scenario_name):
    """The acceptance property: random update sequences over the
    TransClosure and Andersen scenarios keep an incrementally maintained
    session identical — answers, witnesses, witness order — to a cold
    session over the updated database."""
    rng = random.Random(77)
    query, database = _scenario_database(scenario_name, rng)
    session = ProvenanceSession(query, database)
    for tup in session.answers()[:4]:
        session.why(tup, limit=10)
    for step in range(6):
        delta = _random_scenario_delta(query, session.database, rng)
        session.update(delta)
        cold = ProvenanceSession(query, session.database.copy())
        assert session.answers() == cold.answers(), f"step {step}"
        assert session.ranks == cold.ranks, f"step {step}"
        sample = session.answers()[:6]
        for tup in sample:
            assert session.why(tup, limit=10) == cold.why(tup, limit=10), (
                f"step {step}, tuple {tup}"
            )
        assert set(session.evaluation.instances) == set(
            ground_instances(query.program, session.model)
        ), f"step {step}"
    assert session.stats.evaluations == 1


# ---------------------------------------------------------------------------
# The GRI index: patched per dirty head, equal to a cold build
# ---------------------------------------------------------------------------


def assert_gri_equals_cold(session):
    """The patched index holds exactly the cold maps of the patched trace."""
    built = gri_maps_from_instances(session.evaluation.instances)
    edges, instances = session.gri(), session.gri_instances()
    # Dict equality compares heads and lists, list order included.
    assert edges == built.edge_map()
    assert instances == built.instance_map()
    assert all(edges.values()) and all(instances.values())
    cold = ProvenanceSession(session.query, session.database.copy())
    assert edges == cold.gri()
    assert instances == cold.gri_instances()


def _update_stream(scenario, seed):
    """A query, a database and four deltas for one drawn scenario."""
    if scenario == "deps":
        instance = generate_instance("deps", size=14, seed=seed, delta_rounds=4)
        return instance.query, instance.database.copy(), list(instance.deltas)
    rng = random.Random(seed)
    query, database = _scenario_database(scenario, rng)
    shadow = database.copy()
    deltas = []
    for _ in range(4):
        delta = _random_scenario_delta(query, shadow, rng)
        shadow.apply(delta)
        deltas.append(delta)
    return query, database, deltas


@settings(max_examples=12, deadline=None)
@given(
    scenario=st.sampled_from(["TransClosure", "Andersen", "deps"]),
    seed=st.integers(0, 10 ** 6),
)
def test_patched_gri_matches_cold_build(scenario, seed):
    query, database, deltas = _update_stream(scenario, seed)
    session = ProvenanceSession(query, database)
    session.gri_index()
    # Sort only some heads before the first update, so patching meets
    # both cached and never-built views.
    for tup in session.answers()[:2]:
        session.why(tup, limit=2)
    for delta in deltas:
        session.update(delta)
        assert_gri_equals_cold(session)
        for tup in session.answers()[-2:]:
            session.why(tup, limit=2)
    assert session.stats.gri_builds == 1


def _heads(trace):
    """The int head map as keys per fact (numbers and first rules may differ)."""
    return {fact: set(group) for fact, group in trace.heads.items()}


def _bodies(trace):
    """The int body map as keys per ``(pred, row)``."""
    return {
        (pred, row): {trace.keys[number] for number in users}
        for pred, by_row in trace.bodies.items()
        for row, users in by_row.items()
    }


def assert_trace_maps_equal_cold(session):
    """The patched trace, its int head and body maps, and the interned
    model equal cold builds over the session's own symbol table."""
    program = session.query.program
    trace = session.evaluation.instances
    assert set(trace) == set(ground_instances(program, session.model))
    cold = TraceIndex.from_ground(ground_instances(program, session.model), trace.symbols)
    cold.index()
    assert len(trace) == len(cold)
    assert _heads(trace) == _heads(cold)
    assert _bodies(trace) == _bodies(cold)
    if session.engine == "compiled":
        recorded = evaluate(
            program,
            session.database,
            record_instances=True,
            engine="compiled",
            plan_context=PlanContext(trace.symbols),
        ).instances
        recorded.index()
        assert _heads(trace) == _heads(recorded)
        assert _bodies(trace) == _bodies(recorded)
    context = session.plan_context()
    if context is not None and context.interned is not None:
        interned = context.interned
        fresh = InternedModel(session.model, context.symbols)
        assert interned.model is session.model
        assert interned.atoms is trace.atoms
        assert {pred: set(rel.rows) for pred, rel in interned.relations.items() if rel.rows} == {
            pred: set(rel.rows) for pred, rel in fresh.relations.items()
        }
        assert interned.atoms == fresh.atoms


@settings(max_examples=12, deadline=None)
@given(
    scenario=st.sampled_from(["TransClosure", "Andersen", "deps"]),
    seed=st.integers(0, 10 ** 6),
)
@pytest.mark.parametrize("engine", ["compiled", "interpreted"])
def test_patched_trace_maps_match_cold_build(engine, scenario, seed):
    query, database, deltas = _update_stream(scenario, seed)
    session = ProvenanceSession(query, database, engine=engine)
    session.answers()
    for delta in deltas:
        session.update(delta)
        assert_trace_maps_equal_cold(session)
    # One head map serves the trace and the GRI.
    assert session.gri_index().rules is session.evaluation.instances.heads


def test_cone_stays_small_on_deps_upgrades():
    # Delete-and-rederive overdeletes 68-69% of this model on three of
    # the four deltas; the rank-supported cone holds at most 14% of it.
    instance = generate_instance("deps", size=48, seed=0, delta_rounds=4)
    session = ProvenanceSession(instance.query, instance.database.copy())
    session.answers()
    for delta in instance.deltas:
        model_size = len(session.model)
        receipt = session.update(delta)
        assert receipt.effective.deleted
        assert 0 < receipt.cone < model_size / 4
    cold = evaluate(instance.query.program, session.database, record_instances=True)
    assert session.model == cold.model and session.ranks == cold.ranks


def test_instance_leaving_and_reentering_in_one_update():
    # Deleting e(a, b) retracts tc(a, b) and with it the instance
    # tc(a, c) :- tc(a, b), e(b, c); inserting a detour a -> x -> b
    # derives tc(a, b) again, and the same instance re-enters.
    session = tc_session("e(a, b). e(b, c).")
    assert session.why(("a", "c"))
    delta = Delta(inserted={edge("a", "x"), edge("x", "b")}, deleted={edge("a", "b")})
    # Maintenance patches the evaluation it is given, so the dry run
    # maintains a copy evaluated on its own.
    database = session.database.copy()
    evaluation = evaluate(TC_PROGRAM, database, record_instances=True)
    receipt = maintain_evaluation(
        TC_PROGRAM, database, evaluation, database.apply(delta)
    )
    assert set(receipt.removed_instances) & set(receipt.added_instances)
    session.update(delta)
    assert_gri_equals_cold(session)
    detour = frozenset({edge("a", "x"), edge("x", "b"), edge("b", "c")})
    assert session.why(("a", "c")) == [detour]


# ---------------------------------------------------------------------------
# Versions and byte accounting of a maintained session
# ---------------------------------------------------------------------------


class TestMaintainedSessionAccounting:
    def test_invalidate_bumps_version(self):
        session = tc_session("e(a, b).")
        session.update(Delta.insert(edge("b", "c")))
        version = session.version
        session.invalidate()
        assert session.version == version + 1
        assert session.why(("a", "c")) == [frozenset({edge("a", "b"), edge("b", "c")})]

    def test_estimated_bytes_charges_the_trace_index(self):
        # The first update indexes the trace by head and body and interns
        # the model, about doubling the session's memory (tracemalloc:
        # +0.82 MB on this 0.92 MB session); the estimate must follow.
        instance = generate_instance("deps", size=48, seed=0, delta_rounds=4)
        session = ProvenanceSession(instance.query, instance.database.copy())
        session.answers()
        before = session.estimated_bytes()
        assert session.update(instance.deltas[0]).changed()
        assert isinstance(session.evaluation.instances, TraceIndex)
        assert session.estimated_bytes() >= 1.7 * before
