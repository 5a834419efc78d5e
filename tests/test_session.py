"""Tests for the instrumented engine trace and the ProvenanceSession.

The load-bearing properties:

* the trace recorded by ``evaluate(..., record_instances=True)`` equals
  the set produced by re-matching every rule over the final model
  (``ground_instances``) — checked on fixed programs and on random
  programs/databases via hypothesis;
* session-served downward closures equal freshly computed ones;
* a session evaluates its ``(D, Sigma)`` pair exactly once across many
  target-fact queries, asserted via a call counter on the engine.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.session as session_module
from repro.core.decision import decide_membership
from repro.core.enumerator import why_provenance_unambiguous
from repro.core.minimal import minimal_members, smallest_member
from repro.core.parallel import explain_fact
from repro.core.session import ProvenanceSession
from repro.datalog.atoms import Atom
from repro.datalog.database import Database, Delta
from repro.datalog.engine import evaluate, ground_instances
from repro.datalog.parser import parse_atom, parse_database, parse_program
from repro.datalog.program import DatalogQuery, Program
from repro.datalog.rules import GroundRule
from repro.provenance.grounding import FactNotDerivable, downward_closure
from repro.scenarios.synthetic import generate_instance

from test_parser_properties import safe_rules

PROGRAM = parse_program(
    """
    a(X) :- s(X).
    a(X) :- a(Y), a(Z), t(Y, Z, X).
    """
)
DB = Database(parse_database(
    "s(a). t(a, a, b). t(a, a, c). t(a, a, d). t(b, c, a)."
))
QUERY = DatalogQuery(PROGRAM, "a")

TC = parse_program(
    """
    tc(X, Y) :- e(X, Y).
    tc(X, Z) :- tc(X, Y), e(Y, Z).
    """
)
TC_DB = Database(parse_database("e(a, b). e(b, c). e(c, d). e(a, c)."))
TC_QUERY = DatalogQuery(TC, "tc")


@st.composite
def programs_with_databases(draw):
    """A random safe program plus a database over its predicates.

    Facts are drawn over the program's own predicates (head and body
    alike, so intensional seeds occur) from a tiny constant pool, which
    makes rule bodies actually join.
    """
    rules = draw(st.lists(safe_rules(), min_size=1, max_size=4))
    try:
        program = Program(rules)
    except ValueError:
        # Arity conflicts between randomly drawn rules: discard politely.
        return None
    preds = sorted(program.arities().items())
    pool = ["c1", "c2", "c3"]
    facts = []
    for pred, arity in preds:
        count = draw(st.integers(min_value=0, max_value=3))
        for _ in range(count):
            args = tuple(draw(st.sampled_from(pool)) for _ in range(arity))
            facts.append(Atom(pred, args))
    return program, Database(facts)


common = settings(max_examples=60, deadline=None)


class TestInstanceTrace:
    def test_trace_equals_ground_instances_fixed(self):
        for program, db in ((PROGRAM, DB), (TC, TC_DB)):
            result = evaluate(program, db, record_instances=True)
            assert set(result.instances) == set(ground_instances(program, result.model))

    def test_trace_off_by_default(self):
        assert evaluate(PROGRAM, DB).instances is None

    def test_naive_and_seminaive_traces_agree(self):
        semi = evaluate(PROGRAM, DB, method="seminaive", record_instances=True)
        naive = evaluate(PROGRAM, DB, method="naive", record_instances=True)
        assert set(semi.instances) == set(naive.instances)

    def test_trace_has_no_duplicates(self):
        result = evaluate(PROGRAM, DB, record_instances=True)
        assert len(result.instances) == len(set(result.instances))

    def test_trace_with_seeded_intensional_facts(self):
        # The round-0 delta must expose database-seeded idb facts (the
        # CurNode pattern of the App. D.3 rewriting).
        db = Database(parse_database("tc(a, b). e(b, c)."))
        result = evaluate(TC, db, record_instances=True)
        assert set(result.instances) == set(ground_instances(TC, result.model))
        assert parse_atom("tc(a, c)") in result.model

    @given(drawn=programs_with_databases())
    @common
    def test_trace_equals_ground_instances_random(self, drawn):
        if drawn is None:
            return
        program, db = drawn
        for method in ("seminaive", "naive"):
            result = evaluate(program, db, method=method, record_instances=True)
            assert set(result.instances) == set(
                ground_instances(program, result.model)
            ), method


def count_ground_rules(monkeypatch):
    """Count every :class:`GroundRule` built from here on, checked or not."""
    built = []
    unchecked = GroundRule.unchecked.__func__
    init = GroundRule.__init__

    def counting_unchecked(cls, rule, head, body):
        built.append(head)
        return unchecked(cls, rule, head, body)

    def counting_init(self, rule, head, body):
        built.append(head)
        init(self, rule, head, body)

    monkeypatch.setattr(GroundRule, "unchecked", classmethod(counting_unchecked))
    monkeypatch.setattr(GroundRule, "__init__", counting_init)
    return built


class TestInternedTrace:
    """The trace keeps interned keys and lifts only what a reader reaches."""

    def test_closure_lifts_only_the_heads_it_reaches(self, monkeypatch):
        # A stored tenant of the daemon benchmark: a 16,123-instance trace
        # whose answer c_tc(n39, n97) has a 110-hyperedge closure.
        instance = generate_instance("chain", size=128, seed=0)
        built = count_ground_rules(monkeypatch)
        session = ProvenanceSession(instance.query, instance.database, engine="compiled")
        closure = session.closure_for(("n39", "n97"))
        assert len(session.evaluation.instances) == 16123
        assert closure.edge_count() == 110
        reached = sum(len(group) for group in closure.instances_by_head.values())
        assert 0 < len(built) <= reached

    def test_first_update_lifts_only_the_changed_instances(self, monkeypatch):
        instance = generate_instance("deps", size=48, seed=0, delta_rounds=1)
        session = ProvenanceSession(instance.query, instance.database.copy())
        for tup in session.answers()[:3]:
            session.why(tup, limit=1)
        built = count_ground_rules(monkeypatch)
        receipt = session.update(instance.deltas[0])
        assert receipt.removed_instances and receipt.added_instances
        assert len(built) <= receipt.added_instances + receipt.removed_instances

    def test_why_and_explain_fact_look_up_alike(self):
        # session.why pre-checks the answer, not the encoding, so the
        # enumerator's lookups are the only closure and encoding reads.
        tup = ("a", "d")
        why_session = ProvenanceSession(TC_QUERY, TC_DB.copy())
        fact_session = ProvenanceSession(TC_QUERY, TC_DB.copy())
        members = why_session.why(tup)
        assert explain_fact(fact_session, tup).members == members
        assert why_session.stats.as_dict() == fact_session.stats.as_dict()


class TestSessionClosures:
    def test_closure_matches_fresh_computation(self):
        session = ProvenanceSession(TC_QUERY, TC_DB)
        for tup in session.answers():
            fact = session.answer_fact(tup)
            cached = session.closure(fact)
            fresh = downward_closure(TC, TC_DB, fact)
            assert cached.root == fresh.root
            assert cached.nodes == fresh.nodes
            assert cached.database_nodes == fresh.database_nodes
            assert {
                head: frozenset(edges)
                for head, edges in cached.hyperedges_by_head.items()
            } == {
                head: frozenset(edges)
                for head, edges in fresh.hyperedges_by_head.items()
            }
            assert {
                head: frozenset(instances)
                for head, instances in cached.instances_by_head.items()
            } == {
                head: frozenset(instances)
                for head, instances in fresh.instances_by_head.items()
            }

    def test_closure_cached_by_fact(self):
        session = ProvenanceSession(QUERY, DB)
        fact = parse_atom("a(d)")
        assert session.closure(fact) is session.closure(fact)
        assert session.stats.closure_builds == 1
        assert session.stats.closure_hits == 1

    def test_closure_of_underivable_fact_raises(self):
        session = ProvenanceSession(QUERY, DB)
        with pytest.raises(FactNotDerivable):
            session.closure(parse_atom("a(zzz)"))
        assert session.closure_or_none(parse_atom("a(zzz)")) is None

    def test_decide_default_matches_free_function(self):
        # session.decide without a tree class must agree with the
        # decide_membership default ("arbitrary"), not silently use whyUN.
        session = ProvenanceSession(QUERY, DB)
        whole = DB.facts()
        assert session.decide(("d",), whole) == decide_membership(
            QUERY, DB, ("d",), whole
        )
        # The discriminating case: the whole database is a member under
        # arbitrary trees but not under unambiguous ones.
        assert session.decide(("d",), whole) is True
        assert session.decide(("d",), whole, "unambiguous") is False

    def test_gri_matches_module_function(self):
        from repro.provenance.grounding import rule_instance_graph

        session = ProvenanceSession(QUERY, DB)
        expected = rule_instance_graph(PROGRAM, DB)
        got = session.gri()
        assert {h: frozenset(es) for h, es in got.items() if es} == {
            h: frozenset(es) for h, es in expected.items() if es
        }


class TestSessionEvaluatesOnce:
    def test_single_evaluation_across_queries(self, monkeypatch):
        calls = {"n": 0}
        real_evaluate = session_module.evaluate

        def counting_evaluate(*args, **kwargs):
            calls["n"] += 1
            return real_evaluate(*args, **kwargs)

        monkeypatch.setattr(session_module, "evaluate", counting_evaluate)
        session = ProvenanceSession(QUERY, DB)
        for tup in session.answers():
            session.why(tup)
            session.closure_for(tup)
            session.min_dag_depth(tup)
            member = session.smallest_member(tup)
            assert session.decide(tup, member, "unambiguous")
        assert calls["n"] == 1
        assert session.stats.evaluations == 1
        assert session.stats.gri_builds == 1

    def test_gri_built_once_across_updates(self):
        # An update patches the GRI index per touched head; it never
        # rebuilds it from the trace.
        session = ProvenanceSession(TC_QUERY, TC_DB.copy())
        session.why(("a", "d"))
        for delta in (
            Delta.insert(parse_atom("e(d, e)")),
            Delta.delete(parse_atom("e(b, c)")),
            Delta(inserted={parse_atom("e(b, c)")}, deleted={parse_atom("e(a, c)")}),
        ):
            session.update(delta)
            session.why(("a", "d"))
        assert session.stats.updates == 3
        assert session.stats.gri_builds == 1

    def test_invalidate_forces_reevaluation(self):
        session = ProvenanceSession(QUERY, DB)
        session.why(("d",))
        session.invalidate()
        session.why(("d",))
        assert session.stats.evaluations == 2

    def test_fork_shares_nothing(self):
        session = ProvenanceSession(QUERY, DB)
        session.why(("d",))
        fork = session.fork()
        assert fork.stats.evaluations == 0
        fork.why(("d",))
        assert fork.stats.evaluations == 1
        assert session.stats.evaluations == 1

    def test_fresh_is_the_only_sat_mode(self):
        assert ProvenanceSession(QUERY, DB, sat_mode="fresh").why(("d",))
        with pytest.raises(ValueError, match="pooled"):
            ProvenanceSession(QUERY, DB, sat_mode="pooled")


class TestSessionAgreesWithFreeFunctions:
    def test_why_matches_unsessioned_pipeline(self):
        session = ProvenanceSession(TC_QUERY, TC_DB)
        for tup in session.answers():
            expected = why_provenance_unambiguous(TC_QUERY, TC_DB, tup)
            assert frozenset(session.why(tup)) == expected

    def test_decisions_match_unsessioned(self):
        session = ProvenanceSession(QUERY, DB)
        candidates = [
            frozenset(parse_database("s(a). t(a, a, d).")),
            frozenset(parse_database("s(a).")),
            DB.facts(),
        ]
        for tree_class in ("arbitrary", "unambiguous", "nonrecursive", "minimal-depth"):
            for candidate in candidates:
                expected = decide_membership(QUERY, DB, ("d",), candidate, tree_class)
                got = decide_membership(
                    QUERY, DB, ("d",), candidate, tree_class, session=session
                )
                assert got == expected, (tree_class, candidate)
                assert session.decide(("d",), candidate, tree_class) == expected

    def test_warm_decision_solver_is_reused(self):
        session = ProvenanceSession(QUERY, DB)
        member = frozenset(parse_database("s(a). t(a, a, d)."))
        assert session.decide(("d",), member, "unambiguous")
        solver = session.decision_solver(("d",))
        assert session.decision_solver(("d",)) is solver
        # Deciding again (positively and negatively) must not corrupt the
        # warm solver: assumptions retract, blocking clauses never land.
        assert session.decide(("d",), member, "unambiguous")
        assert not session.decide(("d",), frozenset(parse_database("s(a).")), "unambiguous")
        assert session.decide(("d",), member, "unambiguous")

    def test_minimal_matches_unsessioned(self):
        session = ProvenanceSession(TC_QUERY, TC_DB)
        for tup in session.answers():
            assert session.smallest_member(tup) is not None
            expected = {frozenset(m) for m in minimal_members(TC_QUERY, TC_DB, tup)}
            got = {frozenset(m) for m in session.minimal_members(tup)}
            assert got == expected
            direct = smallest_member(TC_QUERY, TC_DB, tup, session=session)
            assert len(direct) == min(len(m) for m in expected)

    def test_session_acyclicity_flows_to_every_method(self):
        # A session configured with a non-default acyclicity must use it
        # consistently: decisions and minimal explanations follow the same
        # encoding as enumeration, and the caches are shared (one key).
        session = ProvenanceSession(TC_QUERY, TC_DB, acyclicity="transitive-closure")
        tup = ("a", "c")
        members = session.why(tup)
        member = members[0]
        assert session.decide(tup, member, "unambiguous")
        assert session.smallest_member(tup) is not None
        encodings = [key for key, enc in session._encodings.items() if enc is not None]
        assert encodings == [(parse_atom("tc(a, c)"), 1, "transitive-closure")]
        assert frozenset(members) == why_provenance_unambiguous(
            TC_QUERY, TC_DB, tup, acyclicity="transitive-closure"
        )

    def test_why_of_non_answer_is_empty(self):
        session = ProvenanceSession(TC_QUERY, TC_DB)
        assert session.why(("d", "a")) == []
        assert not session.is_answer(("d", "a"))

    def test_enumerator_is_warm_and_incremental(self):
        session = ProvenanceSession(TC_QUERY, TC_DB)
        enumerator = session.enumerator(("a", "c"))
        assert session.enumerator(("a", "c")) is enumerator
        first = enumerator.members(limit=1)
        rest = enumerator.members()
        assert len(first) == 1
        # Incremental continuation: no member is repeated.
        assert not (set(first) & set(rest))
        assert frozenset(first + rest) == why_provenance_unambiguous(
            TC_QUERY, TC_DB, ("a", "c")
        )
