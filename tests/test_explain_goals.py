"""Goals answered and explained from the one bottom-up evaluation.

``holds``, ``answers`` and :func:`extract_minimal_depth_tree` (the tree
``repro explain`` prints) all read the compiled semi-naive evaluation.
These tests put every ground goal of random graphs and path systems, of
hand-written programs (cycles, a self-loop, non-linear recursion, a
non-recursive join, a long chain) and sampled answers of every Table-1
scenario to them. Answers are checked against naive evaluation; each
answer's tree must be a valid, unambiguous proof of it whose depth is the
fact's rank, and each non-answer must raise :class:`FactNotDerivable`.

The tree is the canonical one: every derived fact is expanded by the
instance whose body facts all rank below it, least by highest body rank
and then by ``str``. So it is the same whichever engine evaluated the
database, and the same on every run.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.decision import decide_membership
from repro.core.session import ProvenanceSession
from repro.datalog.atoms import Atom
from repro.datalog.database import Database
from repro.datalog.engine import answers, evaluate, ground_instances, holds
from repro.datalog.parser import parse_atom, parse_database, parse_program
from repro.datalog.program import DatalogQuery
from repro.harness.runner import sample_answer_tuples
from repro.provenance.extract import extract_minimal_depth_tree
from repro.provenance.grounding import FactNotDerivable
from repro.scenarios import all_scenarios, get_scenario

TC = parse_program(
    """
    tc(X, Y) :- e(X, Y).
    tc(X, Z) :- tc(X, Y), e(Y, Z).
    """
)
TC_QUERY = DatalogQuery(TC, "tc")

PA = parse_program(
    """
    a(X) :- s(X).
    a(X) :- a(Y), a(Z), t(Y, Z, X).
    """
)
PA_QUERY = DatalogQuery(PA, "a")

# Example 2 and Example 4 of the paper.
DB1 = Database(parse_database(
    "s(a). t(a, a, b). t(a, a, c). t(a, a, d). t(b, c, a)."
))
DB4 = Database(parse_database(
    "s(a). s(b). t(a, a, c). t(b, b, c). t(c, c, d)."
))
CYCLE_DB = Database(parse_database("e(a, b). e(b, c). e(c, a). e(c, d)."))

SCENARIO_NAMES = [scenario.name for scenario in all_scenarios()]


def _naive_answers(query, database):
    model = evaluate(query.program, database, method="naive").model
    return {fact.args for fact in model.relation(query.answer_predicate)}


def _check_goal(query, database, tup, expected_answers, evaluation):
    """The goal holds iff it is an answer, and has a tree iff it holds."""
    fact = query.answer_atom(tup)
    is_answer = tup in expected_answers
    assert holds(query, database, tup) == is_answer, tup
    if not is_answer:
        with pytest.raises(FactNotDerivable):
            extract_minimal_depth_tree(query.program, database, fact, evaluation)
        return None
    tree = extract_minimal_depth_tree(query.program, database, fact, evaluation)
    tree.validate(query.program, database, expected_root=fact)
    assert tree.depth() == evaluation.ranks[fact], tup
    assert tree.is_unambiguous()
    return tree


def _random_graph(seed):
    rng = random.Random(seed)
    nodes = ["a", "b", "c", "d", "e"]
    database = Database(
        Atom("e", (u, v))
        for u in nodes
        for v in nodes
        if u != v and rng.random() < 0.3
    )
    return nodes, database


def _random_path_system(seed):
    rng = random.Random(seed + 50)
    nodes = ["a", "b", "c", "d"]
    database = Database()
    database.add(Atom("s", (rng.choice(nodes),)))
    for _ in range(5):
        database.add(Atom("t", tuple(rng.choice(nodes) for _ in range(3))))
    return nodes, database


def _derived(evaluation, database):
    return sorted(
        (fact for fact in evaluation.model if fact not in database), key=str
    )


class TestRandomGoals:
    @pytest.mark.parametrize("seed", range(10))
    def test_every_pair_is_explained_iff_it_is_an_answer(self, seed):
        nodes, database = _random_graph(seed)
        expected = _naive_answers(TC_QUERY, database)
        assert answers(TC_QUERY, database) == expected
        evaluation = evaluate(TC, database, record_instances=True)
        for u in nodes:
            for v in nodes:
                _check_goal(TC_QUERY, database, (u, v), expected, evaluation)

    @pytest.mark.parametrize("seed", range(6))
    def test_every_node_is_explained_iff_it_is_an_answer(self, seed):
        """Each tree's support is a member of whyUN and of whyMD."""
        nodes, database = _random_path_system(seed)
        expected = _naive_answers(PA_QUERY, database)
        assert answers(PA_QUERY, database) == expected
        evaluation = evaluate(PA, database, record_instances=True)
        session = ProvenanceSession(PA_QUERY, database)
        for node in nodes:
            tree = _check_goal(PA_QUERY, database, (node,), expected, evaluation)
            if tree is None:
                continue
            for tree_class in ("unambiguous", "minimal-depth"):
                assert decide_membership(
                    PA_QUERY, database, (node,), tree.support(), tree_class,
                    session=session,
                ), (node, tree_class)

    @settings(max_examples=15, deadline=None)
    @given(
        triples=st.sets(
            st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
            max_size=6,
        ),
        sources=st.sets(st.integers(0, 2), min_size=1, max_size=2),
    )
    def test_random_path_systems_agree_with_naive_and_explain(self, triples, sources):
        facts = [Atom("s", (f"n{i}",)) for i in sources]
        facts += [Atom("t", (f"n{u}", f"n{v}", f"n{w}")) for u, v, w in triples]
        database = Database(facts)
        expected = _naive_answers(PA_QUERY, database)
        assert answers(PA_QUERY, database) == expected
        evaluation = evaluate(PA, database, record_instances=True)
        for node in range(3):
            _check_goal(PA_QUERY, database, (f"n{node}",), expected, evaluation)


class TestHandWrittenGoals:
    def test_cycle_reaches_every_node_from_every_cycle_node(self):
        expected = {(u, v) for u in "abc" for v in "abcd"}
        assert answers(TC_QUERY, CYCLE_DB) == expected
        assert _naive_answers(TC_QUERY, CYCLE_DB) == expected
        evaluation = evaluate(TC, CYCLE_DB, record_instances=True)
        for u in "abcd":
            for v in "abcd":
                _check_goal(TC_QUERY, CYCLE_DB, (u, v), expected, evaluation)

    def test_self_loop_is_an_answer_of_rank_one(self):
        database = Database(parse_database("e(a, a). e(a, b)."))
        assert answers(TC_QUERY, database) == {("a", "a"), ("a", "b")}
        tree = extract_minimal_depth_tree(TC, database, parse_atom("tc(a, a)"))
        assert tree.depth() == 1
        assert tree.support() == frozenset(parse_database("e(a, a)."))

    @pytest.mark.parametrize("database", [DB1, DB4], ids=["DB1", "DB4"])
    def test_nonlinear_recursion_matches_naive_model_and_ranks(self, database):
        compiled = evaluate(PA, database, record_instances=True)
        naive = evaluate(PA, database, method="naive")
        assert compiled.model == naive.model
        assert compiled.ranks == naive.ranks
        expected = {(c,) for c in "abcd"}
        assert answers(PA_QUERY, database) == expected
        for c in "abcd":
            _check_goal(PA_QUERY, database, (c,), expected, compiled)

    def test_goal_outside_the_active_domain_is_not_derivable(self):
        assert holds(PA_QUERY, DB1, ("d",))
        assert not holds(PA_QUERY, DB1, ("zzz",))
        with pytest.raises(FactNotDerivable):
            extract_minimal_depth_tree(PA, DB1, parse_atom("a(zzz)"))

    def test_reachability_stops_at_the_start_facts_component(self):
        program = parse_program(
            """
            reach(X) :- start(X).
            reach(Y) :- reach(X), e(X, Y).
            """
        )
        query = DatalogQuery(program, "reach")
        database = Database(parse_database("start(a). e(a, b). e(b, c). e(z, w)."))
        expected = {("a",), ("b",), ("c",)}
        assert answers(query, database) == expected
        evaluation = evaluate(program, database, record_instances=True)
        for node in "abczw":
            _check_goal(query, database, (node,), expected, evaluation)
        assert evaluation.ranks[parse_atom("reach(c)")] == 3

    def test_nonrecursive_join(self):
        program = parse_program(
            """
            p(X) :- q(X, Y).
            top(X) :- p(X), u(X).
            """
        )
        query = DatalogQuery(program, "top")
        database = Database(parse_database("q(a, b). u(a). q(c, d)."))
        evaluation = evaluate(program, database, record_instances=True)
        tree = _check_goal(query, database, ("a",), {("a",)}, evaluation)
        assert tree.depth() == 2
        assert tree.support() == frozenset(parse_database("q(a, b). u(a)."))
        for node in ("b", "c"):
            _check_goal(query, database, (node,), {("a",)}, evaluation)

    def test_database_facts_explain_as_leaves(self):
        evaluation = evaluate(PA, DB1, record_instances=True)
        for text in ("s(a)", "t(b, c, a)"):
            fact = parse_atom(text)
            tree = extract_minimal_depth_tree(PA, DB1, fact, evaluation)
            assert tree.depth() == 0 == evaluation.ranks[fact]
            assert tree.support() == frozenset([fact])


class TestLongChain:
    N = 40

    def _chain(self):
        return Database(Atom("e", (f"n{i}", f"n{i + 1}")) for i in range(self.N))

    def test_far_goal_is_explained_by_the_whole_chain(self):
        database = self._chain()
        fact = parse_atom(f"tc(n0, n{self.N})")
        evaluation = evaluate(TC, database, record_instances=True)
        tree = extract_minimal_depth_tree(TC, database, fact, evaluation)
        tree.validate(TC, database, expected_root=fact)
        assert tree.depth() == self.N == evaluation.ranks[fact]
        assert tree.support() == database.facts()

    def test_backwards_goal_is_not_derivable(self):
        database = self._chain()
        assert not holds(TC_QUERY, database, ("n5", "n0"))
        with pytest.raises(FactNotDerivable):
            extract_minimal_depth_tree(TC, database, parse_atom("tc(n5, n0)"))


class TestCanonicalTree:
    @pytest.mark.parametrize(
        "program,database",
        [(PA, DB1), (PA, DB4), (TC, CYCLE_DB)],
        ids=["PA-DB1", "PA-DB4", "TC-cycle"],
    )
    def test_every_fact_expands_by_the_least_lower_ranked_instance(
        self, program, database
    ):
        evaluation = evaluate(program, database, record_instances=True)
        ranks = evaluation.ranks
        expected = {}
        for instance in ground_instances(program, evaluation.model):
            head = instance.head
            if not all(ranks[b] < ranks[head] for b in instance.body):
                continue
            key = (max(ranks[b] for b in instance.body), str(instance))
            if head not in expected or key < expected[head][0]:
                expected[head] = (key, instance)
        for fact in _derived(evaluation, database):
            tree = extract_minimal_depth_tree(program, database, fact, evaluation)
            for node in tree.nodes():
                if node.is_leaf():
                    continue
                body = tuple(child.fact for child in node.children)
                assert body == expected[node.fact][1].body, (fact, node.fact)

    @pytest.mark.parametrize(
        "method,engine",
        [("seminaive", "interpreted"), ("naive", None)],
        ids=["interpreted", "naive"],
    )
    def test_tree_is_the_same_from_every_engine(self, method, engine):
        cases = [(PA, DB1), (PA, DB4), (TC, CYCLE_DB)]
        for program, database in cases:
            compiled = evaluate(program, database, record_instances=True)
            other = evaluate(
                program, database, method=method, record_instances=True, engine=engine
            )
            for fact in _derived(compiled, database):
                ours = extract_minimal_depth_tree(program, database, fact, compiled)
                theirs = extract_minimal_depth_tree(program, database, fact, other)
                assert ours.pretty() == theirs.pretty(), fact

    @settings(max_examples=20, deadline=None)
    @given(
        edges=st.lists(
            st.tuples(st.integers(0, 4), st.integers(0, 4)),
            min_size=1, max_size=12, unique=True,
        )
    )
    def test_random_graph_trees_do_not_depend_on_the_engine(self, edges):
        database = Database([Atom("e", (f"n{u}", f"n{v}")) for u, v in edges])
        compiled = evaluate(TC, database, record_instances=True)
        naive = evaluate(TC, database, method="naive", record_instances=True)
        for fact in _derived(compiled, database)[:10]:
            tree = extract_minimal_depth_tree(TC, database, fact)
            assert tree.pretty() == extract_minimal_depth_tree(
                TC, database, fact, compiled
            ).pretty()
            assert tree.pretty() == extract_minimal_depth_tree(
                TC, database, fact, naive
            ).pretty()


class TestScenarioGoals:
    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_sampled_answers_explain_alike_under_both_engines(self, name):
        scenario = get_scenario(name)
        query = scenario.query()
        database = scenario.database(scenario.database_names()[0]).restrict(
            query.program.edb
        )
        compiled = evaluate(query.program, database, record_instances=True)
        interpreted = evaluate(
            query.program, database, record_instances=True, engine="interpreted"
        )
        tuples = sample_answer_tuples(
            query, database, count=5, seed=0, evaluation=compiled
        )
        assert tuples
        for tup in tuples:
            fact = query.answer_atom(tup)
            tree = extract_minimal_depth_tree(query.program, database, fact, compiled)
            tree.validate(query.program, database, expected_root=fact)
            assert tree.depth() == compiled.ranks[fact] == interpreted.ranks[fact]
            assert tree.is_unambiguous()
            other = extract_minimal_depth_tree(
                query.program, database, fact, interpreted
            )
            assert tree.pretty() == other.pretty(), tup
