"""Tests for witness proof-tree extraction."""

import pytest

from repro.datalog.database import Database
from repro.datalog.engine import evaluate
from repro.datalog.parser import parse_atom, parse_database, parse_program
from repro.datalog.program import DatalogQuery
from repro.provenance.enumerate import enumerate_why_unambiguous
from repro.provenance.extract import (
    enumerate_witness_trees,
    extract_minimal_depth_tree,
    extract_tree_with_support,
)
from repro.core.session import ProvenanceSession
from repro.provenance.grounding import FactNotDerivable
from repro.provenance.proof_tree import is_minimal_depth
from repro.scenarios import get_scenario

PROGRAM = parse_program(
    """
    a(X) :- s(X).
    a(X) :- a(Y), a(Z), t(Y, Z, X).
    """
)
QUERY = DatalogQuery(PROGRAM, "a")
DB1 = Database(parse_database(
    "s(a). t(a, a, b). t(a, a, c). t(a, a, d). t(b, c, a)."
))
DB4 = Database(parse_database(
    "s(a). s(b). t(a, a, c). t(b, b, c). t(c, c, d)."
))

TC = parse_program(
    """
    tc(X, Y) :- e(X, Y).
    tc(X, Z) :- tc(X, Y), e(Y, Z).
    """
)
TC_QUERY = DatalogQuery(TC, "tc")
TC_DB = Database(parse_database("e(a, b). e(b, c). e(c, d). e(a, c)."))


class TestMinimalDepthExtraction:
    @pytest.mark.parametrize(
        "program,db,fact",
        [
            (PROGRAM, DB1, "a(d)"),
            (PROGRAM, DB1, "a(a)"),
            (PROGRAM, DB4, "a(d)"),
            (TC, TC_DB, "tc(a, d)"),
            (TC, TC_DB, "tc(a, c)"),
        ],
    )
    def test_extracted_tree_is_valid_and_minimal(self, program, db, fact):
        target = parse_atom(fact)
        tree = extract_minimal_depth_tree(program, db, target)
        tree.validate(program, db, expected_root=target)
        assert is_minimal_depth(tree, program, db)
        assert tree.is_unambiguous()

    def test_depth_equals_rank(self):
        evaluation = evaluate(TC, TC_DB)
        tree = extract_minimal_depth_tree(TC, TC_DB, parse_atom("tc(a, d)"), evaluation)
        assert tree.depth() == evaluation.ranks[parse_atom("tc(a, d)")]

    def test_underivable(self):
        with pytest.raises(FactNotDerivable):
            extract_minimal_depth_tree(TC, TC_DB, parse_atom("tc(d, a)"))

    def test_leaf_fact(self):
        tree = extract_minimal_depth_tree(TC, TC_DB, parse_atom("e(a, b)"))
        assert tree.depth() == 0
        assert tree.support() == frozenset({parse_atom("e(a, b)")})


class TestSupportDirectedExtraction:
    def test_member_produces_matching_tree(self):
        family = enumerate_why_unambiguous(QUERY, DB4, ("d",))
        for member in family:
            tree = extract_tree_with_support(QUERY, DB4, ("d",), member)
            assert tree is not None
            tree.validate(PROGRAM, DB4)
            assert tree.is_unambiguous()
            assert tree.support() == member

    def test_non_member_returns_none(self):
        assert extract_tree_with_support(QUERY, DB4, ("d",), DB4.facts()) is None
        assert extract_tree_with_support(QUERY, DB4, ("d",), frozenset()) is None

    def test_non_answer_returns_none(self):
        assert extract_tree_with_support(QUERY, DB4, ("zzz",), frozenset()) is None


class TestWitnessStream:
    def test_one_tree_per_member(self):
        trees = list(enumerate_witness_trees(QUERY, DB4, ("d",)))
        supports = {tree.support() for tree in trees}
        assert supports == enumerate_why_unambiguous(QUERY, DB4, ("d",))
        for tree in trees:
            tree.validate(PROGRAM, DB4)
            assert tree.is_unambiguous()

    def test_limit(self):
        trees = list(enumerate_witness_trees(TC_QUERY, TC_DB, ("a", "c"), limit=1))
        assert len(trees) == 1

    def test_non_answer_streams_nothing(self):
        assert list(enumerate_witness_trees(QUERY, DB1, ("zzz",))) == []


class TestWitnessTreesShareOneSession:
    def test_trees_cost_one_evaluation(self, evaluated_databases):
        scenario = get_scenario("Andersen")
        query = scenario.query()
        database = scenario.database("D1").restrict(query.program.edb)
        tup = ProvenanceSession(query, database).answers()[0]
        evaluated_databases.clear()
        trees = list(enumerate_witness_trees(query, database, tup, limit=5))
        assert len(trees) == 5
        assert len(evaluated_databases) == 1
        # Sharing the enumerator's session changes no tree.
        for tree in trees:
            alone = extract_tree_with_support(query, database, tup, tree.support())
            assert alone.pretty() == tree.pretty()
