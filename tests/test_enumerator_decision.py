"""Tests for the incremental enumerator and the membership deciders."""

import pytest

from repro.datalog.database import Database
from repro.datalog.parser import parse_database, parse_program
from repro.datalog.program import DatalogQuery
from repro.provenance.enumerate import (
    enumerate_why,
    enumerate_why_minimal_depth,
    enumerate_why_nonrecursive,
    enumerate_why_unambiguous,
)
from repro.core.decision import (
    decide_membership,
    decide_why,
    decide_why_minimal_depth,
    decide_why_nonrecursive,
    decide_why_unambiguous,
)
from repro.core.enumerator import WhyProvenanceEnumerator, why_provenance_unambiguous
from repro.core.parallel import explain_fact
from repro.core.session import ProvenanceSession

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


def powerset_members(db):
    import itertools

    facts = sorted(db.facts(), key=str)
    for r in range(len(facts) + 1):
        yield from (frozenset(c) for c in itertools.combinations(facts, r))


class TestEnumerator:
    def test_matches_oracle_example2(self):
        family = why_provenance_unambiguous(QUERY, DB1, ("d",))
        assert family == enumerate_why_unambiguous(QUERY, DB1, ("d",))

    def test_matches_oracle_example4(self):
        family = why_provenance_unambiguous(QUERY, DB4, ("d",))
        assert family == enumerate_why_unambiguous(QUERY, DB4, ("d",))

    def test_no_repetitions(self):
        enumerator = WhyProvenanceEnumerator(QUERY, DB4, ("d",))
        members = enumerator.members()
        assert len(members) == len(set(members))

    def test_limit_respected(self):
        enumerator = WhyProvenanceEnumerator(TC_QUERY, TC_DB, ("a", "c"))
        assert len(enumerator.members(limit=1)) == 1

    def test_run_report(self):
        report = explain_fact(ProvenanceSession(QUERY, DB4), ("d",))
        assert len(report.members) == 2
        assert len(report.delays) == 2
        assert report.exhausted
        assert report.build_seconds == report.closure_seconds + report.formula_seconds

    def test_non_answer_tuple(self):
        assert why_provenance_unambiguous(QUERY, DB1, ("zzz",)) == frozenset()

    def test_enumeration_is_resumable(self):
        enumerator = WhyProvenanceEnumerator(QUERY, DB4, ("d",))
        first = enumerator.members(limit=1)
        rest = enumerator.members()
        assert len(first) == 1 and len(rest) == 1
        assert set(first).isdisjoint(rest)

    def test_tc_both_paths(self):
        # tc(a, c) via e(a,c) directly or via e(a,b), e(b,c).
        family = why_provenance_unambiguous(TC_QUERY, TC_DB, ("a", "c"))
        expected = frozenset({
            frozenset(parse_database("e(a, c).")),
            frozenset(parse_database("e(a, b). e(b, c).")),
        })
        assert family == expected


class TestDeciderAgainstOracles:
    """Exhaustive subset sweep on the small running examples."""

    @pytest.mark.parametrize("db,tup", [(DB4, ("d",)), (DB1, ("d",))])
    def test_unambiguous_all_subsets(self, db, tup):
        family = enumerate_why_unambiguous(QUERY, db, tup)
        for subset in powerset_members(db):
            expected = subset in family
            assert decide_why_unambiguous(QUERY, db, tup, subset) == expected, subset

    def test_arbitrary_all_subsets_example4(self):
        family = enumerate_why(QUERY, DB4, ("d",))
        for subset in powerset_members(DB4):
            assert decide_why(QUERY, DB4, ("d",), subset) == (subset in family)

    def test_nonrecursive_all_subsets_example4(self):
        family = enumerate_why_nonrecursive(QUERY, DB4, ("d",))
        for subset in powerset_members(DB4):
            assert decide_why_nonrecursive(QUERY, DB4, ("d",), subset) == (
                subset in family
            )

    def test_minimal_depth_all_subsets_example4(self):
        family = enumerate_why_minimal_depth(QUERY, DB4, ("d",))
        for subset in powerset_members(DB4):
            assert decide_why_minimal_depth(QUERY, DB4, ("d",), subset) == (
                subset in family
            )

    def test_linear_nonrecursive_routes_to_sat(self):
        family = enumerate_why_nonrecursive(TC_QUERY, TC_DB, ("a", "c"))
        for subset in powerset_members(TC_DB):
            assert decide_why_nonrecursive(TC_QUERY, TC_DB, ("a", "c"), subset) == (
                subset in family
            )


class TestDecideMembershipFrontend:
    def test_dispatch(self):
        member = frozenset(parse_database("s(a). t(a, a, d)."))
        for tree_class in ("arbitrary", "unambiguous", "nonrecursive", "minimal-depth"):
            assert decide_membership(QUERY, DB1, ("d",), member, tree_class)

    def test_unknown_class(self):
        with pytest.raises(ValueError):
            decide_membership(QUERY, DB1, ("d",), [], "magic")

    def test_subset_validation(self):
        with pytest.raises(ValueError):
            decide_why(QUERY, DB1, ("d",), parse_database("s(zzz)."))


class TestSubsetDecisionEvaluatesOnce:
    """A subset decision evaluates its subset database once, with the trace."""

    SMALL_TC_DB = Database(parse_database("e(a, b). e(b, c). e(a, c)."))

    @pytest.mark.parametrize("tree_class", ["arbitrary", "minimal-depth"])
    def test_one_evaluation_per_decide(self, tree_class, evaluated_databases):
        session = ProvenanceSession(TC_QUERY, self.SMALL_TC_DB)
        session.evaluation  # the full database, evaluated before counting
        subset = self.SMALL_TC_DB.facts()
        evaluated_databases.clear()
        # Not a member: no single tree has all three edges as leaves.
        assert not session.decide(("a", "c"), subset, tree_class)
        assert evaluated_databases == [frozenset(subset)]
        evaluated_databases.clear()
        # A member: the subset still costs exactly one evaluation.
        member = frozenset(parse_database("e(a, c)."))
        assert session.decide(("a", "c"), member, tree_class)
        assert evaluated_databases == [member]


class TestMinimalDepthUsesFullDatabase:
    def test_budget_comes_from_full_database(self):
        """A subset whose best tree is deeper than the global minimum fails.

        tc(a, c) has rank 1 w.r.t. the full db (edge e(a,c)); the subset
        {e(a,b), e(b,c)} proves it only at depth 2, so it is not in whyMD
        even though it is in why.
        """
        subset = frozenset(parse_database("e(a, b). e(b, c)."))
        assert decide_why(TC_QUERY, TC_DB, ("a", "c"), subset)
        assert not decide_why_minimal_depth(TC_QUERY, TC_DB, ("a", "c"), subset)
        direct = frozenset(parse_database("e(a, c)."))
        assert decide_why_minimal_depth(TC_QUERY, TC_DB, ("a", "c"), direct)


class TestSoundnessWithoutFallback:
    def test_sat_only_mode_is_sound(self):
        """copies-bounded SAT answers True only on real members."""
        family = enumerate_why(QUERY, DB4, ("d",))
        for subset in powerset_members(DB4):
            if decide_why(QUERY, DB4, ("d",), subset, use_oracle_fallback=False):
                assert subset in family
