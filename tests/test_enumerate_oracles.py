"""Tests for the brute-force why-provenance oracles.

These pin the paper's worked examples exactly and check the containment
relations between the four families. The unambiguous oracle also checks
the SAT pipeline's exhaustive enumeration on every synthetic family.
"""

import pytest

from repro.core.session import ProvenanceSession
from repro.datalog.database import Database
from repro.datalog.parser import parse_database, parse_program
from repro.datalog.program import DatalogQuery
from repro.provenance.enumerate import (
    EnumerationBudgetExceeded,
    enumerate_why,
    enumerate_why_minimal_depth,
    enumerate_why_nonrecursive,
    enumerate_why_unambiguous,
    why_families,
)
from repro.scenarios.synthetic import FAMILIES, generate_instance

#: Partial DAGs the SAT-free oracle may explore per tuple in the
#: synthetic-family comparison before the tuple is skipped.
ORACLE_DAGS = 20_000
#: (family, size) instances of that comparison: small enough for the
#: oracle, large enough that each has answers (widejoin's long joins
#: need more facts before any answer appears).
ORACLE_GRID = [
    (family, size)
    for family in sorted(FAMILIES)
    for size in ((16, 24) if family == "widejoin" else (6, 10))
]

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


def fs(text: str) -> frozenset:
    return frozenset(parse_database(text))


class TestExample2:
    """why((d), D, Q) = { {S(a), T(a,a,d)}, D } (the paper's Example 2)."""

    def test_why(self):
        family = enumerate_why(QUERY, DB1, ("d",))
        assert family == frozenset({fs("s(a). t(a, a, d)."), DB1.facts()})

    def test_why_unambiguous_drops_full_database(self):
        family = enumerate_why_unambiguous(QUERY, DB1, ("d",))
        assert family == frozenset({fs("s(a). t(a, a, d).")})

    def test_why_nonrecursive_drops_full_database(self):
        # The only witness for D uses a(a) derived from itself.
        family = enumerate_why_nonrecursive(QUERY, DB1, ("d",))
        assert family == frozenset({fs("s(a). t(a, a, d).")})

    def test_why_minimal_depth(self):
        family = enumerate_why_minimal_depth(QUERY, DB1, ("d",))
        assert family == frozenset({fs("s(a). t(a, a, d).")})


class TestExample4:
    """whyUN((d), D, Q) has exactly the two one-sided explanations."""

    def test_why_unambiguous(self):
        family = enumerate_why_unambiguous(QUERY, DB4, ("d",))
        assert family == frozenset({
            fs("s(a). t(a, a, c). t(c, c, d)."),
            fs("s(b). t(b, b, c). t(c, c, d)."),
        })

    def test_full_database_in_nonrecursive_and_minimal_depth(self):
        # The ambiguous tree of Example 4 is non-recursive and minimal-depth.
        assert DB4.facts() in enumerate_why_nonrecursive(QUERY, DB4, ("d",))
        assert DB4.facts() in enumerate_why_minimal_depth(QUERY, DB4, ("d",))
        assert DB4.facts() not in enumerate_why_unambiguous(QUERY, DB4, ("d",))

    def test_why_contains_everything(self):
        why = enumerate_why(QUERY, DB4, ("d",))
        assert DB4.facts() in why
        assert fs("s(a). t(a, a, c). t(c, c, d).") in why


class TestContainments:
    """whyUN <= whyNR <= why, and whyMD <= why (Sections 4.3 and 5)."""

    @pytest.mark.parametrize("db,tup", [(DB1, ("d",)), (DB4, ("d",)), (DB1, ("a",)), (DB4, ("c",))])
    def test_containment_chain(self, db, tup):
        families = why_families(QUERY, db, tup)
        assert families["whyUN"] <= families["whyNR"]
        assert families["whyNR"] <= families["why"]
        assert families["whyMD"] <= families["why"]

    @pytest.mark.parametrize("db,tup", [(DB1, ("d",)), (DB4, ("d",))])
    def test_members_are_subsets_of_database(self, db, tup):
        for family in why_families(QUERY, db, tup).values():
            for member in family:
                assert member <= db.facts()


class TestNonAnswers:
    def test_all_empty_for_non_answer(self):
        families = why_families(QUERY, DB1, ("zzz",))
        assert all(family == frozenset() for family in families.values())


class TestUnionNotClosed:
    def test_why_is_not_union_closed(self):
        """P(a) from either edge, never both (motivates NP-hardness)."""
        program = parse_program("p(X) :- e(X, Y).")
        query = DatalogQuery(program, "p")
        db = Database(parse_database("e(a, b). e(a, c)."))
        family = enumerate_why(query, db, ("a",))
        assert family == frozenset({fs("e(a, b)."), fs("e(a, c).")})


class TestBudgets:
    def test_budget_raises(self):
        with pytest.raises(EnumerationBudgetExceeded):
            enumerate_why(QUERY, DB4, ("d",), max_supports_per_fact=1)


class TestLinearCoincidence:
    """For linear programs, whyNR == whyUN (Appendix D.1)."""

    @pytest.mark.parametrize("target", [("a", "b"), ("a", "c"), ("a", "d")])
    def test_tc_chain(self, target):
        tc = parse_program(
            """
            tc(X, Y) :- e(X, Y).
            tc(X, Z) :- tc(X, Y), e(Y, Z).
            """
        )
        query = DatalogQuery(tc, "tc")
        db = Database(parse_database("e(a, b). e(b, c). e(c, d). e(a, c)."))
        nr = enumerate_why_nonrecursive(query, db, target)
        un = enumerate_why_unambiguous(query, db, target)
        assert nr == un


class TestSatPipelineAgainstOracleOnSyntheticFamilies:
    """An exhaustive ``session.why`` is exactly the SAT-free ``whyUN``.

    The SAT pipeline blocks each member and backjumps to where the
    blocking clause asserts; a fault there would drop or repeat members.
    The oracle enumerates compressed DAGs without any solver, on small
    instances of every synthetic family; a tuple is skipped only when the
    oracle's DAG budget runs out.
    """

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("family,size", ORACLE_GRID)
    def test_exhaustive_why_equals_the_oracle(self, family, size, seed):
        instance = generate_instance(family, size=size, seed=seed)
        session = ProvenanceSession(instance.query, instance.database)
        compared = 0
        for tup in session.answers():
            try:
                expected = enumerate_why_unambiguous(
                    instance.query, instance.database, tup, max_dags=ORACLE_DAGS
                )
            except EnumerationBudgetExceeded:
                continue
            # One past the oracle's count, so a repeating stream stops.
            members = session.why(tup, limit=len(expected) + 1)
            assert len(members) == len(set(members)), tup
            assert set(members) == expected, tup
            compared += 1
        assert compared > 0
