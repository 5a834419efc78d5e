"""Unit tests for the indexed fact store."""

import pytest

from repro.datalog.atoms import Atom
from repro.datalog.database import Database, check_over_schema
from repro.datalog.terms import Variable


def sample_db():
    return Database([
        Atom("e", ("a", "b")),
        Atom("e", ("b", "c")),
        Atom("e", ("a", "c")),
        Atom("s", ("a",)),
    ])


class TestBasics:
    def test_len_contains_iter(self):
        db = sample_db()
        assert len(db) == 4
        assert Atom("e", ("a", "b")) in db
        assert Atom("e", ("c", "a")) not in db
        assert set(db) == db.facts()

    def test_add_returns_newness(self):
        db = Database()
        assert db.add(Atom("p", ("a",)))
        assert not db.add(Atom("p", ("a",)))

    def test_add_rejects_non_ground(self):
        with pytest.raises(ValueError):
            Database().add(Atom("p", (Variable("x"),)))

    def test_update_counts_new(self):
        db = sample_db()
        added = db.update([Atom("s", ("a",)), Atom("s", ("b",))])
        assert added == 1

    def test_discard(self):
        db = sample_db()
        assert db.discard(Atom("s", ("a",)))
        assert not db.discard(Atom("s", ("a",)))
        assert Atom("s", ("a",)) not in db
        assert db.count("s") == 0

    def test_equality_with_set(self):
        db = sample_db()
        assert db == sample_db()
        assert db == set(sample_db().facts())

    def test_copy_is_independent(self):
        db = sample_db()
        dup = db.copy()
        dup.add(Atom("s", ("z",)))
        assert Atom("s", ("z",)) not in db
        # An existing predicate and position bucket of the copy changes
        # without touching the source's.
        dup.add(Atom("e", ("a", "d")))
        dup.discard(Atom("e", ("a", "b")))
        assert db.relation("e") == {
            Atom("e", ("a", "b")),
            Atom("e", ("b", "c")),
            Atom("e", ("a", "c")),
        }
        assert set(db.matching("e", {0: "a"})) == {
            Atom("e", ("a", "b")),
            Atom("e", ("a", "c")),
        }
        assert set(dup.matching("e", {0: "a"})) == {
            Atom("e", ("a", "c")),
            Atom("e", ("a", "d")),
        }


class TestAccess:
    def test_relation(self):
        db = sample_db()
        assert db.relation("e") == {
            Atom("e", ("a", "b")),
            Atom("e", ("b", "c")),
            Atom("e", ("a", "c")),
        }
        assert db.relation("nope") == frozenset()

    def test_predicates(self):
        assert sample_db().predicates() == {"e", "s"}

    def test_active_domain(self):
        assert sample_db().active_domain() == {"a", "b", "c"}

    def test_count(self):
        db = sample_db()
        assert db.count("e") == 3
        assert db.count("s") == 1
        assert db.count("nope") == 0


class TestMatching:
    def test_unbound_scan(self):
        db = sample_db()
        assert len(list(db.matching("e", {}))) == 3

    def test_single_position(self):
        db = sample_db()
        facts = set(db.matching("e", {0: "a"}))
        assert facts == {Atom("e", ("a", "b")), Atom("e", ("a", "c"))}

    def test_multi_position(self):
        db = sample_db()
        facts = set(db.matching("e", {0: "a", 1: "c"}))
        assert facts == {Atom("e", ("a", "c"))}

    def test_no_match(self):
        db = sample_db()
        assert list(db.matching("e", {0: "zzz"})) == []
        assert list(db.matching("nope", {})) == []

    def test_matching_reflects_discard(self):
        db = sample_db()
        db.discard(Atom("e", ("a", "b")))
        assert set(db.matching("e", {0: "a"})) == {Atom("e", ("a", "c"))}

    def test_matching_safe_under_mutation_single_binding(self):
        # The single-binding path used to alias the raw index set; adding
        # or discarding mid-iteration then blew up with RuntimeError.
        db = sample_db()
        seen = []
        for fact in db.matching("e", {0: "a"}):
            db.add(Atom("e", ("a", str(len(seen)))))
            db.discard(Atom("e", ("b", "c")))
            seen.append(fact)
        assert set(seen) == {Atom("e", ("a", "b")), Atom("e", ("a", "c"))}

    def test_matching_safe_under_mutation_no_bindings(self):
        db = sample_db()
        seen = []
        for fact in db.matching("e", {}):
            db.discard(fact)
            seen.append(fact)
        assert len(seen) == 3
        assert db.count("e") == 0

    def test_matching_safe_under_mutation_multi_binding(self):
        db = sample_db()
        seen = []
        for fact in db.matching("e", {0: "a", 1: "b"}):
            db.add(Atom("e", ("a", "zz")))
            seen.append(fact)
        assert seen == [Atom("e", ("a", "b"))]


class TestDiscardCleansIndexes:
    def test_emptied_buckets_are_deleted(self):
        # Churn must not leave empty sets behind in the secondary indexes.
        db = Database()
        for i in range(100):
            fact = Atom("p", (f"v{i}", i))
            db.add(fact)
            db.discard(fact)
        assert len(db) == 0
        assert db._by_pred == {}
        assert db._index == {}
        assert db.predicates() == frozenset()

    def test_partial_discard_keeps_shared_buckets(self):
        db = sample_db()
        db.discard(Atom("e", ("a", "b")))
        # ("e", 0, "a") is still inhabited by e(a, c); ("e", 1, "b") is gone.
        assert ("e", 0, "a") in db._index
        assert ("e", 1, "b") not in db._index
        assert set(db.matching("e", {0: "a"})) == {Atom("e", ("a", "c"))}

    def test_discard_then_add_round_trips(self):
        db = sample_db()
        fact = Atom("s", ("a",))
        db.discard(fact)
        assert "s" not in db.predicates()
        db.add(fact)
        assert set(db.matching("s", {0: "a"})) == {fact}


class TestRestrictSubset:
    def test_restrict(self):
        db = sample_db()
        restricted = db.restrict(["s"])
        assert set(restricted) == {Atom("s", ("a",))}

    def test_subset_validates(self):
        db = sample_db()
        sub = db.subset([Atom("s", ("a",))])
        assert len(sub) == 1
        with pytest.raises(ValueError):
            db.subset([Atom("s", ("nope",))])


class TestSchemaCheck:
    def test_check_over_schema(self):
        db = sample_db()
        check_over_schema(db, ["e", "s"])
        with pytest.raises(ValueError, match="outside"):
            check_over_schema(db, ["e"])
