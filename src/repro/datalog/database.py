"""Databases: finite sets of facts with per-position indexes.

A database over a schema ``S`` is a finite set of facts over ``S``
(Section 2). The class maintains hash indexes on every ``(predicate,
position, value)`` triple so that the engine can match partially bound atoms
without scanning whole relations.

Databases under churn are described by :class:`Delta` — an insertion set
plus a deletion set — and updated atomically with :meth:`Database.apply`,
which reports the *effective* delta (the facts that actually changed).
Effective deltas are what the incremental maintenance machinery
(:mod:`repro.datalog.engine` / :mod:`repro.core.incremental`) consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from .atoms import Atom


@dataclass(frozen=True)
class Delta:
    """An update to a database: facts to insert and facts to delete.

    A delta is *declarative*: it describes the intended difference, not a
    log of operations. The two sets must be disjoint (inserting and
    deleting the same fact in one delta has no coherent meaning) and every
    member must be ground. :meth:`Database.apply` turns an intended delta
    into an *effective* one — inserting a fact already present or deleting
    an absent one is dropped, so the returned delta is exactly the
    symmetric difference the database underwent.
    """

    inserted: FrozenSet[Atom] = frozenset()
    deleted: FrozenSet[Atom] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "inserted", frozenset(self.inserted))
        object.__setattr__(self, "deleted", frozenset(self.deleted))
        for fact in self.inserted | self.deleted:
            if not isinstance(fact, Atom) or not fact.is_fact():
                raise ValueError(f"{fact} is not a ground fact")
        overlap = self.inserted & self.deleted
        if overlap:
            names = ", ".join(sorted(map(str, overlap)))
            raise ValueError(f"delta both inserts and deletes: {names}")

    @classmethod
    def insert(cls, *facts: Atom) -> "Delta":
        """A pure-insertion delta."""
        return cls(inserted=frozenset(facts))

    @classmethod
    def delete(cls, *facts: Atom) -> "Delta":
        """A pure-deletion delta."""
        return cls(deleted=frozenset(facts))

    def is_empty(self) -> bool:
        """Whether the delta changes nothing."""
        return not self.inserted and not self.deleted

    def __len__(self) -> int:
        return len(self.inserted) + len(self.deleted)

    def __bool__(self) -> bool:
        return not self.is_empty()

    def inverted(self) -> "Delta":
        """The delta that undoes this one (insertions and deletions swap)."""
        return Delta(inserted=self.deleted, deleted=self.inserted)

    def facts(self) -> FrozenSet[Atom]:
        """Every fact the delta mentions, inserted or deleted."""
        return self.inserted | self.deleted

    def __str__(self) -> str:
        plus = " ".join(sorted(f"+{f}" for f in self.inserted))
        minus = " ".join(sorted(f"-{f}" for f in self.deleted))
        return " ".join(part for part in (plus, minus) if part) or "(empty delta)"


class IntRelation:
    """Columnar int-tuple storage for one predicate (compiled join plans).

    The compiled engine (:mod:`repro.datalog.plans`) interns constants to
    dense ints and evaluates rule bodies over these relations instead of
    :class:`Atom` sets: a row is a plain tuple of ints, so hashing and
    equality in the join inner loop never touch Python objects heavier
    than small tuples.

    Rows live in an insertion-ordered dict (used as an ordered set), and
    hash indexes are materialized **per binding pattern** on demand: the
    first probe with bound positions ``(0, 2)`` builds a ``key -> rows``
    index for that pattern, and every later :meth:`add` / :meth:`discard`
    maintains all materialized patterns incrementally — so a join plan
    reused across semi-naive rounds pays the index build once, not once
    per round.
    """

    __slots__ = ("rows", "_indexes")

    def __init__(self, rows: Iterable[Tuple[int, ...]] = ()):
        #: Ordered set of rows (a dict with ``None`` values); iterate it
        #: directly in join inner loops.
        self.rows: Dict[Tuple[int, ...], None] = dict.fromkeys(rows)
        # binding pattern (sorted position tuple) -> {key tuple -> [rows]}
        self._indexes: Dict[
            Tuple[int, ...], Dict[Tuple[int, ...], List[Tuple[int, ...]]]
        ] = {}

    def __len__(self) -> int:
        return len(self.rows)

    def __contains__(self, row: object) -> bool:
        return row in self.rows

    def __iter__(self) -> Iterator[Tuple[int, ...]]:
        return iter(self.rows)

    def add(self, row: Tuple[int, ...]) -> bool:
        """Insert *row*; maintain every materialized pattern index."""
        if row in self.rows:
            return False
        self.rows[row] = None
        for positions, index in self._indexes.items():
            key = tuple(row[p] for p in positions)
            bucket = index.get(key)
            if bucket is None:
                index[key] = [row]
            else:
                bucket.append(row)
        return True

    def discard(self, row: Tuple[int, ...]) -> bool:
        """Remove *row* if present; empty index buckets are deleted."""
        if row not in self.rows:
            return False
        del self.rows[row]
        for positions, index in self._indexes.items():
            key = tuple(row[p] for p in positions)
            bucket = index.get(key)
            if bucket is None:
                continue
            bucket.remove(row)
            if not bucket:
                del index[key]
        return True

    def index_for(
        self, positions: Tuple[int, ...]
    ) -> Dict[Tuple[int, ...], List[Tuple[int, ...]]]:
        """The ``key -> rows`` hash index for one binding pattern.

        Built on first request (O(rows)), then kept up to date by
        :meth:`add` / :meth:`discard` for the lifetime of the relation.
        """
        index = self._indexes.get(positions)
        if index is None:
            index = {}
            for row in self.rows:
                key = tuple(row[p] for p in positions)
                bucket = index.get(key)
                if bucket is None:
                    index[key] = [row]
                else:
                    bucket.append(row)
            self._indexes[positions] = index
        return index

    def copy(self) -> "IntRelation":
        """A copy sharing row tuples but not the pattern indexes."""
        return IntRelation(self.rows)


class Database:
    """A mutable set of facts with secondary indexes.

    The database supports the set protocol (``in``, ``len``, iteration) plus
    predicate-level access used by the evaluation engine.
    """

    __slots__ = ("_facts", "_by_pred", "_index")

    def __init__(self, facts: Iterable[Atom] = ()):
        self._facts: Set[Atom] = set()
        self._by_pred: Dict[str, Set[Atom]] = {}
        # (pred, position, value) -> set of facts
        self._index: Dict[Tuple[str, int, object], Set[Atom]] = {}
        for fact in facts:
            self.add(fact)

    # -- mutation ----------------------------------------------------------

    def add(self, fact: Atom) -> bool:
        """Insert *fact*; return ``True`` iff it was not already present."""
        if not fact.is_fact():
            raise ValueError(f"{fact} is not ground")
        if fact in self._facts:
            return False
        self._facts.add(fact)
        self._by_pred.setdefault(fact.pred, set()).add(fact)
        for pos, value in enumerate(fact.args):
            self._index.setdefault((fact.pred, pos, value), set()).add(fact)
        return True

    def update(self, facts: Iterable[Atom]) -> int:
        """Insert many facts; return how many were new."""
        added = 0
        for fact in facts:
            if self.add(fact):
                added += 1
        return added

    def discard(self, fact: Atom) -> bool:
        """Remove *fact* if present; return ``True`` iff it was present.

        Emptied index buckets are deleted, not kept around: a database
        under churn (add/discard cycles over a changing value domain)
        must not grow without bound in ``_by_pred`` / ``_index`` keys.
        """
        if fact not in self._facts:
            return False
        self._facts.discard(fact)
        bucket = self._by_pred[fact.pred]
        bucket.discard(fact)
        if not bucket:
            del self._by_pred[fact.pred]
        for pos, value in enumerate(fact.args):
            key = (fact.pred, pos, value)
            entry = self._index[key]
            entry.discard(fact)
            if not entry:
                del self._index[key]
        return True

    def apply(self, delta: Delta) -> Delta:
        """Apply *delta* and return the *effective* delta.

        The effective delta keeps only the insertions that were actually
        new and the deletions that actually removed something, so callers
        (notably incremental view maintenance) never have to reason about
        redundant operations. Deletions are applied first, but since the
        two sets are disjoint the order is unobservable.
        """
        deleted = frozenset(fact for fact in delta.deleted if self.discard(fact))
        inserted = frozenset(fact for fact in delta.inserted if self.add(fact))
        return Delta(inserted=inserted, deleted=deleted)

    # -- pickling ----------------------------------------------------------

    def __reduce__(self):
        # Ship only the fact set; the per-predicate and per-position
        # indexes are derived data, roughly tripling the payload if
        # pickled. Rebuilding them on load is linear in the facts — the
        # right trade for snapshots crossing process boundaries.
        return (Database, (tuple(self._facts),))

    # -- set protocol -------------------------------------------------------

    def __contains__(self, fact: object) -> bool:
        return fact in self._facts

    def __len__(self) -> int:
        return len(self._facts)

    def __iter__(self) -> Iterator[Atom]:
        return iter(self._facts)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Database):
            return self._facts == other._facts
        if isinstance(other, (set, frozenset)):
            return self._facts == other
        return NotImplemented

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __repr__(self) -> str:
        return f"Database({sorted(map(str, self._facts))})"

    # -- access --------------------------------------------------------------

    def facts(self) -> FrozenSet[Atom]:
        """An immutable snapshot of all facts."""
        return frozenset(self._facts)

    def relation(self, pred: str) -> FrozenSet[Atom]:
        """All facts of predicate *pred* (empty if unknown)."""
        return frozenset(self._by_pred.get(pred, ()))

    def predicates(self) -> FrozenSet[str]:
        """All predicates with at least one fact."""
        return frozenset(p for p, facts in self._by_pred.items() if facts)

    def active_domain(self) -> FrozenSet:
        """``dom(D)``: the set of constants occurring in the database."""
        domain = set()
        for fact in self._facts:
            domain.update(fact.args)
        return frozenset(domain)

    def matching(self, pred: str, bindings: Dict[int, object]) -> Iterator[Atom]:
        """Iterate over facts of *pred* agreeing with *bindings*.

        *bindings* maps argument positions to required constant values. The
        most selective index entry is used as the scan seed.

        The iterator walks a snapshot of the chosen index bucket, so the
        database may be mutated mid-iteration without corrupting the scan
        (mutations are simply not reflected in an iteration already in
        flight; previously the raw index set was aliased and a concurrent
        ``add``/``discard`` raised ``RuntimeError`` or skipped facts).
        """
        relation = self._by_pred.get(pred)
        if not relation:
            return iter(())
        if not bindings:
            return iter(tuple(relation))
        best: Optional[Set[Atom]] = None
        for pos, value in bindings.items():
            candidates = self._index.get((pred, pos, value))
            if not candidates:
                return iter(())
            if best is None or len(candidates) < len(best):
                best = candidates
        assert best is not None
        if len(bindings) == 1:
            return iter(tuple(best))
        return (
            fact
            for fact in tuple(best)
            if all(fact.args[pos] == value for pos, value in bindings.items())
        )

    def count(self, pred: str) -> int:
        """Number of facts of predicate *pred*."""
        return len(self._by_pred.get(pred, ()))

    def position_cardinalities(self, pred: str) -> Tuple[int, ...]:
        """Distinct-value count per argument position of *pred*.

        These are the bucket-size statistics the join planner
        (:mod:`repro.datalog.plans`) uses to estimate how many rows an
        index probe on a given position will return: a relation of ``n``
        facts whose position ``p`` holds ``c`` distinct values yields
        ``~n/c`` rows per probe. Returns ``()`` for an unknown or empty
        predicate.
        """
        facts = self._by_pred.get(pred)
        if not facts:
            return ()
        arity = len(next(iter(facts)).args)
        distinct: List[Set[object]] = [set() for _ in range(arity)]
        for fact in facts:
            for pos, value in enumerate(fact.args):
                distinct[pos].add(value)
        return tuple(len(values) for values in distinct)

    def restrict(self, predicates: Iterable[str]) -> "Database":
        """A new database containing only the given predicates' facts."""
        wanted = set(predicates)
        return Database(f for f in self._facts if f.pred in wanted)

    def copy(self) -> "Database":
        """An independent copy sharing the (immutable) facts.

        Copies the fact set and both indexes directly: the facts were
        checked when they first went in, so :meth:`add` is not re-run.
        """
        dup = Database()
        dup._facts = set(self._facts)
        dup._by_pred = {pred: set(facts) for pred, facts in self._by_pred.items()}
        dup._index = {key: set(facts) for key, facts in self._index.items()}
        return dup

    def subset(self, facts: Iterable[Atom]) -> "Database":
        """A new database from *facts*, verifying they all belong to self."""
        sub = Database()
        for fact in facts:
            if fact not in self._facts:
                raise ValueError(f"{fact} is not a fact of the database")
            sub.add(fact)
        return sub


def check_over_schema(database: Database, predicates: Iterable[str]) -> None:
    """Raise if *database* mentions predicates outside *predicates*.

    The decision problems of the paper require the input database to be over
    ``edb(Sigma)``; deciders call this to validate their inputs.
    """
    allowed = set(predicates)
    offenders = sorted(p for p in database.predicates() if p not in allowed)
    if offenders:
        raise ValueError(
            "database mentions predicates outside the expected schema: "
            + ", ".join(offenders)
        )
