"""Brute-force why-provenance oracles.

These enumerators compute the exact why-provenance families of Section 3 /
Sections 4.3, 5 and Appendices B, C by exhaustive search over the downward
closure. They are exponential in the worst case (the problems are
NP-complete, Theorems 3, 14, 19, 27) and exist to serve as ground truth for
the SAT-based pipeline and the FO rewriting on small inputs, and as the
arbitrary-proof-tree decision fallback.

All functions return a ``frozenset`` of ``frozenset`` of facts.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..datalog.atoms import Atom
from ..datalog.database import Database
from ..datalog.engine import evaluate
from ..datalog.program import DatalogQuery, Program
from .grounding import (
    DownwardClosure,
    FactNotDerivable,
    downward_closure,
    min_dag_depth,
)
from .proof_dag import CompressedDAG

SupportFamily = FrozenSet[FrozenSet[Atom]]


class EnumerationBudgetExceeded(RuntimeError):
    """Raised when an oracle would exceed its configured work budget."""


def _closure_or_empty(
    query: DatalogQuery,
    database: Database,
    tup: Tuple,
) -> Optional[DownwardClosure]:
    fact = query.answer_atom(tup)
    try:
        return downward_closure(query.program, database, fact)
    except FactNotDerivable:
        return None


def enumerate_why(
    query: DatalogQuery,
    database: Database,
    tup: Tuple,
    max_supports_per_fact: int = 100_000,
) -> SupportFamily:
    """``why(t, D, Q)``: supports of *arbitrary* proof trees (Definition 2).

    Computed as the least fixpoint of the "sets of supports" operator over
    the downward closure: a database fact supports itself, and a derived
    fact's supports are all unions of one support per hyperedge target.
    Cycles in the closure (facts deriving themselves through other facts)
    are handled by iterating to a fixpoint, exactly mirroring how arbitrary
    proof trees may rederive facts.
    """
    closure = _closure_or_empty(query, database, tup)
    if closure is None:
        return frozenset()
    supports: Dict[Atom, Set[FrozenSet[Atom]]] = {}
    for fact in closure.nodes:
        supports[fact] = {frozenset((fact,))} if fact in database else set()
    changed = True
    while changed:
        changed = False
        for head, instances in closure.instances_by_head.items():
            for instance in instances:
                # One support per body *occurrence* (multiset semantics):
                # repeated body facts may be proven by different subtrees.
                occurrence_families = [supports[t] for t in instance.body]
                if any(not family for family in occurrence_families):
                    continue
                for combo in itertools.product(*occurrence_families):
                    union = frozenset().union(*combo)
                    if union not in supports[head]:
                        supports[head].add(union)
                        changed = True
                        if len(supports[head]) > max_supports_per_fact:
                            raise EnumerationBudgetExceeded(
                                f"more than {max_supports_per_fact} supports for {head}"
                            )
    return frozenset(supports[closure.root])


def enumerate_why_unambiguous(
    query: DatalogQuery,
    database: Database,
    tup: Tuple,
    max_dags: int = 1_000_000,
) -> SupportFamily:
    """``whyUN(t, D, Q)``: supports of unambiguous proof trees (Def. 13).

    By Proposition 41 these are exactly the supports of compressed DAGs, so
    the oracle enumerates compressed DAGs: starting from the root it assigns
    to every reachable intensional fact one of its hyperedges (backtracking
    over all combinations), then keeps the acyclic assignments.
    """
    closure = _closure_or_empty(query, database, tup)
    if closure is None:
        return frozenset()
    root = closure.root
    results: Set[FrozenSet[Atom]] = set()
    edges_of = closure.hyperedges_by_head
    explored = [0]

    def expand(choice: Dict[Atom, FrozenSet[Atom]], pending: List[Atom]) -> None:
        explored[0] += 1
        if explored[0] > max_dags:
            raise EnumerationBudgetExceeded(f"more than {max_dags} partial DAGs explored")
        while pending:
            fact = pending[-1]
            if fact in choice or fact in database:
                pending.pop()
                continue
            break
        else:
            dag = CompressedDAG(root, choice)
            if dag.is_acyclic():
                results.add(dag.support())
            return
        fact = pending.pop()
        options = edges_of.get(fact, ())
        if not options:
            # Intensional fact with no hyperedge cannot be proven: dead end.
            pending.append(fact)
            return
        for edge in options:
            choice[fact] = edge.targets
            new_targets = [
                t for t in edge.targets if t not in choice and t not in database
            ]
            expand(choice, pending + new_targets)
            del choice[fact]
        pending.append(fact)

    if root in database:
        # Root is extensional: its only proof tree is a single leaf — but the
        # paper's queries have intensional roots, so this is a degenerate case.
        return frozenset({frozenset((root,))})
    expand({}, [root])
    return frozenset(results)


class _SupportSearch:
    """Memoised recursive search for supports over a closure's rule instances.

    The recursion runs through methods rather than through a nested
    function that calls itself: such a function reaches itself through
    its own closure cell, a reference cycle that keeps it and the whole
    memo alive until a full collection of the cyclic garbage collector.
    *max_supports* bounds the support combinations explored (``None``:
    unbounded).
    """

    def __init__(
        self,
        database: Database,
        instances_of: Dict,
        max_supports: Optional[int] = None,
    ):
        self.database = database
        self.instances_of = instances_of
        self.max_supports = max_supports
        self.cache: Dict[Tuple, SupportFamily] = {}
        self.explored = 0

    def _combine(self, occurrence_families: List[SupportFamily], out: Set) -> None:
        """Add one support per combination of the body's families to *out*."""
        if any(not family for family in occurrence_families):
            return
        for combo in itertools.product(*occurrence_families):
            out.add(frozenset().union(*combo))
            self.explored += 1
            if self.max_supports is not None and self.explored > self.max_supports:
                raise EnumerationBudgetExceeded(
                    f"more than {self.max_supports} support combinations explored"
                )

    def non_recursive(self, fact: Atom, ancestors: FrozenSet[Atom]) -> SupportFamily:
        """Supports of proof trees of *fact* that repeat no fact on a path."""
        if fact in self.database:
            return frozenset({frozenset((fact,))})
        key = (fact, ancestors)
        if key in self.cache:
            return self.cache[key]
        out: Set[FrozenSet[Atom]] = set()
        below = ancestors | {fact}
        for instance in self.instances_of.get(fact, ()):
            if any(t in below for t in instance.body):
                continue
            self._combine([self.non_recursive(t, below) for t in instance.body], out)
        result = frozenset(out)
        self.cache[key] = result
        return result

    def within_depth(self, fact: Atom, depth_budget: int) -> SupportFamily:
        """Supports of proof trees of *fact* with depth at most *depth_budget*."""
        key = (fact, depth_budget)
        if key in self.cache:
            return self.cache[key]
        out: Set[FrozenSet[Atom]] = set()
        if fact in self.database:
            out.add(frozenset((fact,)))
        if depth_budget >= 1:
            for instance in self.instances_of.get(fact, ()):
                self._combine(
                    [self.within_depth(t, depth_budget - 1) for t in instance.body], out
                )
        result = frozenset(out)
        self.cache[key] = result
        return result


def enumerate_why_nonrecursive(
    query: DatalogQuery,
    database: Database,
    tup: Tuple,
    max_supports: int = 1_000_000,
) -> SupportFamily:
    """``whyNR(t, D, Q)``: supports of non-recursive proof trees (Def. 18).

    Recursive descent over the downward closure with the set of facts on
    the current path excluded from reuse, so that no root-to-leaf path
    carries a repeated fact.
    """
    closure = _closure_or_empty(query, database, tup)
    if closure is None:
        return frozenset()
    search = _SupportSearch(database, closure.instances_by_head, max_supports)
    return search.non_recursive(closure.root, frozenset())


def enumerate_why_minimal_depth(
    query: DatalogQuery,
    database: Database,
    tup: Tuple,
    max_supports: int = 1_000_000,
) -> SupportFamily:
    """``whyMD(t, D, Q)``: supports of minimal-depth proof trees (Def. 26).

    A proof tree of ``alpha`` has depth at least ``rank(alpha)`` (Prop. 28),
    so trees with depth budget ``rank(root)`` are exactly the minimal-depth
    trees; supports are collected by depth-bounded recursion (no cycles can
    occur because the budget strictly decreases).
    """
    closure = _closure_or_empty(query, database, tup)
    if closure is None:
        return frozenset()
    evaluation = evaluate(query.program, database)
    budget = evaluation.ranks[closure.root]
    search = _SupportSearch(database, closure.instances_by_head, max_supports)
    return search.within_depth(closure.root, budget)


def why_families(
    query: DatalogQuery,
    database: Database,
    tup: Tuple,
) -> Dict[str, SupportFamily]:
    """All four families at once (testing convenience)."""
    return {
        "why": enumerate_why(query, database, tup),
        "whyUN": enumerate_why_unambiguous(query, database, tup),
        "whyNR": enumerate_why_nonrecursive(query, database, tup),
        "whyMD": enumerate_why_minimal_depth(query, database, tup),
    }
