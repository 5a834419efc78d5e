"""Datalog programs and queries.

A program is a finite set of rules (Section 2). The module derives the
extensional / intensional schema split, the predicate dependency graph, and
the two syntactic classes the paper studies:

* **linear** (``LDat``): every rule body mentions at most one intensional
  predicate — recursion is at most linear;
* **non-recursive** (``NRDat``): the predicate graph is acyclic.

A query ``Q = (Sigma, R)`` pairs a program with an answer predicate.
"""

from __future__ import annotations

from typing import (
    Dict, FrozenSet, Hashable, Iterable, List, Mapping, Optional, Sequence, Set, Tuple,
)

from .atoms import Atom
from .rules import Rule


class Program:
    """An immutable Datalog program (finite set of rules).

    The constructor keeps the rules in the given order (deduplicated), which
    matters only for reproducible iteration; program semantics is order
    independent.
    """

    __slots__ = ("rules", "_idb", "_edb", "_arities", "_rules_by_head")

    def __init__(self, rules: Iterable[Rule]):
        seen: Set[Rule] = set()
        ordered: List[Rule] = []
        for rule in rules:
            if rule not in seen:
                seen.add(rule)
                ordered.append(rule)
        if not ordered:
            raise ValueError("a Datalog program must contain at least one rule")
        object.__setattr__(self, "rules", tuple(ordered))

        idb = {rule.head.pred for rule in ordered}
        all_preds: Set[str] = set()
        arities: Dict[str, int] = {}
        for rule in ordered:
            for atom in (rule.head, *rule.body):
                all_preds.add(atom.pred)
                known = arities.get(atom.pred)
                if known is None:
                    arities[atom.pred] = atom.arity
                elif known != atom.arity:
                    raise ValueError(
                        f"predicate {atom.pred} used with arities {known} and {atom.arity}"
                    )
        object.__setattr__(self, "_idb", frozenset(idb))
        object.__setattr__(self, "_edb", frozenset(all_preds - idb))
        object.__setattr__(self, "_arities", dict(arities))

        by_head: Dict[str, List[Rule]] = {}
        for rule in ordered:
            by_head.setdefault(rule.head.pred, []).append(rule)
        object.__setattr__(self, "_rules_by_head", {p: tuple(rs) for p, rs in by_head.items()})

    def __setattr__(self, key, value):
        raise AttributeError("Program is immutable")

    def __reduce__(self):
        # Pickle only the rules; the schema split, arities, and head index
        # are re-derived by the constructor on load.
        return (Program, (self.rules,))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Program) and set(self.rules) == set(other.rules)

    def __ne__(self, other: object) -> bool:
        return not self.__eq__(other)

    def __hash__(self) -> int:
        return hash(frozenset(self.rules))

    def __iter__(self):
        return iter(self.rules)

    def __len__(self) -> int:
        return len(self.rules)

    def __str__(self) -> str:
        return "\n".join(str(rule) for rule in self.rules)

    def __repr__(self) -> str:
        return f"Program({list(self.rules)!r})"

    # -- schema -----------------------------------------------------------

    @property
    def idb(self) -> FrozenSet[str]:
        """The intensional schema ``idb(Sigma)``: predicates with a rule head."""
        return self._idb

    @property
    def edb(self) -> FrozenSet[str]:
        """The extensional schema ``edb(Sigma)``: predicates never in a head."""
        return self._edb

    @property
    def schema(self) -> FrozenSet[str]:
        """``sch(Sigma) = edb(Sigma) | idb(Sigma)``."""
        return self._idb | self._edb

    def arity(self, pred: str) -> int:
        """The arity of a predicate of the program's schema."""
        try:
            return self._arities[pred]
        except KeyError:
            raise KeyError(f"predicate {pred} does not occur in the program") from None

    def arities(self) -> Dict[str, int]:
        """A copy of the predicate -> arity map."""
        return dict(self._arities)

    def rules_for(self, pred: str) -> Tuple[Rule, ...]:
        """The rules whose head predicate is *pred* (possibly empty)."""
        return self._rules_by_head.get(pred, ())

    def max_body_length(self) -> int:
        """The maximal number of body atoms over all rules (the ``b`` bound)."""
        return max(len(rule.body) for rule in self.rules)

    def max_arity(self) -> int:
        """The maximal predicate arity (the ``omega`` bound of App. D.3)."""
        return max(self._arities.values())

    # -- predicate graph and syntactic classes ------------------------------

    def predicate_graph(self) -> Dict[str, Set[str]]:
        """The predicate dependency graph.

        There is an edge ``R -> P`` iff some rule has head predicate ``P``
        and ``R`` in its body (Section 2). Returned as adjacency sets.
        """
        graph: Dict[str, Set[str]] = {p: set() for p in self.schema}
        for rule in self.rules:
            for atom in rule.body:
                graph[atom.pred].add(rule.head.pred)
        return graph

    def is_linear(self) -> bool:
        """``True`` iff every rule body has at most one intensional atom."""
        for rule in self.rules:
            intensional = sum(1 for atom in rule.body if atom.pred in self._idb)
            if intensional > 1:
                return False
        return True

    def is_non_recursive(self) -> bool:
        """``True`` iff the predicate graph is acyclic."""
        return self._topological_order() is not None

    def is_recursive(self) -> bool:
        """``True`` iff the predicate graph has a cycle."""
        return not self.is_non_recursive()

    def _topological_order(self) -> Optional[List[str]]:
        graph = self.predicate_graph()
        indegree = {p: 0 for p in graph}
        for src, targets in graph.items():
            for tgt in targets:
                if tgt != src:
                    indegree[tgt] += 1
                else:
                    return None  # self-loop
        frontier = [p for p, d in indegree.items() if d == 0]
        order: List[str] = []
        while frontier:
            node = frontier.pop()
            order.append(node)
            for tgt in graph[node]:
                indegree[tgt] -= 1
                if indegree[tgt] == 0:
                    frontier.append(tgt)
        if len(order) != len(graph):
            return None
        return order

    def stratification(self) -> List[Set[str]]:
        """Group predicates into strata respecting the predicate graph.

        For non-recursive programs this is a topological layering; for
        recursive programs, strongly connected components are collapsed
        (Tarjan) and layered. Used by the engine to evaluate predicates in
        dependency order where possible.
        """
        graph = self.predicate_graph()
        sccs = strongly_connected_components(
            {pred: sorted(targets) for pred, targets in graph.items()}
        )
        comp_of: Dict[str, int] = {}
        for idx, comp in enumerate(sccs):
            for pred in comp:
                comp_of[pred] = idx
        comp_graph: Dict[int, Set[int]] = {i: set() for i in range(len(sccs))}
        for src, targets in graph.items():
            for tgt in targets:
                if comp_of[src] != comp_of[tgt]:
                    comp_graph[comp_of[src]].add(comp_of[tgt])
        level: Dict[int, int] = {}

        def depth(i: int) -> int:
            if i in level:
                return level[i]
            level[i] = 0  # placeholder against (impossible) cycles
            preds = [j for j in comp_graph if i in comp_graph[j]]
            level[i] = 1 + max((depth(j) for j in preds), default=-1)
            return level[i]

        for i in range(len(sccs)):
            depth(i)
        n_levels = max(level.values()) + 1 if level else 0
        strata: List[Set[str]] = [set() for _ in range(n_levels)]
        for idx, comp in enumerate(sccs):
            strata[level[idx]] |= comp
        return strata

    def classify(self) -> str:
        """Return the paper's class name: ``NRDat``, ``LDat``, or ``Dat``."""
        if self.is_non_recursive():
            return "NRDat"
        if self.is_linear():
            return "LDat"
        return "Dat"


def strongly_connected_components(
    successors: Mapping[Hashable, Sequence[Hashable]],
) -> List[Set[Hashable]]:
    """Tarjan's strongly connected components, iteratively (no recursion).

    *successors* maps every node to its successors, in the order they are
    visited; each successor must itself be a key. Linear in nodes plus
    arcs. Components come out in reverse topological order.
    """
    index: Dict[Hashable, int] = {}
    lowlink: Dict[Hashable, int] = {}
    on_stack: Set[Hashable] = set()
    stack: List[Hashable] = []
    sccs: List[Set[Hashable]] = []
    counter = 0

    for root in successors:
        if root in index:
            continue
        work = [(root, iter(successors[root]))]
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for nxt in it:
                if nxt not in index:
                    index[nxt] = lowlink[nxt] = counter
                    counter += 1
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(successors[nxt])))
                    advanced = True
                    break
                if nxt in on_stack:
                    lowlink[node] = min(lowlink[node], index[nxt])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                comp: Set[Hashable] = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    comp.add(member)
                    if member == node:
                        break
                sccs.append(comp)
    return sccs


class DatalogQuery:
    """A Datalog query ``Q = (Sigma, R)`` (Section 2).

    Parameters
    ----------
    program:
        The Datalog program ``Sigma``.
    answer_predicate:
        The intensional predicate ``R`` whose tuples are the answers.
    """

    __slots__ = ("program", "answer_predicate")

    def __init__(self, program: Program, answer_predicate: str):
        if answer_predicate not in program.idb:
            raise ValueError(
                f"answer predicate {answer_predicate} must be intensional in the program"
            )
        object.__setattr__(self, "program", program)
        object.__setattr__(self, "answer_predicate", answer_predicate)

    def __setattr__(self, key, value):
        raise AttributeError("DatalogQuery is immutable")

    def __reduce__(self):
        return (DatalogQuery, (self.program, self.answer_predicate))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, DatalogQuery)
            and self.program == other.program
            and self.answer_predicate == other.answer_predicate
        )

    def __ne__(self, other: object) -> bool:
        return not self.__eq__(other)

    def __hash__(self) -> int:
        return hash((self.program, self.answer_predicate))

    def __repr__(self) -> str:
        return f"DatalogQuery({self.program!r}, {self.answer_predicate!r})"

    @property
    def answer_arity(self) -> int:
        """The arity of the answer predicate."""
        return self.program.arity(self.answer_predicate)

    def is_linear(self) -> bool:
        """Whether the query belongs to ``LDat``."""
        return self.program.is_linear()

    def is_non_recursive(self) -> bool:
        """Whether the query belongs to ``NRDat``."""
        return self.program.is_non_recursive()

    def classify(self) -> str:
        """The paper's class name for this query."""
        return self.program.classify()

    def answer_atom(self, tup: Sequence) -> Atom:
        """Build the fact ``R(t)`` for an answer tuple *tup*."""
        if len(tup) != self.answer_arity:
            raise ValueError(
                f"tuple {tup!r} has length {len(tup)}, expected {self.answer_arity}"
            )
        return Atom(self.answer_predicate, tuple(tup))
