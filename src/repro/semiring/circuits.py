"""Provenance circuits for Datalog.

Deutch, Milo, Roy and Tannen (*Circuits for Datalog provenance*, ICDT
2014 — cited in the paper's introduction) represent the provenance of a
Datalog answer as an arithmetic circuit: a DAG whose internal gates are
semiring ``plus`` and ``times`` and whose inputs are database facts.  The
circuit is built once and can then be *evaluated* in any commutative
semiring, specializing to query answering, counting, cheapest
derivations, lineage, or why-provenance.

Two constructions are provided:

* :func:`circuit_from_closure` — a gate per node of the downward closure;
  only sound when the closure is acyclic (non-recursive programs, or
  recursive programs whose relevant ground instances happen not to form
  cycles), in which case the circuit computes the full least-fixpoint
  provenance.
* :func:`unfolded_circuit` — a gate per ``(fact, height)`` pair up to a
  height budget; sound for every program and every semiring, computing
  the provenance restricted to proof trees of height at most the budget.
  By Lemma 6, a budget polynomial in ``|D|`` already captures every
  support, and for idempotent absorptive semirings the value stabilizes
  once the budget reaches the closure's diameter.

Circuits make sharing explicit: the same sub-derivation feeds every gate
that uses it, which is exactly the compact-proof-DAG phenomenon
(Proposition 5) in semiring clothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..datalog.atoms import Atom
from ..datalog.database import Database
from ..datalog.program import DatalogQuery
from ..provenance.grounding import DownwardClosure, FactNotDerivable, downward_closure
from .semirings import Semiring

#: Gate kinds.
INPUT = "input"
PLUS = "plus"
TIMES = "times"


class CyclicClosure(ValueError):
    """Raised when an acyclic construction meets a cyclic closure."""


@dataclass(frozen=True)
class Gate:
    """One circuit gate.

    ``kind`` is :data:`INPUT`, :data:`PLUS` or :data:`TIMES`; inputs carry
    the database fact they stand for, internal gates carry the indices of
    their children (children always precede their parents, so a single
    left-to-right sweep evaluates the circuit).
    """

    kind: str
    fact: Optional[Atom] = None
    children: Tuple[int, ...] = ()


@dataclass
class Circuit:
    """An arithmetic circuit over database facts.

    Gates are stored in topological order; ``output`` is the index of the
    root gate.  ``evaluate`` folds any semiring over the DAG in one pass.
    """

    gates: List[Gate]
    output: int

    def size(self) -> int:
        """Number of gates of the circuit."""
        return len(self.gates)

    def depth(self) -> int:
        """Longest gate-to-input path (a proxy for parallel eval time)."""
        depths = [0] * len(self.gates)
        for index, gate in enumerate(self.gates):
            if gate.children:
                depths[index] = 1 + max(depths[child] for child in gate.children)
        return depths[self.output]

    def inputs(self) -> List[Atom]:
        """The distinct database facts feeding the circuit."""
        seen = []
        seen_set = set()
        for gate in self.gates:
            if gate.kind == INPUT and gate.fact not in seen_set:
                seen_set.add(gate.fact)
                seen.append(gate.fact)
        return seen

    def evaluate(self, semiring: Semiring, annotate=None):
        """Evaluate the circuit in *semiring*.

        *annotate* maps an input fact to its annotation; the default uses
        the semiring's per-fact tag.
        """
        tag = annotate if annotate is not None else semiring.from_fact
        values: List[object] = [None] * len(self.gates)
        for index, gate in enumerate(self.gates):
            if gate.kind == INPUT:
                values[index] = tag(gate.fact)
            elif gate.kind == PLUS:
                values[index] = semiring.sum(values[child] for child in gate.children)
            elif gate.kind == TIMES:
                values[index] = semiring.product(values[child] for child in gate.children)
            else:  # pragma: no cover - Gate is only built by this module
                raise ValueError(f"unknown gate kind {gate.kind!r}")
        return values[self.output]


class _Builder:
    """Accumulates gates with structural sharing of identical gates."""

    def __init__(self) -> None:
        self.gates: List[Gate] = []
        self._cache: Dict[Tuple, int] = {}

    def _emit(self, gate: Gate) -> int:
        key = (gate.kind, gate.fact, gate.children)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        self.gates.append(gate)
        index = len(self.gates) - 1
        self._cache[key] = index
        return index

    def input(self, fact: Atom) -> int:
        return self._emit(Gate(INPUT, fact=fact))

    def plus(self, children: Sequence[int]) -> int:
        if len(children) == 1:
            return children[0]
        return self._emit(Gate(PLUS, children=tuple(children)))

    def times(self, children: Sequence[int]) -> int:
        if len(children) == 1:
            return children[0]
        return self._emit(Gate(TIMES, children=tuple(children)))


def _closure_topological_order(closure: DownwardClosure) -> List[Atom]:
    """Topological order of closure facts, children first.

    Raises :class:`CyclicClosure` on a derivation cycle. Nodes and
    targets are visited in ``str`` order, so the circuit's gate numbering
    does not depend on the string-hash seed.
    """
    nodes = sorted(closure.nodes, key=str)
    dependents: Dict[Atom, List[Atom]] = {fact: [] for fact in nodes}
    indegree: Dict[Atom, int] = {fact: 0 for fact in nodes}
    for head in nodes:
        edges = closure.hyperedges_by_head.get(head, ())
        targets = sorted({target for edge in edges for target in edge.targets}, key=str)
        indegree[head] = len(targets)
        for target in targets:
            dependents[target].append(head)
    ready = [fact for fact, degree in indegree.items() if degree == 0]
    order: List[Atom] = []
    while ready:
        fact = ready.pop()
        order.append(fact)
        for dependent in dependents[fact]:
            indegree[dependent] -= 1
            if indegree[dependent] == 0:
                ready.append(dependent)
    if len(order) != len(closure.nodes):
        raise CyclicClosure(
            "the downward closure contains a derivation cycle; "
            "use unfolded_circuit with a height budget instead"
        )
    return order


def circuit_from_closure(
    closure: DownwardClosure,
    database: Database,
) -> Circuit:
    """The provenance circuit of an *acyclic* downward closure.

    One ``plus`` gate per derived fact over one ``times`` gate per rule
    instance; inputs are the database facts.  Raises
    :class:`CyclicClosure` when a derivation cycle makes the construction
    unsound (counting or polynomial values would be infinite).
    """
    order = _closure_topological_order(closure)
    builder = _Builder()
    gate_of: Dict[Atom, int] = {}
    for fact in order:
        if fact in database:
            gate_of[fact] = builder.input(fact)
            continue
        instance_gates = []
        for instance in closure.instances_by_head.get(fact, ()):
            children = [gate_of[body_fact] for body_fact in instance.body]
            instance_gates.append(builder.times(children))
        if not instance_gates:
            raise FactNotDerivable(f"{fact} has no deriving instance in the closure")
        gate_of[fact] = builder.plus(instance_gates)
    return Circuit(gates=builder.gates, output=gate_of[closure.root])


def unfolded_circuit(
    closure: DownwardClosure,
    database: Database,
    height: int,
) -> Circuit:
    """A circuit computing provenance over proof trees of height <= *height*.

    Gate ``(fact, h)`` sums, over the rule instances deriving *fact*, the
    product of the bodies' gates at height ``h - 1``; database facts are
    inputs at every height.  The construction is the semiring analogue of
    the stage-bounded immediate-consequence operator, and is well defined
    for cyclic closures because heights strictly decrease.

    Returns a circuit whose value is ``zero`` when the root has no proof
    tree within the budget (e.g. ``height < rank(root)``).
    """
    if height < 0:
        raise ValueError("height budget must be non-negative")
    builder = _Builder()
    memo: Dict[Tuple[Atom, int], Optional[int]] = {}

    def gate(fact: Atom, budget: int) -> Optional[int]:
        """The gate index of *fact* at *budget*, or None if underivable."""
        key = (fact, budget)
        if key in memo:
            return memo[key]
        if fact in database:
            index = builder.input(fact)
            memo[key] = index
            return index
        if budget == 0:
            memo[key] = None
            return None
        instance_gates = []
        for instance in closure.instances_by_head.get(fact, ()):
            children = []
            for body_fact in instance.body:
                child = gate(body_fact, budget - 1)
                if child is None:
                    break
                children.append(child)
            else:
                instance_gates.append(builder.times(children))
        index = builder.plus(instance_gates) if instance_gates else None
        memo[key] = index
        return index

    output = gate(closure.root, height)
    if output is None:
        # No derivation within the budget: a constant-zero circuit, which
        # we express as an empty plus gate.
        builder.gates.append(Gate(PLUS, children=()))
        output = len(builder.gates) - 1
    return Circuit(gates=builder.gates, output=output)


def provenance_circuit(
    query: DatalogQuery,
    database: Database,
    tup: Tuple,
    height: Optional[int] = None,
) -> Circuit:
    """Build the provenance circuit of ``R(t)`` w.r.t. *database* and *query*.

    Without *height* the exact acyclic construction is used (raising
    :class:`CyclicClosure` on recursive derivations); with *height* the
    stage-bounded unfolding is returned instead.
    """
    fact = query.answer_atom(tup)
    closure = downward_closure(query.program, database, fact)
    if height is None:
        return circuit_from_closure(closure, database)
    return unfolded_circuit(closure, database, height)


def count_proof_trees(
    query: DatalogQuery,
    database: Database,
    tup: Tuple,
    height: int,
):
    """The number of proof trees of ``R(t)`` of height at most *height*.

    Example 1 of the paper observes that a recursive fact has infinitely
    many proof trees; this helper makes the observation quantitative (the
    count grows without bound in the height budget).
    """
    from .semirings import CountingSemiring

    fact = query.answer_atom(tup)
    try:
        closure = downward_closure(query.program, database, fact)
    except FactNotDerivable:
        return 0
    circuit = unfolded_circuit(closure, database, height)
    return circuit.evaluate(CountingSemiring())
