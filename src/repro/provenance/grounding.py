"""The graph of rule instances and the downward closure (Definition 42).

The *graph of rule instances* ``gri(D, Sigma)`` is the hypergraph whose
nodes are the facts of the least model and whose hyperedges ``(alpha, T)``
record that ``alpha`` is the head of a ground rule with (deduplicated) body
``T``. The *downward closure* ``down(D, Sigma, alpha)`` keeps only the part
reachable from ``alpha``; it "contains" every compressed DAG of ``alpha``
(Lemma 43) and is the skeleton the SAT encoding searches inside.

Two constructions are provided:

* :func:`downward_closure` — direct: evaluate with the instance trace,
  group it by head into the GRI, restrict to the part reachable from the
  target fact;
* :func:`downward_closure_via_rewriting` — the paper's route (App. D.3):
  build the modified query ``Q-down`` and database ``D-down`` with
  ``CurNode`` / ``HEdge`` predicates encoding atoms as fixed-width tuples,
  evaluate it with the ordinary engine, and decode the ``HEdge`` answers.
  Both constructions are tested to agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from ..datalog.atoms import Atom
from ..datalog.database import Database
from ..datalog.engine import (
    EvaluationResult,
    TraceIndex,
    evaluate,
    ground_instances,
)
from ..datalog.program import DatalogQuery, Program
from ..datalog.rules import GroundRule, Rule


@dataclass(frozen=True)
class HyperEdge:
    """A hyperedge ``(head, targets)`` of the graph of rule instances.

    Following Definition 42, the target set deduplicates the rule body.
    This *set* view is the right granularity for unambiguous proof trees
    (equal labels have equal subtrees, so multiplicities are irrelevant);
    code dealing with arbitrary proof trees must use
    :class:`RuleInstance`, which keeps the body as a multiset.
    """

    head: Atom
    targets: FrozenSet[Atom]

    def __iter__(self):
        yield self.head
        yield self.targets

    def __str__(self) -> str:
        inner = ", ".join(sorted(map(str, self.targets)))
        return f"{self.head} <- {{{inner}}}"


@dataclass(frozen=True)
class RuleInstance:
    """A ground rule firing with its body kept as an (ordered) multiset.

    Arbitrary proof trees may prove two occurrences of the same body fact
    by *different* subtrees (see Example 4), so provenance computations
    over arbitrary / non-recursive / minimal-depth trees must combine one
    support per body *occurrence*, not per distinct body fact.
    """

    head: Atom
    body: Tuple[Atom, ...]

    def multiset_key(self) -> Tuple[Atom, ...]:
        """The body as a canonically ordered multiset (for deduplication)."""
        return tuple(sorted(self.body, key=repr))

    def __str__(self) -> str:
        inner = ", ".join(map(str, self.body))
        return f"{self.head} :- {inner}."


@dataclass
class DownwardClosure:
    """``down(D, Sigma, alpha)``: nodes and hyperedges reachable from a fact.

    Attributes
    ----------
    root:
        The fact whose derivations the closure captures.
    nodes:
        All facts reachable from the root through hyperedges (the root
        included); every node is in the least model.
    hyperedges_by_head:
        ``fact -> tuple of hyperedges`` with that fact as head.
    database_nodes:
        The nodes that are facts of the input database — the candidate
        members of any support, called ``S`` in the blocking-clause
        construction of Section 5.2.
    """

    root: Atom
    nodes: FrozenSet[Atom]
    hyperedges_by_head: Dict[Atom, Tuple[HyperEdge, ...]]
    database_nodes: FrozenSet[Atom]
    instances_by_head: Dict[Atom, Tuple[RuleInstance, ...]] = field(default_factory=dict)

    def hyperedges(self) -> Iterable[HyperEdge]:
        """All hyperedges of the closure."""
        for edges in self.hyperedges_by_head.values():
            yield from edges

    def edge_count(self) -> int:
        """Total number of hyperedges of the closure."""
        return sum(len(edges) for edges in self.hyperedges_by_head.values())

    def intensional_nodes(self) -> Set[Atom]:
        """Nodes that are heads of at least one hyperedge."""
        return {head for head, edges in self.hyperedges_by_head.items() if edges}

    def potential_edges(self) -> Set[Tuple[Atom, Atom]]:
        """All ``(head, target)`` pairs extractable from hyperedges.

        These become the ``z`` edge variables of the SAT encoding.
        """
        pairs: Set[Tuple[Atom, Atom]] = set()
        for edge in self.hyperedges():
            for target in edge.targets:
                pairs.add((edge.head, target))
        return pairs


class FactNotDerivable(ValueError):
    """Raised when the target fact is not in the least model."""


class GriIndex:
    """``gri(D, Sigma)`` indexed by head, lifted and sorted one head at a time.

    The index reads the head map of an instance trace,
    ``(pred, head_row) -> its instance keys`` (see
    :meth:`~repro.datalog.engine.TraceIndex.by_head`), without copying
    it. A head's canonical views — its hyperedges and its rule
    instances, in the order documented on :func:`gri_maps_from_instances`
    — are built the first time someone asks for that head: its keys are
    lifted to ground rules then, and the views cached until
    :meth:`forget` drops them. So a closure pays only for the heads it
    reaches. The head map is the trace's own, which maintenance patches
    in place; an update then only drops the views of the heads its
    instances touch, never regroups the trace.
    """

    __slots__ = ("trace", "rules", "_views")

    def __init__(self, trace: TraceIndex):
        self.trace = trace
        #: ``(pred, head_row)`` -> its instance keys and their numbers in
        #: the trace (a dict used as an insertion-ordered set); a head
        #: without instances has no entry.
        self.rules = trace.by_head()
        #: head -> (hyperedges, instances), canonical, built on first use.
        self._views: Dict[Atom, Tuple[Tuple[HyperEdge, ...], Tuple[RuleInstance, ...]]] = {}

    def forget(self, heads: Iterable[Atom]) -> None:
        """Drop the cached views of *heads*, whose rules just changed."""
        views = self._views
        for head in heads:
            views.pop(head, None)

    def _head_views(
        self, head: Atom
    ) -> Tuple[Tuple[HyperEdge, ...], Tuple[RuleInstance, ...]]:
        """*head*'s canonical ``(hyperedges, instances)``; empty for leaves."""
        view = self._views.get(head)
        if view is None:
            fact = self.trace.find(head)
            head_rules = None if fact is None else self.rules.get(fact)
            if head_rules is None:
                return (), ()
            lift = self.trace.lift
            view = self._views[head] = _canonical_views(
                [lift(number) for number in head_rules.values()]
            )
        return view

    def edges(self, head: Atom) -> Tuple[HyperEdge, ...]:
        """The hyperedges with *head* as head, in canonical order."""
        return self._head_views(head)[0]

    def instances(self, head: Atom) -> Tuple[RuleInstance, ...]:
        """The rule instances with *head* as head, in canonical order."""
        return self._head_views(head)[1]

    def heads(self) -> List[Atom]:
        """Every head of the GRI, in the trace's order."""
        atoms = self.trace.atoms
        return [atoms[fact] for fact in self.rules]

    def edge_map(self) -> Dict[Atom, List[HyperEdge]]:
        """The whole hyperedge view, every head made canonical."""
        return {head: list(self.edges(head)) for head in self.heads()}

    def instance_map(self) -> Dict[Atom, List[RuleInstance]]:
        """The whole rule-instance view, every head made canonical."""
        return {head: list(self.instances(head)) for head in self.heads()}


def gri_maps_from_instances(ground_rules: Iterable[GroundRule]) -> GriIndex:
    """The :class:`GriIndex` of ``gri(D, Sigma)`` for an instance stream.

    Accepts either the recorded trace of ``evaluate(...,
    record_instances=True)`` (a :class:`~repro.datalog.engine.TraceIndex`,
    read in place) or any stream of ground rules such as
    :func:`ground_instances`, which is interned into a trace first; the
    two are interchangeable (the engine records every instance the round
    after its last body fact appears). Cost is ``O(|gri|)`` int-keyed
    dict operations: the trace is grouped by ``(pred, head_row)``, with
    no body re-matching against the model, no ground rule built and no
    sorting until a head is first read.

    Each head's hyperedges are sorted by ``str`` and its rule instances
    by the ``repr`` of their body atoms, and of several multiset-equal
    instances the one with the least such key is kept. So the views —
    and everything derived from them: closures, CNF variable numbering,
    member discovery order — depend only on the *set* of ground
    instances, never on the order the engine happened to fire them. This
    is what lets an incrementally maintained session (see
    :mod:`repro.core.incremental`), which patches its index per head
    instead of rebuilding it, reproduce a cold session bit for bit.

    ``perfbench/launcher.py`` times each GRI build by wrapping this
    module attribute, so callers reach it through the module.
    """
    if not isinstance(ground_rules, TraceIndex):
        ground_rules = TraceIndex.from_ground(ground_rules)
    return GriIndex(ground_rules)


def _canonical_views(
    ground_rules: Iterable[GroundRule],
) -> Tuple[Tuple[HyperEdge, ...], Tuple[RuleInstance, ...]]:
    """One head's deduplicated hyperedges and instances, canonically sorted."""
    edges: Dict[FrozenSet[Atom], HyperEdge] = {}
    instances: Dict[Tuple[Atom, ...], RuleInstance] = {}
    for ground in ground_rules:
        targets = ground.body_set()
        if targets not in edges:
            edges[targets] = HyperEdge(ground.head, targets)
        instance = RuleInstance(ground.head, ground.body)
        key = instance.multiset_key()
        previous = instances.get(key)
        if previous is None or _instance_body_key(instance) < _instance_body_key(previous):
            instances[key] = instance
    return (
        tuple(sorted(edges.values(), key=str)),
        tuple(sorted(instances.values(), key=_instance_body_key)),
    )


def _instance_body_key(instance: RuleInstance) -> Tuple[str, ...]:
    """Canonical sort key for a rule instance: its body atoms as strings."""
    return tuple(map(repr, instance.body))


def _gri_index(program: Program, evaluation: EvaluationResult) -> GriIndex:
    """The GRI of *evaluation*: from its trace, else by re-grounding its model.

    The index shares the trace's head map, grouped on first use; a
    maintained trace is grouped already.
    """
    instances = evaluation.instances
    if instances is None:
        instances = ground_instances(program, evaluation.model)
    return gri_maps_from_instances(instances)


def rule_instance_graph(
    program: Program,
    database: Database,
    evaluation: Optional[EvaluationResult] = None,
) -> Dict[Atom, List[HyperEdge]]:
    """The full graph of rule instances ``gri(D, Sigma)`` (Definition 42).

    Returns the hyperedges grouped by head; the node set is the least model
    (facts of the database have no outgoing hyperedges unless re-derivable,
    which cannot happen since database predicates are extensional).
    """
    if evaluation is None:
        evaluation = evaluate(program, database, record_instances=True)
    return _gri_index(program, evaluation).edge_map()


def downward_closure(
    program: Program,
    database: Database,
    fact: Atom,
    evaluation: Optional[EvaluationResult] = None,
) -> DownwardClosure:
    """Compute ``down(D, Sigma, fact)`` by restricting the GRI to *fact*.

    The GRI comes from the evaluation's instance trace, grouped by head in
    ``O(|gri|)`` (an evaluation without a trace has its model re-grounded
    once); without an *evaluation* the program is evaluated here with
    ``record_instances=True``. Only the heads the closure reaches are
    lifted to ground rules and sorted, so its per-head lists follow the
    canonical order of :func:`gri_maps_from_instances` — the same closure a
    :class:`~repro.core.session.ProvenanceSession`, which keeps one
    :class:`GriIndex` for all its facts, serves for *fact*.

    Raises :class:`FactNotDerivable` if the fact is not in the least model.
    """
    if evaluation is None:
        evaluation = evaluate(program, database, record_instances=True)
    if fact not in evaluation.model:
        raise FactNotDerivable(f"{fact} is not derivable; its closure is empty")
    index = _gri_index(program, evaluation)
    return _restrict_to_reachable(fact, index.edges, database, index.instances)


def _restrict_to_reachable(
    fact: Atom,
    edges_of: Callable[[Atom], Sequence[HyperEdge]],
    database: Database,
    instances_of: Optional[Callable[[Atom], Sequence[RuleInstance]]] = None,
) -> DownwardClosure:
    """The closure of *fact* in the GRI whose per-head lists the callables give."""
    reachable: Set[Atom] = {fact}
    frontier: List[Atom] = [fact]
    while frontier:
        node = frontier.pop()
        for edge in edges_of(node):
            for target in edge.targets:
                if target not in reachable:
                    reachable.add(target)
                    frontier.append(target)
    by_head = {node: tuple(edges_of(node)) for node in reachable}
    db_nodes = frozenset(node for node in reachable if node in database)
    if instances_of is None:
        instance_map: Dict[Atom, Tuple[RuleInstance, ...]] = {}
    else:
        instance_map = {node: tuple(instances_of(node)) for node in reachable}
    return DownwardClosure(
        root=fact,
        nodes=frozenset(reachable),
        hyperedges_by_head=by_head,
        database_nodes=db_nodes,
        instances_by_head=instance_map,
    )


# ---------------------------------------------------------------------------
# The paper's rewriting-based construction (Appendix D.3)
# ---------------------------------------------------------------------------

_PAD = "#pad"          # the paper's star constant for padding
_CUR_NODE = "CurNode"  # current node predicate
_H_EDGE = "HEdge"      # hyperedge predicate


def _pred_marker(pred: str) -> str:
    """The constant ``c_P`` identifying predicate *P* in encoded tuples."""
    return f"#pred:{pred}"


def _encode_atom_terms(atom: Atom, width: int) -> Tuple:
    """``<alpha>``: (c_P, args..., pad...) of fixed length ``width + 1``."""
    padding = (_PAD,) * (width - atom.arity)
    return (_pred_marker(atom.pred), *atom.args, *padding)


def _decode_atom_terms(terms: Sequence, arities: Dict[str, int]) -> Atom:
    marker = terms[0]
    if not (isinstance(marker, str) and marker.startswith("#pred:")):
        raise ValueError(f"not an encoded atom: {terms!r}")
    pred = marker[len("#pred:"):]
    arity = arities[pred]
    return Atom(pred, tuple(terms[1 : 1 + arity]))


def build_rewriting(query: DatalogQuery, fact: Atom) -> Tuple[Program, List[Atom]]:
    """Build the modified query ``Q-down`` rules and the ``D-down`` extras.

    For each rule ``R0(x0) :- R1(x1), ..., Rn(xn)`` of the program, produce

    * ``HEdge(<R0(x0), R1(x1), ..., Rn(xn)>) :- CurNode(<R0(x0)>), body``
    * ``CurNode(<Ri(xi)>) :- CurNode(<R0(x0)>), body`` for each i,

    and seed the database with ``CurNode(<fact>)``. Evaluating the rewritten
    program with the plain engine yields the hyperedges of the downward
    closure as ``HEdge`` facts.
    """
    program = query.program
    width = program.max_arity()
    max_body = program.max_body_length()
    rules: List[Rule] = list(program.rules)
    for rule in program.rules:
        head_terms = _encode_atom_terms(rule.head, width)
        cur_atom = Atom(_CUR_NODE, head_terms)
        encoded_body: List = []
        for atom in rule.body:
            encoded_body.extend(_encode_atom_terms(atom, width))
        pad_slots = (max_body - len(rule.body)) * (width + 1)
        hedge_terms = (*head_terms, *encoded_body, *((_PAD,) * pad_slots))
        rules.append(Rule(Atom(_H_EDGE, hedge_terms), (cur_atom, *rule.body)))
        for atom in rule.body:
            rules.append(
                Rule(
                    Atom(_CUR_NODE, _encode_atom_terms(atom, width)),
                    (cur_atom, *rule.body),
                )
            )
    seed = Atom(_CUR_NODE, _encode_atom_terms(fact, width))
    return Program(rules), [seed]


def downward_closure_via_rewriting(
    query: DatalogQuery,
    database: Database,
    fact: Atom,
) -> DownwardClosure:
    """Compute the downward closure through the App. D.3 rewriting.

    Slower than :func:`downward_closure` (the encoded tuples are wide), but
    faithful to the paper's pipeline where a stock Datalog engine computes
    the closure; used for differential testing.
    """
    program = query.program
    rewritten, extra = build_rewriting(query, fact)
    extended = database.copy()
    for atom in extra:
        extended.add(atom)
    result = evaluate(rewritten, extended)
    if fact not in result.model:
        raise FactNotDerivable(f"{fact} is not derivable; its closure is empty")
    arities = program.arities()
    width = program.max_arity()
    by_head: Dict[Atom, List[HyperEdge]] = {}
    seen: Set[Tuple[Atom, FrozenSet[Atom]]] = set()
    for hedge in result.model.relation(_H_EDGE):
        terms = hedge.args
        head = _decode_atom_terms(terms[: width + 1], arities)
        targets: Set[Atom] = set()
        offset = width + 1
        while offset < len(terms) and terms[offset] != _PAD:
            targets.add(_decode_atom_terms(terms[offset : offset + width + 1], arities))
            offset += width + 1
        key = (head, frozenset(targets))
        if key in seen:
            continue
        seen.add(key)
        by_head.setdefault(head, []).append(HyperEdge(head, frozenset(targets)))
    # Assemble nodes from heads and targets, then re-restrict from the root
    # (CurNode seeding already restricts, but dedupe keeps this cheap).
    return _restrict_to_reachable(fact, lambda node: by_head.get(node, ()), database)


def min_dag_depth(
    program: Program,
    database: Database,
    fact: Atom,
    evaluation: Optional[EvaluationResult] = None,
) -> int:
    """``min-dag-depth(alpha, D, Sigma)`` via ranks (Proposition 28)."""
    if evaluation is None:
        evaluation = evaluate(program, database)
    if fact not in evaluation.ranks:
        raise FactNotDerivable(f"{fact} is not derivable from the database")
    return evaluation.ranks[fact]
