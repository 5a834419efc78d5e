"""Bottom-up evaluation of Datalog programs.

This module is the stand-in for the DLV engine used by the paper: it
computes the least model ``Sigma(D)`` via naive or semi-naive fixpoint
iteration, answers queries, enumerates all ground rule instances over the
model (the raw material of the graph of rule instances, Definition 42), and
records for every fact the *stage* at which the immediate-consequence
operator first derives it. By Lemma 29, that stage ``rank(alpha)`` equals
``min-dag-depth(alpha, D, Sigma)``, the minimal depth of any proof DAG — the
quantity needed for minimal-depth provenance (Appendix C).

:func:`maintain_evaluation` keeps a recorded evaluation exact under
database updates, patching its model, ranks and instance trace in place:
deletions re-rank only the facts whose rank support they reach, and
insertions run delta-semi-naive rounds and then lower ranks from what
they added.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .atoms import Atom
from .database import Database, Delta
from .plans import (
    InstanceKey,
    PlanContext,
    Row,
    RowKey,
    SymbolTable,
    evaluate_seminaive_compiled,
    resolve_engine,
    run_insertion_rounds,
)
from .program import DatalogQuery, Program
from .rules import GroundRule, Rule
from .unify import match_body, match_body_with_delta


@dataclass
class EvaluationResult:
    """Outcome of a fixpoint evaluation.

    Attributes
    ----------
    model:
        The least model ``Sigma(D)`` (extensional facts included).
    ranks:
        ``fact -> stage`` where stage is the first iteration of the
        immediate-consequence operator producing the fact. Extensional
        facts have rank 0. Equals ``min-dag-depth`` (Proposition 28).
    rounds:
        Number of fixpoint rounds executed until saturation.
    derivations:
        Number of (not necessarily new) rule firings, for diagnostics.
    instances:
        When the evaluation ran with ``record_instances=True``: every
        distinct :class:`GroundRule` that fired, i.e. exactly the ground
        instances of :func:`ground_instances` over the final model, but
        captured as a side effect of the fixpoint instead of a second
        matching pass. It is a :class:`TraceIndex`, which keeps each
        instance as an interned key and builds no ground rule for it:
        ``len`` is the instance count and iteration lifts every
        instance to a :class:`GroundRule`. :func:`maintain_evaluation`
        patches the same index in place. ``None`` when recording was off.
    engine:
        Which engine produced the result: ``"interpreted"`` (the generic
        backtracking matcher) or ``"compiled"`` (join plans from
        :mod:`repro.datalog.plans`). Both agree on every other field;
        the trace may differ in order but never as a set.
    plans_compiled / plan_reuses:
        Plan-cache counters of the :class:`~repro.datalog.plans.PlanContext`
        that served the evaluation (zero on the interpreted path): how
        many (rule, delta-position) plans were compiled, and how many
        times a cached plan was reused across rounds / maintenance.
    """

    model: Database
    ranks: Dict[Atom, int]
    rounds: int
    derivations: int = 0
    instances: Optional["TraceIndex"] = None
    engine: str = "interpreted"
    plans_compiled: int = 0
    plan_reuses: int = 0

    def rank(self, fact: Atom) -> int:
        """The stage of *fact*; raises ``KeyError`` if not in the model."""
        return self.ranks[fact]


_NO_USERS: Dict[int, None] = {}


class TraceIndex:
    """An instance trace as interned keys, indexed by head and body fact.

    Each rule instance is kept as its :data:`~repro.datalog.plans.InstanceKey`,
    ``((head_pred, body_preds), head_row, body_rows)``, whose rows are
    ids of :attr:`symbols`, together with the rule that first fired it;
    :attr:`atoms` maps every ``(pred, row)`` the keys name back to its
    :class:`Atom`. No :class:`GroundRule` is built until :meth:`lift`
    asks for one. The compiled engine records its firings' keys as they
    are; the interpreted engine, naive evaluation and
    :func:`ground_instances` streams are interned where they enter
    (:meth:`record`, :meth:`from_ground`).

    An evaluation records the trace flat, in firing order. The first
    reader that needs it by head — a GRI build
    (:func:`~repro.provenance.grounding.gri_maps_from_instances`) or the
    first :func:`maintain_evaluation` — numbers the instances (``keys``
    and ``rules`` hold each instance's key and rule under its number) and
    groups them into :attr:`heads`, ``(pred, head_row) -> {key:
    number}``, a dict used as an insertion-ordered set, which the GRI
    and maintenance share from then on. The first maintenance also
    builds :attr:`bodies` from the keys alone, ``pred -> row -> {number:
    None}`` (the instances with the fact ``(pred, row)`` in their body;
    :meth:`users` reads it), and patches both maps in place: :meth:`add`
    and :meth:`discard` cost the size of one body, and the maintenance
    walks hash instance numbers, not keys.

    ``len`` is the instance count and iteration (which groups the trace)
    lifts every instance, so the index reads as the
    ``Collection[GroundRule]`` that ``EvaluationResult.instances``
    promises.
    """

    __slots__ = (
        "symbols", "atoms", "fired", "keys", "rules", "heads", "bodies", "_free"
    )

    def __init__(
        self,
        symbols: Optional[SymbolTable] = None,
        atoms: Optional[Dict[RowKey, Atom]] = None,
    ):
        self.symbols = SymbolTable() if symbols is None else symbols
        self.atoms: Dict[RowKey, Atom] = {} if atoms is None else atoms
        #: key -> rule in firing order, until the trace is grouped.
        self.fired: Optional[Dict[InstanceKey, Rule]] = {}
        self.keys: List[Optional[InstanceKey]] = []
        self.rules: List[Optional[Rule]] = []
        self.heads: Optional[Dict[RowKey, Dict[InstanceKey, int]]] = None
        self.bodies: Optional[Dict[str, Dict[Row, Dict[int, None]]]] = None
        #: Numbers of discarded instances, reused by :meth:`add`.
        self._free: List[int] = []

    @classmethod
    def from_ground(
        cls, instances: Iterable[GroundRule], symbols: Optional[SymbolTable] = None
    ) -> "TraceIndex":
        """The trace of a :class:`GroundRule` stream, interned into *symbols*."""
        trace = cls(symbols)
        for ground in instances:
            trace.record(ground.rule, ground.head, ground.body)
        return trace

    def row_key(self, atom: Atom) -> RowKey:
        """*atom* as ``(pred, row)``, interned and entered in :attr:`atoms`."""
        intern = self.symbols.intern
        key = (atom.pred, tuple([intern(value) for value in atom.args]))
        self.atoms.setdefault(key, atom)
        return key

    def find(self, atom: Atom) -> Optional[RowKey]:
        """*atom* as ``(pred, row)``, or ``None`` if a constant is new."""
        row = self.symbols.find(atom.args)
        return None if row is None else (atom.pred, row)

    def key_of(self, head: Atom, body: Sequence[Atom]) -> InstanceKey:
        """The key of the instance ``head :- body``, interning its atoms."""
        row_key = self.row_key
        body_keys = [row_key(atom) for atom in body]
        return (
            (head.pred, tuple([pred for pred, _ in body_keys])),
            row_key(head)[1],
            tuple([row for _, row in body_keys]),
        )

    def record(self, rule: Rule, head: Atom, body: Sequence[Atom]) -> None:
        """Record one firing of the flat trace; the first rule to fire it stays."""
        self.fired.setdefault(self.key_of(head, body), rule)

    def by_head(self) -> Dict[RowKey, Dict[InstanceKey, int]]:
        """:attr:`heads`, numbered and grouped from the flat trace on the first call."""
        if self.heads is None:
            self.keys = list(self.fired)
            self.rules = list(self.fired.values())
            heads: Dict[RowKey, Dict[InstanceKey, int]] = {}
            for number, key in enumerate(self.keys):
                head = (key[0][0], key[1])
                group = heads.get(head)
                if group is None:
                    heads[head] = {key: number}
                else:
                    group[key] = number
            self.heads, self.fired = heads, None
        return self.heads

    def index(self) -> None:
        """Group by head and build :attr:`bodies`, once, for maintenance."""
        if self.bodies is None:
            self.by_head()
            self.bodies = {}
            for number, key in enumerate(self.keys):
                self._index_body(number, key)

    def _index_body(self, number: int, key: InstanceKey) -> None:
        bodies = self.bodies
        for pred, row in zip(key[0][1], key[2]):
            by_row = bodies.get(pred)
            if by_row is None:
                by_row = bodies[pred] = {}
            users = by_row.get(row)
            if users is None:
                by_row[row] = {number: None}
            else:
                users[number] = None

    def users(self, fact: RowKey) -> Dict[int, None]:
        """The numbers of the instances with *fact* in their body (indexed trace)."""
        by_row = self.bodies.get(fact[0])
        return _NO_USERS if by_row is None else by_row.get(fact[1], _NO_USERS)

    def add(self, key: InstanceKey, rule: Rule) -> Optional[int]:
        """Record *key* in the indexed trace: its new number, or ``None`` if present."""
        head = (key[0][0], key[1])
        group = self.heads.get(head)
        if group is not None and key in group:
            return None
        if self._free:
            number = self._free.pop()
            self.keys[number], self.rules[number] = key, rule
        else:
            number = len(self.keys)
            self.keys.append(key)
            self.rules.append(rule)
        if group is None:
            self.heads[head] = {key: number}
        else:
            group[key] = number
        self._index_body(number, key)
        return number

    def discard(self, number: int) -> None:
        """Remove instance *number*, which must be in the indexed trace.

        A fact left as the head or in the body of no instance loses its
        entry, so the maps stay the size of the trace under churn.
        """
        key = self.keys[number]
        head = (key[0][0], key[1])
        group = self.heads[head]
        del group[key]
        if not group:
            del self.heads[head]
        self.keys[number] = self.rules[number] = None
        self._free.append(number)
        bodies = self.bodies
        for pred, row in zip(key[0][1], key[2]):
            # An earlier body atom of the same predicate may have emptied
            # and dropped its entry.
            by_row = bodies.get(pred)
            users = None if by_row is None else by_row.get(row)
            if users is not None:
                users.pop(number, None)
                if not users:
                    del by_row[row]
                    if not by_row:
                        del bodies[pred]

    def lift(self, number: int) -> GroundRule:
        """The :class:`GroundRule` of instance *number* (a grouped trace)."""
        (head_pred, body_preds), head_row, body_rows = self.keys[number]
        atoms = self.atoms
        return GroundRule.unchecked(
            self.rules[number],
            atoms[(head_pred, head_row)],
            tuple([atoms[fact] for fact in zip(body_preds, body_rows)]),
        )

    def __len__(self) -> int:
        if self.fired is not None:
            return len(self.fired)
        return len(self.keys) - len(self._free)

    def __iter__(self) -> Iterator[GroundRule]:
        # Grouped first, so the order (heads in first-firing order, each
        # head's instances in firing order) is the same before and after
        # a GRI build groups the trace.
        lift = self.lift
        for group in self.by_head().values():
            for number in group.values():
                yield lift(number)


def evaluate(
    program: Program,
    database: Database,
    method: str = "seminaive",
    record_instances: bool = False,
    engine: Optional[str] = None,
    plan_context: Optional[PlanContext] = None,
) -> EvaluationResult:
    """Compute the least model of *program* over *database*.

    Parameters
    ----------
    method:
        ``"seminaive"`` (default) or ``"naive"``. Both produce identical
        models and identical ranks; naive evaluation exists as an oracle for
        differential testing and as a pedagogical baseline.
    record_instances:
        Capture every ground rule instance the moment it first fires and
        return the trace in ``EvaluationResult.instances``. The recorded
        set equals ``set(ground_instances(program, model))``: semi-naive
        evaluation considers each instance in the round after its
        highest-rank body atom is derived, so nothing is missed. Consumers
        (the GRI, downward closures, :class:`~repro.core.session.ProvenanceSession`)
        can then build provenance structures in ``O(|gri|)`` without
        re-matching rule bodies against the whole model.
    engine:
        ``"compiled"`` (join plans, the default), ``"interpreted"`` (the
        generic matcher, kept as differential oracle), or ``None`` to
        consult the ``REPRO_ENGINE`` environment variable. Only the
        semi-naive method is compiled; ``method="naive"`` always runs
        interpreted, being itself an oracle baseline.
    plan_context:
        A :class:`~repro.datalog.plans.PlanContext` to draw cached plans
        from (and populate); sessions pass their own so plans survive
        across ``update()`` calls. A fresh context is used when omitted.
    """
    if method == "seminaive":
        if resolve_engine(engine) == "compiled":
            return evaluate_seminaive_compiled(
                program, database, record_instances, context=plan_context
            )
        return _evaluate_seminaive(program, database, record_instances)
    if method == "naive":
        return _evaluate_naive(program, database, record_instances)
    raise ValueError(f"unknown evaluation method {method!r}")


def _evaluate_naive(
    program: Program,
    database: Database,
    record_instances: bool = False,
) -> EvaluationResult:
    """Direct iteration of the immediate-consequence operator ``T_Sigma``."""
    model = database.copy()
    ranks: Dict[Atom, int] = {fact: 0 for fact in database}
    derivations = 0
    rounds = 0
    trace = TraceIndex() if record_instances else None
    while True:
        rounds += 1
        new_facts: List[Atom] = []
        for rule in program.rules:
            for subst in match_body(rule.body, model):
                derivations += 1
                head = rule.head.ground(subst)
                if trace is not None:
                    trace.record(rule, head, tuple(a.ground(subst) for a in rule.body))
                if head not in model and head not in ranks:
                    ranks[head] = rounds
                    new_facts.append(head)
        if not new_facts:
            rounds -= 1  # the last round derived nothing
            break
        for fact in new_facts:
            model._insert(fact)
    return EvaluationResult(
        model=model,
        ranks=ranks,
        rounds=rounds,
        derivations=derivations,
        instances=trace,
    )


def _evaluate_seminaive(
    program: Program,
    database: Database,
    record_instances: bool = False,
) -> EvaluationResult:
    """Semi-naive evaluation with per-round deltas.

    Round ``i`` only fires rule instantiations in which at least one
    intensional body atom matches a fact first derived at round ``i - 1``;
    this avoids rediscovering old instantiations while deriving exactly the
    same facts at exactly the same stages as the naive iteration.
    """
    model = database.copy()
    ranks: Dict[Atom, int] = {fact: 0 for fact in database}
    derivations = 0
    trace = TraceIndex() if record_instances else None

    idb = program.idb
    # Split rules: those without intensional body atoms fire only in round 1.
    edb_only_rules: List[Rule] = []
    recursive_rules: List[Tuple[Rule, List[int]]] = []
    for rule in program.rules:
        idb_positions = [i for i, atom in enumerate(rule.body) if atom.pred in idb]
        if idb_positions:
            recursive_rules.append((rule, idb_positions))
        else:
            edb_only_rules.append(rule)

    # The initial database is the round-0 delta. This matters when a fact
    # of an *intensional* predicate is seeded directly in the database (the
    # downward-closure rewriting of App. D.3 seeds ``CurNode``): recursive
    # rules must see those seeds as new facts in round 1.
    delta = database.copy()
    rounds = 0
    first_round = True

    while len(delta):
        next_round = rounds + 1
        new_delta = Database()
        if first_round:
            for rule in edb_only_rules:
                for subst in match_body(rule.body, model):
                    derivations += 1
                    head = rule.head.ground(subst)
                    if trace is not None:
                        trace.record(
                            rule, head, tuple(a.ground(subst) for a in rule.body)
                        )
                    if head not in model and head not in new_delta:
                        ranks[head] = next_round
                        new_delta._insert(head)
            first_round = False
        for rule, idb_positions in recursive_rules:
            for pos in idb_positions:
                if delta.count(rule.body[pos].pred) == 0:
                    continue
                for subst in match_body_with_delta(rule.body, model, delta, pos):
                    derivations += 1
                    head = rule.head.ground(subst)
                    if trace is not None:
                        trace.record(
                            rule, head, tuple(a.ground(subst) for a in rule.body)
                        )
                    if head not in model and head not in new_delta:
                        ranks[head] = next_round
                        new_delta._insert(head)
        if not len(new_delta):
            break
        rounds = next_round
        for fact in new_delta:
            model._insert(fact)
        delta = new_delta
    return EvaluationResult(
        model=model,
        ranks=ranks,
        rounds=rounds,
        derivations=derivations,
        instances=trace,
    )


# ---------------------------------------------------------------------------
# Incremental maintenance of a recorded evaluation
# ---------------------------------------------------------------------------


@dataclass
class MaintenanceResult:
    """Outcome of incrementally maintaining an evaluation under a delta.

    Attributes
    ----------
    evaluation:
        The evaluation that was maintained, patched in place: its model,
        ranks, rounds and instance set agree *exactly* with a from-scratch
        evaluation over the updated database. Its ``instances`` is the
        :class:`TraceIndex` that the maintenance patched.
    added_facts / removed_facts:
        The difference between the old and new least models (extensional
        facts included).
    added_instances / removed_instances:
        The ground rule instances that entered / left the trace, lifted
        from their keys (no other instance is lifted) — the raw material
        for cache invalidation: a downward closure can only change if one
        of these instances' heads lies inside it.
    cone / raised:
        Deletion diagnostics: how many facts the rank-supported cone of
        the deleted facts held (the only facts a deletion can re-rank or
        remove), and how many of those stayed in the model at a higher
        rank.
    """

    evaluation: EvaluationResult
    added_facts: FrozenSet[Atom] = frozenset()
    removed_facts: FrozenSet[Atom] = frozenset()
    added_instances: Tuple[GroundRule, ...] = ()
    removed_instances: Tuple[GroundRule, ...] = ()
    cone: int = 0
    raised: int = 0

    def changed(self) -> bool:
        """Whether the maintenance changed the model or the trace."""
        return bool(
            self.added_facts
            or self.removed_facts
            or self.added_instances
            or self.removed_instances
        )


def ranks_from_instances(
    database: Database,
    instances: Iterable[GroundRule],
) -> Dict[Atom, int]:
    """Exact ranks (= min-dag-depth, Prop. 28) from a full instance trace.

    ``rank(alpha) = 0`` for database facts, else ``1 + min`` over the
    instances with head ``alpha`` of the max body rank — the fixpoint
    characterization of the stage at which the immediate-consequence
    operator first derives each fact. Computed by a level-order sweep of
    the instance hypergraph in ``O(sum of body sizes)``. Instances whose
    bodies are not fully derivable are ignored, matching :func:`evaluate`
    on any fixpoint trace. Maintenance patches ranks instead of sweeping
    the whole trace; the tests keep this sweep as the reference it must
    agree with.
    """
    instance_list = list(instances)
    ranks: Dict[Atom, int] = {fact: 0 for fact in database}
    waiting: Dict[Atom, List[int]] = {}
    pending: List[int] = []
    for idx, ground in enumerate(instance_list):
        unresolved = 0
        for body_fact in set(ground.body):
            if body_fact not in ranks:
                unresolved += 1
                waiting.setdefault(body_fact, []).append(idx)
        pending.append(unresolved)
    ready = [idx for idx, count in enumerate(pending) if count == 0]
    rank = 0
    while True:
        newly: List[Atom] = []
        for idx in ready:
            head = instance_list[idx].head
            if head not in ranks:
                ranks[head] = rank + 1
                newly.append(head)
        if not newly:
            break
        ready = []
        for fact in newly:
            for idx in waiting.get(fact, ()):
                pending[idx] -= 1
                if pending[idx] == 0:
                    ready.append(idx)
        rank += 1
    return ranks


def _top_rank(
    key: InstanceKey, ranks: Dict[Atom, int], atoms: Dict[RowKey, Atom]
) -> Optional[int]:
    """The highest rank in *key*'s body, or ``None`` if a body fact has none."""
    top = -1
    for fact in zip(key[0][1], key[2]):
        rank = ranks.get(atoms[fact])
        if rank is None:
            return None
        if rank > top:
            top = rank
    return top


def _rank_supported_cone(
    database: Database,
    ranks: Dict[Atom, int],
    trace: TraceIndex,
    deleted: Iterable[RowKey],
) -> Set[RowKey]:
    """Every fact whose rank or membership deleting *deleted* can change.

    An instance is *rank-supporting* for its head when its highest body
    rank is the head's rank minus one: it derives the head at the head's
    stage. The cone starts with *deleted*. A fact not in *database* joins
    it once each of its rank-supporting instances has a body fact in the
    cone; a countdown per head tracks how many are left, and a head is
    looked at only when one of them loses a body fact. *ranks* are the
    ranks before the update. Facts are the trace's ``(pred, row)`` keys.

    The cone is exact in one direction: a fact outside it still has a
    rank-supporting instance with its whole body outside the cone, so by
    induction on rank (Prop. 28) it keeps its rank and stays in the
    model. Cone facts may keep their rank, rise or leave.
    """
    heads, keys, users, atoms = trace.heads, trace.keys, trace.users, trace.atoms
    cone: Set[RowKey] = set(deleted)
    stack: List[RowKey] = list(cone)
    left: Dict[RowKey, int] = {}
    hit: Set[int] = set()
    while stack:
        for number in users(stack.pop()):
            key = keys[number]
            head = (key[0][0], key[1])
            if head in cone or number in hit:
                continue
            head_atom = atoms[head]
            if head_atom in database:
                continue
            stage = ranks[head_atom] - 1
            if _top_rank(key, ranks, atoms) != stage:
                continue
            hit.add(number)
            count = left.get(head)
            if count is None:
                count = sum(
                    1 for other in heads[head] if _top_rank(other, ranks, atoms) == stage
                )
            if count == 1:
                cone.add(head)
                stack.append(head)
            else:
                left[head] = count - 1
    return cone


def _offer(
    buckets: Dict[int, List[RowKey]],
    key: InstanceKey,
    ranks: Dict[Atom, int],
    atoms: Dict[RowKey, Atom],
) -> None:
    """Queue *key*'s head at ``1 +`` its highest body rank, if that is lower."""
    top = _top_rank(key, ranks, atoms)
    if top is None:
        return
    head = (key[0][0], key[1])
    current = ranks.get(atoms[head])
    if current is None or top + 1 < current:
        bucket = buckets.get(top + 1)
        if bucket is None:
            buckets[top + 1] = [head]
        else:
            bucket.append(head)


def _settle(
    buckets: Dict[int, List[RowKey]],
    ranks: Dict[Atom, int],
    trace: TraceIndex,
) -> None:
    """Lower ranks from the queued candidates, least rank first.

    Knuth's generalization of Dijkstra's algorithm to the instance
    hypergraph: an instance offers its head ``1 +`` the highest rank in
    its body, which exceeds every rank in that body, so a fact taken from
    the least bucket holds its final rank. *buckets* maps a rank to the
    facts offered it. Each fact whose rank drops (or that gets its first
    rank) passes its new rank on through the instances it is a body fact
    of; nothing else is visited.
    """
    atoms, keys, users = trace.atoms, trace.keys, trace.users
    while buckets:
        rank = min(buckets)
        for fact in buckets.pop(rank):
            atom = atoms[fact]
            current = ranks.get(atom)
            if current is not None and current <= rank:
                continue
            ranks[atom] = rank
            for number in users(fact):
                _offer(buckets, keys[number], ranks, atoms)


def _delete_facts(
    database: Database,
    evaluation: EvaluationResult,
    trace: TraceIndex,
    deleted: List[RowKey],
) -> Tuple[List[RowKey], List[Atom], Tuple[GroundRule, ...], int, int]:
    """The deletion phase of :func:`maintain_evaluation`, in place.

    Computes the rank-supported cone of *deleted*, drops the cone's
    ranks and re-ranks it bottom-up from the facts outside it, seeded by
    the cone facts' instances whose bodies lie wholly outside the cone.
    Cone facts that are never reached have no derivation left: they leave
    the model and the trace's atom map, and every instance with one in
    its body leaves the trace (an instance whose head left has such a
    body fact, or the head would have been reached). Returns ``(dropped
    facts, their atoms, removed instances lifted, cone size, facts kept
    at a higher rank)``.
    """
    ranks, atoms = evaluation.ranks, trace.atoms
    cone = _rank_supported_cone(database, ranks, trace, deleted)
    before = {fact: ranks.pop(atoms[fact]) for fact in cone}
    buckets: Dict[int, List[RowKey]] = {}
    for fact in cone:
        for key in trace.heads.get(fact, ()):
            _offer(buckets, key, ranks, atoms)
    _settle(buckets, ranks, trace)
    dropped = [fact for fact in cone if atoms[fact] not in ranks]
    raised = sum(
        1 for fact, rank in before.items() if ranks.get(atoms[fact], rank) > rank
    )
    removed: Dict[int, None] = {}
    for fact in dropped:
        evaluation.model.discard(atoms[fact])
        removed.update(trace.users(fact))
    lifted = tuple(trace.lift(number) for number in removed)
    for number in removed:
        trace.discard(number)
    dropped_atoms = [atoms.pop(fact) for fact in dropped]
    return dropped, dropped_atoms, lifted, len(cone), raised


def _interpreted_insertion_rounds(
    program: Program,
    model: Database,
    trace: TraceIndex,
    fresh: Sequence[Atom],
) -> Tuple[Set[Atom], List[int], int]:
    """Delta-semi-naive insertion rounds through the generic matcher.

    The interpreted twin of :func:`~repro.datalog.plans.run_insertion_rounds`:
    adds *fresh* to *model*, then every round pivots each body position
    of each rule on the previous round's new facts, interning each
    firing into *trace* (:meth:`TraceIndex.key_of`). Returns
    ``(added_facts, added_instance_numbers, derivation_count)``.
    """
    added_facts: Set[Atom] = set()
    added_instances: List[int] = []
    derivations = 0
    round_delta = Database()
    for fact in fresh:
        model._insert(fact)
        added_facts.add(fact)
        round_delta._insert(fact)
    while len(round_delta):
        next_delta = Database()
        for rule in program.rules:
            for pos in range(len(rule.body)):
                if round_delta.count(rule.body[pos].pred) == 0:
                    continue
                for subst in match_body_with_delta(rule.body, model, round_delta, pos):
                    derivations += 1
                    head = rule.head.ground(subst)
                    key = trace.key_of(head, tuple(a.ground(subst) for a in rule.body))
                    number = trace.add(key, rule)
                    if number is not None:
                        added_instances.append(number)
                    if head not in model and head not in next_delta:
                        next_delta._insert(head)
        for fact in next_delta:
            model._insert(fact)
            added_facts.add(fact)
        round_delta = next_delta
    return added_facts, added_instances, derivations


def maintain_evaluation(
    program: Program,
    database: Database,
    evaluation: EvaluationResult,
    delta: Delta,
    engine: Optional[str] = None,
    plan_context: Optional[PlanContext] = None,
) -> MaintenanceResult:
    """Patch a recorded evaluation in place under a database delta.

    *database* must already reflect the update (see
    :meth:`~repro.datalog.database.Database.apply`) and *delta* must be
    the **effective** delta it returned; *evaluation* is the result
    computed before the update, and must carry an instance trace
    (``record_instances=True``). The first call indexes that
    :class:`TraceIndex` by head and body fact, over its interned keys;
    every call patches the evaluation's model, ranks and index, and
    returns the evaluation in the receipt.

    Deletions run first and match no rule body. They re-rank only the
    rank-supported cone of the deleted facts (:func:`_rank_supported_cone`),
    the only facts a deletion can re-rank or remove, and drop the cone
    facts left without a derivation. Insertions then run
    delta-semi-naive rounds seeded with the inserted facts: only rule
    bodies touching a new fact are matched, and every firing is
    recorded. A last ordered pass (:func:`_settle`) gives the inserted
    facts rank 0 and lowers ranks from them and from the added
    instances; it visits only facts whose rank drops. So the work follows
    the facts whose stage support changed, and the patched evaluation
    equals a cold one: same model, same ranks, same rounds, same instance
    *set*. Both phases walk instance keys and read ranks through the
    trace's atom map; only the instances that changed are lifted, for
    the receipt.

    *engine* / *plan_context* select how the insertion rounds match rule
    bodies, exactly as in :func:`evaluate`. On the compiled engine the
    context also keeps the model interned as int relations across calls
    and patches them, instead of interning the model on every update; it
    must intern with the trace's symbol table, as the context of the
    evaluation does.
    """
    trace = evaluation.instances
    if trace is None:
        raise ValueError(
            "incremental maintenance requires an instance trace; "
            "evaluate with record_instances=True"
        )
    if plan_context is not None and plan_context.symbols is not trace.symbols:
        raise ValueError("plan_context must intern with the trace's symbol table")
    trace.index()
    model, ranks = evaluation.model, evaluation.ranks
    resolved_engine = resolve_engine(engine)
    if resolved_engine == "compiled" and plan_context is None:
        plan_context = PlanContext(trace.symbols)

    removed_facts: List[Atom] = []
    removed_instances: Tuple[GroundRule, ...] = ()
    cone = raised = 0
    deleted = [trace.row_key(fact) for fact in delta.deleted if fact in model]
    if deleted:
        dropped, removed_facts, removed_instances, cone, raised = _delete_facts(
            database, evaluation, trace, deleted
        )
        if plan_context is not None:
            plan_context.forget(model, dropped)

    added_facts: Set[Atom] = set()
    added_numbers: List[int] = []
    fresh = [fact for fact in delta.inserted if fact not in model]
    if fresh:
        if resolved_engine == "compiled":
            added_facts, added_numbers, fired = run_insertion_rounds(
                program, model, trace, fresh, plan_context, database
            )
        else:
            added_facts, added_numbers, fired = _interpreted_insertion_rounds(
                program, model, trace, fresh
            )
            if plan_context is not None:
                plan_context.interned = None  # no longer mirrors the model
        evaluation.derivations += fired
    if delta.inserted:
        atoms = trace.atoms
        buckets: Dict[int, List[RowKey]] = {
            0: [trace.row_key(fact) for fact in delta.inserted]
        }
        for number in added_numbers:
            _offer(buckets, trace.keys[number], ranks, atoms)
        _settle(buckets, ranks, trace)

    evaluation.rounds = max(ranks.values(), default=0)
    evaluation.engine = resolved_engine
    evaluation.plans_compiled = plan_context.compiled if plan_context is not None else 0
    evaluation.plan_reuses = plan_context.reuses if plan_context is not None else 0
    return MaintenanceResult(
        evaluation=evaluation,
        added_facts=frozenset(added_facts),
        removed_facts=frozenset(removed_facts),
        added_instances=tuple(trace.lift(number) for number in added_numbers),
        removed_instances=removed_instances,
        cone=cone,
        raised=raised,
    )


def answers(query: DatalogQuery, database: Database) -> Set[Tuple]:
    """``Q(D)``: the answer tuples of *query* over *database*."""
    result = evaluate(query.program, database)
    return {
        fact.args
        for fact in result.model.relation(query.answer_predicate)
    }


def holds(query: DatalogQuery, database: Database, tup: Tuple) -> bool:
    """Whether tuple *tup* is an answer of *query* over *database*."""
    return tup in answers(query, database)


def ground_instances(
    program: Program,
    model: Database,
) -> Iterator[GroundRule]:
    """Enumerate every ground instance of every rule over *model*.

    An instance is reported iff all its body facts are in *model* (its head
    is then in the model too, provided *model* is a fixpoint). These
    instances are exactly the hyperedge candidates of the graph of rule
    instances ``gri(D, Sigma)`` (Definition 42).
    """
    for rule in program.rules:
        for subst in match_body(rule.body, model):
            head = rule.head.ground(subst)
            body = tuple(atom.ground(subst) for atom in rule.body)
            yield GroundRule(rule, head, body)


def immediate_consequences(program: Program, facts: Database) -> Set[Atom]:
    """One application of ``T_Sigma``: heads of rules grounded in *facts*.

    Note that, per the paper's definition, the facts of the input database
    are immediate consequences of themselves; callers that need the full
    ``T_Sigma(X)`` should union the extensional part back in.
    """
    out: Set[Atom] = set()
    for rule in program.rules:
        for subst in match_body(rule.body, facts):
            out.add(rule.head.ground(subst))
    return out


def stage_sets(program: Program, database: Database, limit: Optional[int] = None) -> List[Set[Atom]]:
    """The chain ``T^0(D) subseteq T^1(D) subseteq ...`` until fixpoint.

    Mostly a testing aid: ``stage_sets(...)[i]`` is ``T^i_Sigma(D)`` and the
    ranks reported by :func:`evaluate` must agree with the first index at
    which a fact appears.
    """
    base = set(database)
    stages: List[Set[Atom]] = [set(base)]
    current = set(base)
    for _ in itertools.count():
        if limit is not None and len(stages) > limit:
            break
        nxt = set(base)
        nxt |= immediate_consequences(program, Database(current))
        if nxt == current:
            break
        stages.append(nxt)
        current = nxt
    return stages
