"""Compiled join plans: rules as reusable closures over int-tuple relations.

The interpreted engine (:mod:`repro.datalog.engine` + :mod:`repro.datalog.unify`)
re-plans and re-matches every rule body generically on every semi-naive
round: join order is recomputed per ``match_body`` call, and every candidate
fact rebuilds a ``Variable -> constant`` substitution dict. This module is
the compiled alternative — the engine behind ``evaluate(..., engine="compiled")``
and the ``REPRO_ENGINE`` environment knob:

1. **Intern** every constant to a dense int in a :class:`SymbolTable`
   that persists for the lifetime of a :class:`PlanContext` (a session
   carries one context across its initial evaluation *and* all later
   ``update()`` maintenance rounds).
2. **Number** each rule's variables into fixed register slots (first
   occurrence in body order), so a binding is an int in a known slot, not
   a dict entry keyed by a :class:`~repro.datalog.terms.Variable`.
3. **Plan once per (rule, delta-position)**: pick the join order greedily
   using the database's bucket-size statistics
   (:meth:`~repro.datalog.database.Database.position_cardinalities`) and
   decide, per body atom, which index probe (binding pattern ->
   ``key -> rows`` bucket) seeds its scan.
4. **Emit a specialized closure** — ``exec``-generated nested loops over
   :class:`~repro.datalog.database.IntRelation` index probes for bodies of
   ordinary length, or a generic iterative executor for very long bodies
   (CPython caps statically nested blocks, and e.g. the stress tests join
   40-atom chains). The closure is cached in the context and reused
   across all semi-naive rounds and across ``maintain_evaluation``
   insertion rounds, which run over the recorded evaluation's int
   relations, adopted and patched from then on (:class:`InternedModel`).

The compiled evaluator mirrors the interpreted semi-naive loop *exactly*
(same round structure, same rank assignment, same per-firing derivation
count, same instance-set trace), so the two engines are mutually checkable
differential oracles: ``(model, ranks, rounds, derivations, set(instances))``
must agree on every input, and downstream consumers canonicalize trace
order, making end-to-end outputs byte-identical.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .atoms import Atom
from .database import Database, IntRelation
from .program import Program
from .rules import Rule
from .terms import is_variable

if TYPE_CHECKING:  # pragma: no cover - the engine imports this module
    from .engine import TraceIndex

#: A fact as int ids: one id per argument, from a :class:`SymbolTable`.
Row = Tuple[int, ...]
#: A fact of the least model as ``(pred, row)``.
RowKey = Tuple[str, Row]
#: A ground rule instance as ``((head_pred, body_preds), head_row,
#: body_rows)``: two firings are one instance iff their keys are equal,
#: as two :class:`~repro.datalog.rules.GroundRule` are iff their atoms are.
InstanceKey = Tuple[Tuple[str, Tuple[str, ...]], Row, Tuple[Row, ...]]

#: Environment variable selecting the default evaluation engine.
ENGINE_ENV = "REPRO_ENGINE"

#: The engine used when neither the caller nor the environment chooses.
DEFAULT_ENGINE = "compiled"

#: Recognized engine names.
ENGINES = ("compiled", "interpreted")

#: Bodies longer than this are run by the generic executor instead of
#: ``exec``-generated nested loops (CPython rejects ~20 statically nested
#: blocks; one loop per atom plus the function body must stay under that).
MAX_CODEGEN_BODY = 16

_EMPTY_RELATION = IntRelation()


def resolve_engine(engine: Optional[str] = None) -> str:
    """Resolve an engine choice: explicit argument > ``REPRO_ENGINE`` > default.

    Raises ``ValueError`` for unrecognized names so typos fail loudly
    instead of silently falling back to one engine.
    """
    if engine is None:
        engine = os.environ.get(ENGINE_ENV) or DEFAULT_ENGINE
    if engine not in ENGINES:
        options = ", ".join(ENGINES)
        raise ValueError(f"unknown engine {engine!r} (expected one of: {options})")
    return engine


class SymbolTable:
    """Bijective interning of constants to dense ints.

    Append-only: a constant keeps its id for the lifetime of the table, so
    plans compiled early (whose constant literals are baked into generated
    code) stay valid as later evaluations and maintenance rounds intern new
    constants. Interning follows Python equality, which matches
    :class:`~repro.datalog.atoms.Atom` equality on arguments.
    """

    __slots__ = ("values", "_ids")

    def __init__(self):
        #: Dense id -> constant, for decoding rows back to atoms.
        self.values: List[object] = []
        self._ids: Dict[object, int] = {}

    def __len__(self) -> int:
        return len(self.values)

    def intern(self, value: object) -> int:
        """The dense id of *value*, allocating one on first sight."""
        ident = self._ids.get(value)
        if ident is None:
            ident = len(self.values)
            self._ids[value] = ident
            self.values.append(value)
        return ident

    def value(self, ident: int) -> object:
        """The constant behind a dense id."""
        return self.values[ident]

    def find(self, values: Iterable[object]) -> Optional[Row]:
        """The ids of *values*, or ``None`` if one was never interned."""
        ids = self._ids
        try:
            return tuple([ids[value] for value in values])
        except KeyError:
            return None


class JoinPlan:
    """One compiled (rule, delta-position) pair.

    ``fn(model_rels, delta_rels, emit)`` runs the join: *model_rels* /
    *delta_rels* map predicate name to :class:`IntRelation` (*delta_rels*
    may be ``None`` for a plan with no delta atom), and ``emit`` receives
    one ``(head_row, body_rows)`` pair per firing, where *body_rows* lists
    the matched rows in **original body order** (so ``zip(body_preds,
    body_rows)`` reconstructs the ground body).
    """

    __slots__ = ("rule", "delta_pos", "fn", "head_pred", "body_preds", "shape", "source")

    def __init__(
        self,
        rule: Rule,
        delta_pos: Optional[int],
        fn: Callable,
        source: Optional[str],
    ):
        self.rule = rule
        self.delta_pos = delta_pos
        self.fn = fn
        self.head_pred = rule.head.pred
        self.body_preds: Tuple[str, ...] = tuple(a.pred for a in rule.body)
        #: Instance-identity prefix: two firings are the same ground
        #: instance iff they agree on (shape, head_row, body_rows) — this
        #: mirrors :class:`GroundRule` equality, which compares ground
        #: head and body but *not* the syntactic rule.
        self.shape = (self.head_pred, self.body_preds)
        #: Generated source, or ``None`` when the generic executor runs
        #: the plan; kept for debugging and tests.
        self.source = source


class PlanContext:
    """Symbol table + plan cache shared across evaluations of one session.

    ``plan_for`` is the only entry point the evaluators use; it counts
    cache misses (``compiled``) and hits (``reuses``) so sessions and
    benchmarks can assert that plans are compiled once and reused across
    semi-naive rounds and across ``update()`` calls.
    """

    __slots__ = ("symbols", "plans", "compiled", "reuses", "interned")

    def __init__(self, symbols: Optional[SymbolTable] = None):
        #: Shared with every trace recorded through this context, whose
        #: instance keys are rows of these ids.
        self.symbols = SymbolTable() if symbols is None else symbols
        self.plans: Dict[Tuple[Rule, Optional[int]], JoinPlan] = {}
        self.compiled = 0
        self.reuses = 0
        #: The maintained model as int relations: the rows of the last
        #: recorded evaluation, patched by every update from then on.
        self.interned: Optional[InternedModel] = None

    def plan_for(
        self,
        rule: Rule,
        delta_pos: Optional[int],
        stats_db: Optional[Database] = None,
    ) -> JoinPlan:
        """The cached plan for ``(rule, delta_pos)``, compiling on miss.

        *stats_db* feeds bucket-size statistics to the join planner on a
        cache miss; it has no effect on a hit (the join order is frozen at
        first compilation, which is the point of compiling).
        """
        key = (rule, delta_pos)
        plan = self.plans.get(key)
        if plan is None:
            plan = compile_rule(rule, delta_pos, self.symbols, stats_db)
            self.plans[key] = plan
            self.compiled += 1
        else:
            self.reuses += 1
        return plan

    def interned_model(
        self, model: Database, atoms: Dict[RowKey, Atom]
    ) -> "InternedModel":
        """*model* as int relations over the atom map *atoms*.

        The relations kept from the evaluation or the last maintenance
        are reused; otherwise *model* is interned now, filling *atoms*.
        """
        interned = self.interned
        if interned is None or interned.model is not model or interned.atoms is not atoms:
            interned = self.interned = InternedModel(model, self.symbols, atoms)
        return interned

    def forget(self, model: Database, facts: Iterable[RowKey]) -> None:
        """Drop *facts*, just removed from *model*, from its interned relations."""
        interned = self.interned
        if interned is not None and interned.model is model:
            relations = interned.relations
            for pred, row in facts:
                relations[pred].discard(row)


class InternedModel:
    """A maintained model's facts as int-tuple relations.

    ``relations`` maps a predicate to its :class:`IntRelation` and
    ``atoms`` maps each ``(pred, row)`` back to its fact; it is the atom
    map of the model's instance trace. A :class:`PlanContext` keeps one
    for its last recorded evaluation, whose relations it adopts as they
    stand (:meth:`adopt`): :func:`run_insertion_rounds` adds the rows
    they derive, :meth:`PlanContext.forget` drops the rows of deleted
    facts, and the relations' pattern indexes survive from one update to
    the next.
    """

    __slots__ = ("model", "relations", "atoms")

    def __init__(
        self,
        model: Database,
        symbols: SymbolTable,
        atoms: Optional[Dict[RowKey, Atom]] = None,
    ):
        self.model = model
        self.relations: Dict[str, IntRelation] = {}
        self.atoms: Dict[RowKey, Atom] = {} if atoms is None else atoms
        _intern_database(model, symbols, self.relations, self.atoms)

    @classmethod
    def adopt(
        cls,
        model: Database,
        relations: Dict[str, IntRelation],
        atoms: Dict[RowKey, Atom],
    ) -> "InternedModel":
        """The interned model whose relations an evaluation just built."""
        interned = object.__new__(cls)
        interned.model, interned.relations, interned.atoms = model, relations, atoms
        return interned


class _Step:
    """One atom scan of a join plan, in execution order."""

    __slots__ = ("pred", "use_delta", "key_positions", "key_entries", "bind_ops")

    def __init__(self, pred, use_delta, key_positions, key_entries, bind_ops):
        self.pred: str = pred
        #: Whether this step scans the delta store instead of the model.
        self.use_delta: bool = use_delta
        #: Positions fixed by constants or already-bound registers; the
        #: index probe pattern (empty -> full relation scan).
        self.key_positions: Tuple[int, ...] = key_positions
        #: Per key position: ``("c", interned_const)`` or ``("v", register)``.
        self.key_entries: Tuple[Tuple[str, int], ...] = key_entries
        #: Per non-key position: ``(pos, "out"|"chk", register)`` — bind a
        #: first-occurrence register, or check a repeat within the atom.
        self.bind_ops: Tuple[Tuple[int, str, int], ...] = bind_ops


def _join_order(
    rule: Rule,
    delta_pos: Optional[int],
    reg_of: Dict,
    stats_db: Optional[Database],
) -> List[int]:
    """Greedy join order over original body indices.

    The delta atom (if any) comes first; each later pick maximizes the
    number of already-bound variables, then minimizes unbound variables
    (the interpreted ``plan_order`` heuristic), then minimizes the
    estimated probe result size from the database's per-position
    cardinality statistics, with original index as the deterministic tie
    break.
    """
    body = rule.body
    atom_regs = [
        {reg_of[t] for t in atom.args if is_variable(t)} for atom in body
    ]
    cards: Dict[str, Tuple[int, ...]] = {}

    def estimate(idx: int, bound: Set[int]) -> int:
        if stats_db is None:
            return 0
        atom = body[idx]
        size = stats_db.count(atom.pred)
        if atom.pred not in cards:
            cards[atom.pred] = stats_db.position_cardinalities(atom.pred)
        by_pos = cards[atom.pred]
        est = size
        for pos, term in enumerate(atom.args):
            fixed = (not is_variable(term)) or reg_of[term] in bound
            if fixed and pos < len(by_pos) and by_pos[pos]:
                est = min(est, -(-size // by_pos[pos]))
        return est

    order: List[int] = []
    bound: Set[int] = set()
    remaining = list(range(len(body)))
    if delta_pos is not None:
        order.append(delta_pos)
        remaining.remove(delta_pos)
        bound |= atom_regs[delta_pos]
    while remaining:
        def score(idx: int) -> Tuple[int, int, int, int]:
            regs = atom_regs[idx]
            n_bound = len(regs & bound)
            n_unbound = len(regs) - n_bound
            return (-n_bound, n_unbound, estimate(idx, bound), idx)

        pick = min(remaining, key=score)
        remaining.remove(pick)
        order.append(pick)
        bound |= atom_regs[pick]
    return order


def _build_steps(
    rule: Rule,
    order: Sequence[int],
    delta_pos: Optional[int],
    reg_of: Dict,
    symbols: SymbolTable,
) -> List[_Step]:
    """Lower an ordered body into per-atom scan/probe steps."""
    steps: List[_Step] = []
    bound: Set[int] = set()
    for idx in order:
        atom = rule.body[idx]
        key_positions: List[int] = []
        key_entries: List[Tuple[str, int]] = []
        bind_ops: List[Tuple[int, str, int]] = []
        fresh_here: Set[int] = set()
        for pos, term in enumerate(atom.args):
            if is_variable(term):
                reg = reg_of[term]
                if reg in bound:
                    key_positions.append(pos)
                    key_entries.append(("v", reg))
                elif reg in fresh_here:
                    bind_ops.append((pos, "chk", reg))
                else:
                    fresh_here.add(reg)
                    bind_ops.append((pos, "out", reg))
            else:
                key_positions.append(pos)
                key_entries.append(("c", symbols.intern(term)))
        bound |= fresh_here
        steps.append(
            _Step(
                atom.pred,
                delta_pos is not None and idx == delta_pos,
                tuple(key_positions),
                tuple(key_entries),
                tuple(bind_ops),
            )
        )
    return steps


def _head_entries(rule: Rule, reg_of: Dict, symbols: SymbolTable) -> Tuple[Tuple[str, int], ...]:
    """The head tuple recipe: ``("c", const_id)`` / ``("v", register)`` per position."""
    entries: List[Tuple[str, int]] = []
    for term in rule.head.args:
        if is_variable(term):
            entries.append(("v", reg_of[term]))
        else:
            entries.append(("c", symbols.intern(term)))
    return tuple(entries)


def _tuple_expr(parts: Sequence[str]) -> str:
    """A source-code tuple literal from element expressions."""
    if not parts:
        return "()"
    if len(parts) == 1:
        return f"({parts[0]},)"
    return "(" + ", ".join(parts) + ")"


def _entry_expr(entry: Tuple[str, int]) -> str:
    """Source expression for one key/head entry."""
    kind, value = entry
    return repr(value) if kind == "c" else f"v{value}"


def _codegen(
    steps: Sequence[_Step],
    head_entries: Sequence[Tuple[str, int]],
    body_step_of: Sequence[int],
) -> str:
    """Generate the specialized join function source for *steps*.

    The emitted function binds registers to plain local variables and
    walks per-step index probes in nested ``for`` loops; the innermost
    line emits ``(head_row, body_rows)`` with body rows in original body
    order.
    """
    lines = ["def _join(_model, _delta, _emit):"]
    for i, step in enumerate(steps):
        store = "_delta" if step.use_delta else "_model"
        lines.append(f"    _rel{i} = {store}.get({step.pred!r}) or _EMPTY")
        if step.key_positions:
            lines.append(f"    _idx{i} = _rel{i}.index_for({step.key_positions!r})")
    indent = "    "
    for i, step in enumerate(steps):
        if step.key_positions:
            key = _tuple_expr([_entry_expr(e) for e in step.key_entries])
            lines.append(f"{indent}for _r{i} in _idx{i}.get({key}, ()):")
        else:
            lines.append(f"{indent}for _r{i} in _rel{i}.rows:")
        indent += "    "
        for pos, op, reg in step.bind_ops:
            if op == "out":
                lines.append(f"{indent}v{reg} = _r{i}[{pos}]")
            else:
                lines.append(f"{indent}if _r{i}[{pos}] != v{reg}:")
                lines.append(f"{indent}    continue")
    head = _tuple_expr([_entry_expr(e) for e in head_entries])
    body = _tuple_expr([f"_r{step_idx}" for step_idx in body_step_of])
    lines.append(f"{indent}_emit(({head}, {body}))")
    return "\n".join(lines) + "\n"


def _generic_join(
    steps: Sequence[_Step],
    head_entries: Sequence[Tuple[str, int]],
    body_step_of: Sequence[int],
    n_registers: int,
) -> Callable:
    """Iterative executor for plans too long to codegen as nested loops.

    Semantically identical to the generated code: an explicit stack of
    row iterators replaces syntactic loop nesting, so 40-atom chain
    bodies run without hitting CPython's block-nesting or recursion
    limits.
    """
    n_steps = len(steps)

    def run(model, delta, emit):
        """Run the join over *model*/*delta* relations, calling *emit* per firing."""
        registers = [0] * n_registers
        rows: List[Optional[Tuple[int, ...]]] = [None] * n_steps
        relations = []
        indexes = []
        for step in steps:
            store = delta if step.use_delta else model
            relation = store.get(step.pred) or _EMPTY_RELATION
            relations.append(relation)
            indexes.append(
                relation.index_for(step.key_positions) if step.key_positions else None
            )

        def rows_at(depth: int):
            step = steps[depth]
            if not step.key_positions:
                return iter(relations[depth].rows)
            key = tuple(
                value if kind == "c" else registers[value]
                for kind, value in step.key_entries
            )
            return iter(indexes[depth].get(key, ()))

        stack = [rows_at(0)]
        while stack:
            depth = len(stack) - 1
            row = next(stack[-1], None)
            if row is None:
                stack.pop()
                continue
            ok = True
            for pos, op, reg in steps[depth].bind_ops:
                if op == "out":
                    registers[reg] = row[pos]
                elif row[pos] != registers[reg]:
                    ok = False
                    break
            if not ok:
                continue
            rows[depth] = row
            if depth + 1 == n_steps:
                head = tuple(
                    value if kind == "c" else registers[value]
                    for kind, value in head_entries
                )
                emit((head, tuple(rows[i] for i in body_step_of)))
            else:
                stack.append(rows_at(depth + 1))

    return run


def compile_rule(
    rule: Rule,
    delta_pos: Optional[int],
    symbols: SymbolTable,
    stats_db: Optional[Database] = None,
) -> JoinPlan:
    """Compile one (rule, delta-position) pair into a :class:`JoinPlan`.

    *delta_pos* is the original body index that must match the delta
    store (semi-naive pivot), or ``None`` for a plan over the full model
    only. Rule constants are interned into *symbols* at compile time, so
    the generated code compares raw ints.
    """
    reg_of: Dict = {}
    for atom in rule.body:
        for term in atom.args:
            if is_variable(term) and term not in reg_of:
                reg_of[term] = len(reg_of)
    order = _join_order(rule, delta_pos, reg_of, stats_db)
    steps = _build_steps(rule, order, delta_pos, reg_of, symbols)
    head_entries = _head_entries(rule, reg_of, symbols)
    # body_step_of[j] = execution step holding original body atom j.
    step_of = {orig: step for step, orig in enumerate(order)}
    body_step_of = tuple(step_of[j] for j in range(len(rule.body)))
    if len(steps) <= MAX_CODEGEN_BODY:
        source = _codegen(steps, head_entries, body_step_of)
        namespace = {"_EMPTY": _EMPTY_RELATION}
        exec(compile(source, f"<plan:{rule.head.pred}/{delta_pos}>", "exec"), namespace)
        # Popped, not read: a namespace still holding the function would
        # be its own ``__globals__``, a cycle only a full collection frees.
        fn = namespace.pop("_join")
    else:
        source = None
        fn = _generic_join(steps, head_entries, body_step_of, len(reg_of))
    return JoinPlan(rule, delta_pos, fn, source)


# ---------------------------------------------------------------------------
# Compiled semi-naive evaluation
# ---------------------------------------------------------------------------


def _intern_database(
    facts: Iterable[Atom],
    symbols: SymbolTable,
    model_rels: Dict[str, IntRelation],
    fact_atoms: Dict[RowKey, Atom],
) -> None:
    """Load *facts* into int-tuple relations, remembering each row's atom."""
    intern = symbols.intern
    for fact in facts:
        row = tuple(intern(value) for value in fact.args)
        relation = model_rels.get(fact.pred)
        if relation is None:
            relation = model_rels[fact.pred] = IntRelation()
        relation.add(row)
        fact_atoms[(fact.pred, row)] = fact


def _atom_of(
    pred: str,
    row: Row,
    symbols: SymbolTable,
    fact_atoms: Dict[RowKey, Atom],
) -> Atom:
    """The (cached) ground atom behind an int row."""
    key = (pred, row)
    atom = fact_atoms.get(key)
    if atom is None:
        values = symbols.values
        atom = Atom(pred, tuple(values[ident] for ident in row))
        fact_atoms[key] = atom
    return atom


def evaluate_seminaive_compiled(
    program: Program,
    database: Database,
    record_instances: bool = False,
    context: Optional[PlanContext] = None,
):
    """Semi-naive evaluation through compiled join plans.

    Mirrors the interpreted ``_evaluate_seminaive`` round for round: the
    initial database is the round-0 delta, EDB-only rules fire only in
    the first round, newly derived facts are flushed into the model after
    the full rule sweep, and a fact's rank is the round that first
    derives it. Returns an :class:`~repro.datalog.engine.EvaluationResult`
    whose ``(model, ranks, rounds, derivations, set(instances))`` equal
    the interpreted engine's, with ``engine="compiled"`` and the
    context's plan-cache counters attached.

    With *record_instances*, each new instance is kept as the
    :data:`InstanceKey` its firing already is, with the rule that fired
    it, in a :class:`~repro.datalog.engine.TraceIndex` over the context's
    symbols and the evaluation's ``(pred, row) -> Atom`` map; no ground
    rule is built. The context then adopts the evaluation's relations as
    its :attr:`PlanContext.interned` model, so a first update interns
    nothing.
    """
    from .engine import EvaluationResult, TraceIndex  # local import: engine imports us

    if context is None:
        context = PlanContext()
    symbols = context.symbols

    model = database.copy()
    ranks: Dict[Atom, int] = {fact: 0 for fact in database}
    derivations = 0

    model_rels: Dict[str, IntRelation] = {}
    fact_atoms: Dict[RowKey, Atom] = {}
    _intern_database(database, symbols, model_rels, fact_atoms)
    for rule in program.rules:
        model_rels.setdefault(rule.head.pred, IntRelation())
    trace = TraceIndex(symbols, fact_atoms) if record_instances else None
    record = trace.fired.setdefault if trace is not None else None

    idb = program.idb
    edb_only_rules: List[Rule] = []
    recursive_rules: List[Tuple[Rule, List[int]]] = []
    for rule in program.rules:
        idb_positions = [i for i, atom in enumerate(rule.body) if atom.pred in idb]
        if idb_positions:
            recursive_rules.append((rule, idb_positions))
        else:
            edb_only_rules.append(rule)

    delta_rels = {pred: rel.copy() for pred, rel in model_rels.items() if rel.rows}
    delta_count = len(database)
    rounds = 0
    first_round = True
    results: List[Tuple[Row, Tuple[Row, ...]]] = []
    emit = results.append

    def absorb(rule: Rule, plan: JoinPlan, next_round: int, new_rows, new_facts) -> None:
        """Fold one plan run's results into trace / ranks / round delta."""
        head_pred = plan.head_pred
        shape = plan.shape
        model_rel = model_rels[head_pred]
        rows_here = new_rows.setdefault(head_pred, set())
        for head_row, body_rows in results:
            if record is not None:
                record((shape, head_row, body_rows), rule)
            if head_row in model_rel.rows or head_row in rows_here:
                continue
            rows_here.add(head_row)
            head_atom = _atom_of(head_pred, head_row, symbols, fact_atoms)
            ranks[head_atom] = next_round
            new_facts.append((head_pred, head_row, head_atom))

    while delta_count:
        next_round = rounds + 1
        new_rows: Dict[str, Set[Row]] = {}
        new_facts: List[Tuple[str, Row, Atom]] = []
        if first_round:
            for rule in edb_only_rules:
                plan = context.plan_for(rule, None, database)
                results.clear()
                plan.fn(model_rels, None, emit)
                derivations += len(results)
                absorb(rule, plan, next_round, new_rows, new_facts)
            first_round = False
        for rule, idb_positions in recursive_rules:
            for pos in idb_positions:
                delta_rel = delta_rels.get(rule.body[pos].pred)
                if not delta_rel or not delta_rel.rows:
                    continue
                plan = context.plan_for(rule, pos, database)
                results.clear()
                plan.fn(model_rels, delta_rels, emit)
                derivations += len(results)
                absorb(rule, plan, next_round, new_rows, new_facts)
        if not new_facts:
            break
        rounds = next_round
        delta_rels = {}
        delta_count = len(new_facts)
        for pred, row, atom in new_facts:
            model._insert(atom)
            model_rels[pred].add(row)
            delta_rel = delta_rels.get(pred)
            if delta_rel is None:
                delta_rel = delta_rels[pred] = IntRelation()
            delta_rel.add(row)

    if trace is not None:
        context.interned = InternedModel.adopt(model, model_rels, fact_atoms)
    return EvaluationResult(
        model=model,
        ranks=ranks,
        rounds=rounds,
        derivations=derivations,
        instances=trace,
        engine="compiled",
        plans_compiled=context.compiled,
        plan_reuses=context.reuses,
    )


# ---------------------------------------------------------------------------
# Compiled insertion rounds for incremental maintenance
# ---------------------------------------------------------------------------


def run_insertion_rounds(
    program: Program,
    model: Database,
    trace: "TraceIndex",
    fresh: Sequence[Atom],
    context: PlanContext,
    stats_db: Optional[Database] = None,
) -> Tuple[Set[Atom], List[int], int]:
    """Delta-semi-naive insertion rounds through compiled plans.

    The compiled counterpart of the insertion phase of
    :func:`~repro.datalog.engine.maintain_evaluation`: *model* (already
    past the deletion phase, not yet containing *fresh*) and *trace* (a
    :class:`~repro.datalog.engine.TraceIndex` over the context's symbols,
    indexed by head and body) are patched in place, and *fresh* lists
    the inserted facts absent from the model. The joins run over the
    context's interned copy of *model* (:meth:`PlanContext.interned_model`),
    whose atom map is the trace's; the rounds extend both with every fact
    they add. Plans are drawn from *context* — the same cache the
    session's initial evaluation populated, so a warm update compiles
    nothing new unless the pivot lands on a body position never used
    before.

    Returns ``(added_facts, added_instance_numbers, derivation_count)``
    (the numbers :meth:`~repro.datalog.engine.TraceIndex.add` gave).
    """
    symbols = context.symbols
    interned = context.interned_model(model, trace.atoms)
    model_rels, fact_atoms = interned.relations, interned.atoms
    for rule in program.rules:
        model_rels.setdefault(rule.head.pred, IntRelation())

    added_facts: Set[Atom] = set()
    added_instances: List[int] = []
    derivations = 0

    round_rels: Dict[str, IntRelation] = {}
    intern = symbols.intern
    for fact in fresh:
        model._insert(fact)
        added_facts.add(fact)
        row = tuple(intern(value) for value in fact.args)
        fact_atoms[(fact.pred, row)] = fact
        relation = model_rels.get(fact.pred)
        if relation is None:
            relation = model_rels[fact.pred] = IntRelation()
        relation.add(row)
        delta_rel = round_rels.get(fact.pred)
        if delta_rel is None:
            delta_rel = round_rels[fact.pred] = IntRelation()
        delta_rel.add(row)

    results: List[Tuple[Row, Tuple[Row, ...]]] = []
    emit = results.append
    add = trace.add
    while round_rels:
        next_pairs: List[Tuple[str, Row, Atom]] = []
        new_rows: Dict[str, Set[Row]] = {}
        for rule in program.rules:
            for pos in range(len(rule.body)):
                delta_rel = round_rels.get(rule.body[pos].pred)
                if not delta_rel or not delta_rel.rows:
                    continue
                plan = context.plan_for(rule, pos, stats_db)
                results.clear()
                plan.fn(model_rels, round_rels, emit)
                derivations += len(results)
                head_pred = plan.head_pred
                shape = plan.shape
                model_rel = model_rels[head_pred]
                rows_here = new_rows.setdefault(head_pred, set())
                for head_row, body_rows in results:
                    # Every firing here has a body fact new to the model,
                    # so an instance already in the trace fired earlier in
                    # this update and its head is handled.
                    number = add((shape, head_row, body_rows), rule)
                    if number is None:
                        continue
                    added_instances.append(number)
                    if head_row in model_rel.rows or head_row in rows_here:
                        continue
                    rows_here.add(head_row)
                    head_atom = _atom_of(head_pred, head_row, symbols, fact_atoms)
                    next_pairs.append((head_pred, head_row, head_atom))
        if not next_pairs:
            break
        round_rels = {}
        for pred, row, atom in next_pairs:
            model._insert(atom)
            added_facts.add(atom)
            model_rels[pred].add(row)
            delta_rel = round_rels.get(pred)
            if delta_rel is None:
                delta_rel = round_rels[pred] = IntRelation()
            delta_rel.add(row)
    return added_facts, added_instances, derivations
