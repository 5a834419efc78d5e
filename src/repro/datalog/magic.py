"""Magic-set rewriting for goal-directed Datalog evaluation.

The paper's pipeline evaluates queries with DLV, whose magic-set rewriting
"can greatly reduce the memory usage by building much fewer facts during
the evaluation" (Appendix D.5, crediting Leone et al. 2019). This module
implements the classical transformation for a fully bound goal ``R(t)``:

1. *adorn* the program starting from ``R`` with all positions bound,
   propagating bindings left to right through rule bodies (the standard
   sideways information passing);
2. introduce a *magic predicate* ``magic_p_<adornment>`` per adorned
   intensional predicate, holding the bound-argument tuples that are
   actually demanded;
3. guard every adorned rule with its magic atom and add, for each
   intensional body atom, a *magic rule* deriving the demands it creates;
4. seed the database with ``magic_R_bb..b(t)``.

Evaluating the rewritten program derives ``R(t)`` iff the original program
does, while typically materializing a fraction of the model — the same
restriction to what the target needs that the downward closure makes,
obtained here purely at the program level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .atoms import Atom
from .database import Database
from .engine import EvaluationResult, evaluate
from .program import DatalogQuery, Program
from .rules import Rule
from .terms import is_variable

#: An adornment: one flag per argument position, True = bound.
Adornment = Tuple[bool, ...]

_MAGIC_PREFIX = "magic_"


def _adornment_suffix(adornment: Adornment) -> str:
    return "".join("b" if bound else "f" for bound in adornment)


def _adorned_name(pred: str, adornment: Adornment) -> str:
    return f"{pred}__{_adornment_suffix(adornment)}"


def _magic_name(pred: str, adornment: Adornment) -> str:
    return f"{_MAGIC_PREFIX}{pred}__{_adornment_suffix(adornment)}"


def _bound_args(atom: Atom, adornment: Adornment) -> Tuple:
    return tuple(
        arg for arg, bound in zip(atom.args, adornment) if bound
    )


def _atom_adornment(atom: Atom, bound_vars: Set) -> Adornment:
    return tuple(
        (not is_variable(arg)) or (arg in bound_vars) for arg in atom.args
    )


@dataclass
class MagicRewriting:
    """The output of the transformation.

    Attributes
    ----------
    program:
        The rewritten (adorned + magic) program.
    seed:
        The magic seed fact to add to the database.
    goal:
        The adorned goal atom whose derivability answers the query.
    adorned_of:
        Maps adorned predicate names back to the original predicate.
    """

    program: Program
    seed: Atom
    goal: Atom
    adorned_of: Dict[str, str]


def magic_rewrite(query: DatalogQuery, tup: Sequence) -> MagicRewriting:
    """Rewrite *query* for the fully bound goal ``R(t)``."""
    program = query.program
    goal_fact = query.answer_atom(tuple(tup))
    goal_adornment: Adornment = tuple(True for _ in goal_fact.args)

    adorned_rules: List[Rule] = []
    adorned_of: Dict[str, str] = {}
    pending: List[Tuple[str, Adornment]] = [(query.answer_predicate, goal_adornment)]
    processed: Set[Tuple[str, Adornment]] = set()

    while pending:
        pred, adornment = pending.pop()
        if (pred, adornment) in processed:
            continue
        processed.add((pred, adornment))
        adorned_of[_adorned_name(pred, adornment)] = pred
        for rule in program.rules_for(pred):
            adorned_rules.extend(
                _rewrite_rule(program, rule, adornment, pending)
            )

    seed = Atom(
        _magic_name(query.answer_predicate, goal_adornment),
        _bound_args(goal_fact, goal_adornment),
    )
    goal = Atom(
        _adorned_name(query.answer_predicate, goal_adornment), goal_fact.args
    )
    return MagicRewriting(
        program=Program(adorned_rules),
        seed=seed,
        goal=goal,
        adorned_of=adorned_of,
    )


def _rewrite_rule(
    program: Program,
    rule: Rule,
    head_adornment: Adornment,
    pending: List[Tuple[str, Adornment]],
) -> List[Rule]:
    """Adorn one rule and emit its guarded version plus its magic rules."""
    out: List[Rule] = []
    head = rule.head
    magic_head_atom = Atom(
        _magic_name(head.pred, head_adornment),
        _bound_args(head, head_adornment),
    )
    bound_vars: Set = {
        arg
        for arg, bound in zip(head.args, head_adornment)
        if bound and is_variable(arg)
    }
    new_body: List[Atom] = [magic_head_atom]
    prefix_for_magic: List[Atom] = [magic_head_atom]
    for atom in rule.body:
        if atom.pred in program.idb:
            adornment = _atom_adornment(atom, bound_vars)
            pending.append((atom.pred, adornment))
            bound = _bound_args(atom, adornment)
            # Demand rule: what this occurrence asks of the sub-goal. Even
            # a fully free sub-goal needs its (nullary) magic fact derived,
            # or its guarded rules could never fire.
            out.append(
                Rule(
                    Atom(_magic_name(atom.pred, adornment), bound),
                    tuple(prefix_for_magic),
                )
            )
            adorned_atom = Atom(_adorned_name(atom.pred, adornment), atom.args)
            new_body.append(adorned_atom)
            prefix_for_magic.append(adorned_atom)
        else:
            new_body.append(atom)
            prefix_for_magic.append(atom)
        bound_vars |= atom.variables()
    out.append(
        Rule(Atom(_adorned_name(head.pred, head_adornment), head.args), tuple(new_body))
    )
    return out


def magic_holds(
    query: DatalogQuery,
    database: Database,
    tup: Sequence,
) -> bool:
    """Goal-directed check ``t in Q(D)`` via the magic-set rewriting."""
    result = magic_evaluate(query, database, tup)
    return result.goal_holds


@dataclass
class MagicEvaluation:
    """Evaluation outcome plus bookkeeping for the ablation benchmark."""

    goal_holds: bool
    rewriting: MagicRewriting
    evaluation: EvaluationResult
    derived_facts: int


def magic_evaluate(
    query: DatalogQuery,
    database: Database,
    tup: Sequence,
) -> MagicEvaluation:
    """Evaluate the rewritten program and report how much was derived."""
    rewriting = magic_rewrite(query, tup)
    extended = database.copy()
    extended.add(rewriting.seed)
    result = evaluate(rewriting.program, extended)
    derived = len(result.model) - len(extended)
    return MagicEvaluation(
        goal_holds=rewriting.goal in result.model,
        rewriting=rewriting,
        evaluation=result,
        derived_facts=derived,
    )
