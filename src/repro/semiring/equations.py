"""Fixpoint equation systems over semirings.

The paper's introduction cites the equation-system route to
why-provenance (Esparza, Luttenberger, Schlund: *FPsolve*, CIAA 2014):
ground the Datalog program, read every intensional fact as an unknown,
every rule instance as a product of its body facts, alternative instances
as a sum, and solve the resulting polynomial system over the semiring of
interest by Kleene iteration.

This module implements exactly that pipeline on top of the downward
closure (Definition 42), which conveniently *is* the grounded program
restricted to the facts relevant to the goal:

* :func:`system_from_closure` — equations from a downward closure;
* :func:`kleene_solve` — least fixpoint by chaotic iteration, with
  divergence detection for semirings without finite convergence;
* :func:`semiring_provenance` — the one-call front end.

For the :class:`~repro.semiring.semirings.WhySemiring` the front end
computes ``why(t, D, Q)`` itself; for the counting semiring it reports
``INFINITY`` exactly when the fact has infinitely many proof trees
(Example 1); and so on.  These agreements are the module's test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from ..datalog.atoms import Atom
from ..datalog.database import Database
from ..datalog.program import DatalogQuery
from ..provenance.grounding import DownwardClosure, FactNotDerivable, downward_closure
from .semirings import Semiring

#: Annotation function: database fact -> semiring value.  ``None`` means
#: "use the semiring's default tag" (``Semiring.from_fact``).
Annotation = Optional[Callable[[Atom], object]]


class DivergentSystem(RuntimeError):
    """Kleene iteration did not converge and the semiring has no top."""


@dataclass
class EquationSystem:
    """A polynomial fixpoint system ``x_alpha = sum of products``.

    Attributes
    ----------
    equations:
        ``head -> tuple of bodies``; each body is the tuple of facts of
        one rule instance with that head (with multiplicity — a repeated
        body fact contributes a squared factor, matching the multiset
        semantics of proof trees).
    leaves:
        ``fact -> semiring value`` for the extensional facts, i.e. the
        constant terms of the system.
    root:
        The unknown whose value the caller is after.
    """

    equations: Dict[Atom, Tuple[Tuple[Atom, ...], ...]]
    leaves: Dict[Atom, object]
    root: Atom
    dependencies: Dict[Atom, Tuple[Atom, ...]] = field(default_factory=dict)

    def unknowns(self) -> Tuple[Atom, ...]:
        """The intensional facts the system solves for."""
        return tuple(self.equations)

    def size(self) -> int:
        """Total number of body occurrences across all equations."""
        return sum(
            len(body) for bodies in self.equations.values() for body in bodies
        )


def system_from_closure(
    closure: DownwardClosure,
    database: Database,
    semiring: Semiring,
    annotate: Annotation = None,
) -> EquationSystem:
    """Read the downward closure as an equation system over *semiring*.

    Every intensional node becomes an unknown whose defining equation sums
    one product per rule instance deriving it; database nodes become
    constants annotated via *annotate* (default: the semiring's tag).
    """
    tag = annotate if annotate is not None else semiring.from_fact
    leaves = {fact: tag(fact) for fact in closure.nodes if fact in database}
    equations: Dict[Atom, Tuple[Tuple[Atom, ...], ...]] = {}
    for head, instances in closure.instances_by_head.items():
        if head in database:
            # A fact can be both stored and derivable; the stored copy is
            # a leaf of proof trees, so it stays a constant (the paper's
            # proof trees always treat database facts as leaves).
            continue
        equations[head] = tuple(instance.body for instance in instances)
    return EquationSystem(equations=equations, leaves=leaves, root=closure.root)


def kleene_solve(
    system: EquationSystem,
    semiring: Semiring,
    max_rounds: Optional[int] = None,
) -> Dict[Atom, object]:
    """Least fixpoint of *system* over *semiring* by Kleene iteration.

    Starting from ``zero`` everywhere, repeatedly re-evaluate every
    equation until nothing changes.  For omega-continuous semirings the
    limit of this chain is the least fixpoint; when the semiring promises
    ``finite_convergence`` the chain stabilizes after finitely many rounds
    because the reachable carrier is finite.

    Semirings without that promise (counting, polynomials) may ascend
    forever on recursive inputs.  Values of an *n*-unknown system that are
    going to stabilize at a finite value do so within ``n`` rounds (any
    longer strictly-ascending chain must traverse a cycle of the closure,
    whose contribution is unbounded), so after ``max_rounds`` (default
    ``n + 1``) the still-changing unknowns are saturated to
    ``semiring.top()`` and iteration resumes; if the semiring has no top,
    :class:`DivergentSystem` is raised.
    """
    values: Dict[Atom, object] = dict(system.leaves)
    for unknown in system.equations:
        values.setdefault(unknown, semiring.zero())

    def evaluate(head: Atom):
        total = semiring.zero()
        for body in system.equations[head]:
            product = semiring.product(values[fact] for fact in body)
            total = semiring.plus(total, product)
        return total

    bound = max_rounds
    if bound is None:
        bound = len(system.equations) + 1
    rounds = 0
    while True:
        rounds += 1
        changed = set()
        for head in system.equations:
            new_value = evaluate(head)
            if not semiring.equal(new_value, values[head]):
                values[head] = new_value
                changed.add(head)
        if not changed:
            return values
        if not semiring.finite_convergence and rounds >= bound:
            try:
                top = semiring.top()
            except NotImplementedError:
                raise DivergentSystem(
                    f"{semiring.name} iteration still changing after "
                    f"{rounds} rounds and the semiring has no top element"
                ) from None
            for head in changed:
                values[head] = top
            # One more pass lets top propagate; since top is absorbing for
            # plus, the system then stabilizes (re-checked by the loop).


def semiring_provenance(
    query: DatalogQuery,
    database: Database,
    tup: Tuple,
    semiring: Semiring,
    annotate: Annotation = None,
    max_rounds: Optional[int] = None,
):
    """The *semiring* annotation of the answer *tup* of *query* over *database*.

    Builds the downward closure of ``R(t)``, converts it into an equation
    system and solves it.  Returns ``semiring.zero()`` when the tuple is
    not an answer at all (no proof tree exists).
    """
    fact = query.answer_atom(tup)
    try:
        closure = downward_closure(query.program, database, fact)
    except FactNotDerivable:
        return semiring.zero()
    system = system_from_closure(closure, database, semiring, annotate)
    if fact in database:
        # The goal itself is extensional; its annotation is its tag.
        return system.leaves[fact]
    values = kleene_solve(system, semiring, max_rounds=max_rounds)
    return values[fact]
