"""Datalog rules.

A rule ``R0(x0) :- R1(x1), ..., Rn(xn)`` (Section 2) has a single head atom
and a non-empty body; every head variable must occur in the body (safety).
Rules in the core definition are constant-free, but — as the paper itself
does in its reductions and in the downward-closure rewriting (Appendix D.3)
— we allow constants in rules and merely record whether a rule is
constant-free.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Tuple

from .atoms import Atom
from .terms import Term, Variable, is_variable


class Rule:
    """An immutable Datalog rule: one head atom, a tuple of body atoms."""

    __slots__ = ("head", "body", "_hash")

    def __init__(self, head: Atom, body: Iterable[Atom]):
        body = tuple(body)
        if not body:
            raise ValueError(f"rule for {head} must have a non-empty body")
        head_vars = head.variables()
        body_vars = set()
        for atom in body:
            body_vars |= atom.variables()
        unsafe = head_vars - body_vars
        if unsafe:
            names = ", ".join(sorted(v.name for v in unsafe))
            raise ValueError(f"unsafe rule: head variables {{{names}}} not in body")
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "body", body)
        object.__setattr__(self, "_hash", hash((head, body)))

    def __setattr__(self, key, value):
        raise AttributeError("Rule is immutable")

    def __reduce__(self):
        # Constructor-based pickling: slots + the blocking __setattr__
        # defeat the default protocol, and re-validation on load is cheap.
        return (Rule, (self.head, self.body))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Rule)
            and self.head == other.head
            and self.body == other.body
        )

    def __ne__(self, other: object) -> bool:
        return not self.__eq__(other)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Rule({self.head!r}, {self.body!r})"

    def __str__(self) -> str:
        body = ", ".join(str(a) for a in self.body)
        return f"{self.head} :- {body}."

    # -- structure --------------------------------------------------------

    def variables(self) -> set:
        """All variables occurring in the rule."""
        vs = self.head.variables()
        for atom in self.body:
            vs |= atom.variables()
        return vs

    def constants(self) -> set:
        """All constants occurring in the rule."""
        cs = self.head.constants()
        for atom in self.body:
            cs |= atom.constants()
        return cs

    def is_constant_free(self) -> bool:
        """Return ``True`` iff no constant appears in the rule."""
        return not self.constants()

    def predicates(self) -> set:
        """All predicates mentioned by the rule."""
        return {self.head.pred, *(a.pred for a in self.body)}

    # -- instantiation ----------------------------------------------------

    def instantiate(self, mapping: Mapping[Variable, Term]) -> "GroundRule":
        """Ground the rule with *mapping*; every variable must be mapped."""
        missing = {v for v in self.variables() if v not in mapping}
        if missing:
            names = ", ".join(sorted(v.name for v in missing))
            raise ValueError(f"instantiation misses variables {{{names}}}")
        head = self.head.ground(mapping)
        body = tuple(a.ground(mapping) for a in self.body)
        return GroundRule(self, head, body)

    def rename_apart(self, suffix: str) -> "Rule":
        """Return a variant of the rule with every variable renamed.

        Used when rules from different programs are combined (e.g., in the
        downward-closure rewriting) and variable capture must be avoided.
        """
        mapping = {v: Variable(v.name + suffix) for v in self.variables()}
        return Rule(
            self.head.substitute(mapping),
            tuple(a.substitute(mapping) for a in self.body),
        )


class GroundRule:
    """A fully instantiated rule: the witness of one derivation step.

    A ground rule records the originating rule together with the ground head
    and ground body. The *body set* (deduplicated) is what becomes a
    hyperedge of the graph of rule instances (Definition 42).
    """

    __slots__ = ("rule", "head", "body", "_hash")

    def __init__(self, rule: Rule, head: Atom, body: Tuple[Atom, ...]):
        # Atom.is_fact's checks, inlined: ground_instances builds one
        # ground rule per instance of the whole model.
        for term in head.args:
            if isinstance(term, Variable):
                raise ValueError(f"ground rule head {head} is not a fact")
        body = tuple(body)
        for atom in body:
            for term in atom.args:
                if isinstance(term, Variable):
                    raise ValueError(f"ground rule body atom {atom} is not a fact")
        object.__setattr__(self, "rule", rule)
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "body", body)
        object.__setattr__(self, "_hash", hash((head, body)))

    @classmethod
    def unchecked(cls, rule: Rule, head: Atom, body: Tuple[Atom, ...]) -> GroundRule:
        """A ground rule over atoms known to be facts, built without checks.

        For lifting an instance trace's keys, whose atoms were built from
        interned constants: the variable scan of ``__init__`` would
        re-prove that for each lifted instance. *body* must be a tuple.
        Equal to, and hashed and pickled like, the checked instance.
        """
        instance = object.__new__(cls)
        _set_rule(instance, rule)
        _set_head(instance, head)
        _set_body(instance, body)
        _set_hash(instance, hash((head, body)))
        return instance

    def __setattr__(self, key, value):
        raise AttributeError("GroundRule is immutable")

    def __reduce__(self):
        # The pickle memo shares the originating Rule across the many
        # ground instances of an evaluation trace, so a snapshot ships
        # each rule once no matter how often it fired.
        return (GroundRule, (self.rule, self.head, self.body))

    def __eq__(self, other: object) -> bool:
        # Two ground rules with the same ground head and body are the same
        # derivation step for provenance purposes, regardless of which
        # syntactic rule produced them.
        return (
            isinstance(other, GroundRule)
            and self.head == other.head
            and self.body == other.body
        )

    def __ne__(self, other: object) -> bool:
        return not self.__eq__(other)

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        body = ", ".join(str(a) for a in self.body)
        return f"{self.head} :- {body}."

    def __repr__(self) -> str:
        return f"GroundRule({self.head!r}, {self.body!r})"

    def body_set(self) -> frozenset:
        """The deduplicated body — a hyperedge target set (Definition 42)."""
        return frozenset(self.body)


# The slots' own setters skip GroundRule.__setattr__, which refuses every
# write, at about two thirds of object.__setattr__'s cost per call.
_set_rule = GroundRule.rule.__set__
_set_head = GroundRule.head.__set__
_set_body = GroundRule.body.__set__
_set_hash = GroundRule._hash.__set__


def check_variable_matching(rule: Rule, head: Atom, body: Tuple[Atom, ...]) -> bool:
    """Check whether ``(head, body)`` is a legal instantiation of *rule*.

    This realizes condition (3) of Definition 1 / Definition 4: there must be
    a single function ``h`` from the rule's variables to constants mapping
    the rule head to *head* and the i-th body atom to ``body[i]``.
    """
    if head.pred != rule.head.pred or len(body) != len(rule.body):
        return False
    mapping: dict = {}

    def bind(pattern: Atom, target: Atom) -> bool:
        if pattern.pred != target.pred or pattern.arity != target.arity:
            return False
        for p, t in zip(pattern.args, target.args):
            if is_variable(p):
                if p in mapping and mapping[p] != t:
                    return False
                mapping[p] = t
            elif p != t:
                return False
        return True

    if not bind(rule.head, head):
        return False
    for pattern, target in zip(rule.body, body):
        if not bind(pattern, target):
            return False
    return True
