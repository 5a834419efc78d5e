"""Unit tests for rules, ground rules, programs, and queries."""

import pickle

import pytest

from repro.datalog.atoms import Atom
from repro.datalog.program import DatalogQuery, Program
from repro.datalog.rules import GroundRule, Rule, check_variable_matching
from repro.datalog.terms import Variable

X, Y, Z = Variable("x"), Variable("y"), Variable("z")


def tc_rules():
    return [
        Rule(Atom("tc", (X, Y)), (Atom("e", (X, Y)),)),
        Rule(Atom("tc", (X, Z)), (Atom("tc", (X, Y)), Atom("e", (Y, Z)))),
    ]


class TestRule:
    def test_safety_enforced(self):
        with pytest.raises(ValueError, match="unsafe"):
            Rule(Atom("p", (X, Y)), (Atom("q", (X,)),))

    def test_empty_body_rejected(self):
        with pytest.raises(ValueError):
            Rule(Atom("p", (X,)), ())

    def test_constants_allowed_and_reported(self):
        rule = Rule(Atom("p", (X,)), (Atom("q", (X, "a")),))
        assert not rule.is_constant_free()
        assert rule.constants() == {"a"}
        assert tc_rules()[0].is_constant_free()

    def test_equality_and_hash(self):
        assert tc_rules()[0] == tc_rules()[0]
        assert tc_rules()[0] != tc_rules()[1]
        assert len(set(tc_rules() + tc_rules())) == 2

    def test_variables(self):
        assert tc_rules()[1].variables() == {X, Y, Z}

    def test_str(self):
        assert str(tc_rules()[0]) == "tc(x, y) :- e(x, y)."

    def test_instantiate(self):
        ground = tc_rules()[0].instantiate({X: "a", Y: "b"})
        assert ground.head == Atom("tc", ("a", "b"))
        assert ground.body == (Atom("e", ("a", "b")),)

    def test_instantiate_missing_variable(self):
        with pytest.raises(ValueError, match="misses"):
            tc_rules()[1].instantiate({X: "a", Y: "b"})

    def test_rename_apart(self):
        renamed = tc_rules()[1].rename_apart("_1")
        assert renamed.variables().isdisjoint(tc_rules()[1].variables())
        # Structure preserved.
        assert renamed.head.pred == "tc"
        assert [a.pred for a in renamed.body] == ["tc", "e"]


class TestGroundRule:
    def test_requires_ground_atoms(self):
        rule = tc_rules()[0]
        with pytest.raises(ValueError):
            GroundRule(rule, Atom("tc", (X, "b")), (Atom("e", ("a", "b")),))

    def test_body_set_dedupes(self):
        rule = Rule(Atom("p", (X,)), (Atom("q", (X, Y)), Atom("q", (X, Z))))
        ground = rule.instantiate({X: "a", Y: "b", Z: "b"})
        assert ground.body == (Atom("q", ("a", "b")), Atom("q", ("a", "b")))
        assert ground.body_set() == frozenset({Atom("q", ("a", "b"))})

    def test_unchecked_constructor_matches_checked(self):
        rule = tc_rules()[1]
        head = Atom("tc", ("a", "c"))
        body = (Atom("tc", ("a", "b")), Atom("e", ("b", "c")))
        checked = GroundRule(rule, head, body)
        unchecked = GroundRule.unchecked(rule, head, body)
        assert unchecked == checked and hash(unchecked) == hash(checked)
        assert (unchecked.rule, unchecked.head, unchecked.body) == (rule, head, body)
        with pytest.raises(AttributeError):
            unchecked.head = head
        for instance in (checked, unchecked):
            restored = pickle.loads(pickle.dumps(instance))
            assert restored == checked and hash(restored) == hash(checked)
            assert restored.rule == rule

    def test_equality_ignores_source_rule(self):
        r1, r2 = tc_rules()
        g1 = GroundRule(r1, Atom("tc", ("a", "b")), (Atom("e", ("a", "b")),))
        g2 = GroundRule(r2, Atom("tc", ("a", "b")), (Atom("e", ("a", "b")),))
        assert g1 == g2


class TestCheckVariableMatching:
    def test_positive(self):
        rule = tc_rules()[1]
        assert check_variable_matching(
            rule,
            Atom("tc", ("a", "c")),
            (Atom("tc", ("a", "b")), Atom("e", ("b", "c"))),
        )

    def test_repeated_variable_consistency(self):
        rule = Rule(Atom("p", (X,)), (Atom("q", (X, X)),))
        assert check_variable_matching(rule, Atom("p", ("a",)), (Atom("q", ("a", "a")),))
        assert not check_variable_matching(rule, Atom("p", ("a",)), (Atom("q", ("a", "b")),))

    def test_wrong_predicate_or_length(self):
        rule = tc_rules()[0]
        assert not check_variable_matching(rule, Atom("e", ("a", "b")), (Atom("e", ("a", "b")),))
        assert not check_variable_matching(rule, Atom("tc", ("a", "b")), ())

    def test_constant_in_rule(self):
        rule = Rule(Atom("p", (X,)), (Atom("q", (X, "k")),))
        assert check_variable_matching(rule, Atom("p", ("a",)), (Atom("q", ("a", "k")),))
        assert not check_variable_matching(rule, Atom("p", ("a",)), (Atom("q", ("a", "j")),))


class TestProgram:
    def test_edb_idb_split(self):
        program = Program(tc_rules())
        assert program.idb == {"tc"}
        assert program.edb == {"e"}
        assert program.schema == {"tc", "e"}

    def test_arity_map_and_conflict(self):
        program = Program(tc_rules())
        assert program.arity("tc") == 2
        with pytest.raises(KeyError):
            program.arity("nope")
        with pytest.raises(ValueError, match="arities"):
            Program([
                Rule(Atom("p", (X,)), (Atom("q", (X,)),)),
                Rule(Atom("p", (X, Y)), (Atom("q", (X,)), Atom("q", (Y,)))),
            ])

    def test_empty_program_rejected(self):
        with pytest.raises(ValueError):
            Program([])

    def test_dedupe_preserves_order(self):
        rules = tc_rules()
        program = Program(rules + rules)
        assert list(program.rules) == rules

    def test_linear_classification(self):
        assert Program(tc_rules()).is_linear()
        nonlinear = Program([
            Rule(Atom("a", (X,)), (Atom("s", (X,)),)),
            Rule(Atom("a", (X,)), (Atom("a", (Y,)), Atom("a", (Z,)), Atom("t", (Y, Z, X)))),
        ])
        assert not nonlinear.is_linear()

    def test_recursive_classification(self):
        assert Program(tc_rules()).is_recursive()
        nonrec = Program([
            Rule(Atom("p", (X,)), (Atom("q", (X,)),)),
            Rule(Atom("r", (X,)), (Atom("p", (X,)),)),
        ])
        assert nonrec.is_non_recursive()
        assert nonrec.classify() == "NRDat"

    def test_self_loop_is_recursive(self):
        program = Program([
            Rule(Atom("p", (X,)), (Atom("p", (X,)), Atom("q", (X,)))),
            Rule(Atom("p", (X,)), (Atom("q", (X,)),)),
        ])
        assert program.is_recursive()

    def test_classify_all_classes(self):
        assert Program(tc_rules()).classify() == "LDat"
        nonlinear_recursive = Program([
            Rule(Atom("a", (X,)), (Atom("s", (X,)),)),
            Rule(Atom("a", (X,)), (Atom("a", (Y,)), Atom("a", (Z,)), Atom("t", (Y, Z, X)))),
        ])
        assert nonlinear_recursive.classify() == "Dat"

    def test_predicate_graph(self):
        graph = Program(tc_rules()).predicate_graph()
        assert graph["e"] == {"tc"}
        assert graph["tc"] == {"tc"}

    def test_rules_for(self):
        program = Program(tc_rules())
        assert len(program.rules_for("tc")) == 2
        assert program.rules_for("e") == ()

    def test_bounds(self):
        program = Program(tc_rules())
        assert program.max_body_length() == 2
        assert program.max_arity() == 2

    def test_stratification_layers_respect_dependencies(self):
        program = Program([
            Rule(Atom("p", (X,)), (Atom("q", (X,)),)),
            Rule(Atom("r", (X,)), (Atom("p", (X,)),)),
        ])
        strata = program.stratification()
        level = {pred: i for i, layer in enumerate(strata) for pred in layer}
        assert level["q"] < level["p"] < level["r"]


class TestDatalogQuery:
    def test_answer_predicate_must_be_intensional(self):
        program = Program(tc_rules())
        with pytest.raises(ValueError):
            DatalogQuery(program, "e")
        query = DatalogQuery(program, "tc")
        assert query.answer_arity == 2

    def test_answer_atom(self):
        query = DatalogQuery(Program(tc_rules()), "tc")
        assert query.answer_atom(("a", "b")) == Atom("tc", ("a", "b"))
        with pytest.raises(ValueError):
            query.answer_atom(("a",))

    def test_classify_delegates(self):
        query = DatalogQuery(Program(tc_rules()), "tc")
        assert query.classify() == "LDat"
        assert query.is_linear()
        assert not query.is_non_recursive()
