"""Compiled join plans: differential properties against the interpreted engine.

The compiled engine (`repro.datalog.plans`) must be observationally
identical to the interpreted one — same model, same ranks, same rounds,
same derivation count, same instance *set* — over arbitrary programs,
databases, and update sequences. These tests drive both engines over the
synthetic workload families plus hand-built edge cases (long bodies past
the codegen limit, constants in rules, repeated variables), and pin the
two `unify.py` satellites: the delta-seeded join ordering fix and the
incremental `plan_order` rewrite.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datalog.atoms import Atom
from repro.datalog.database import Database, Delta, IntRelation
from repro.datalog.engine import evaluate, maintain_evaluation
from repro.datalog.parser import parse_database, parse_program
from repro.datalog.plans import (
    DEFAULT_ENGINE,
    ENGINE_ENV,
    MAX_CODEGEN_BODY,
    PlanContext,
    SymbolTable,
    compile_rule,
    resolve_engine,
)
from repro.datalog.program import DatalogQuery
from repro.datalog.rules import Rule
from repro.datalog.terms import Variable
from repro.datalog.unify import match_body_with_delta, plan_order
from repro.core.session import ProvenanceSession

from strategies import rule_bodies, synthetic_instances

X, Y, Z, W = Variable("x"), Variable("y"), Variable("z"), Variable("w")

TC = parse_program(
    """
    tc(X, Y) :- e(X, Y).
    tc(X, Z) :- tc(X, Y), e(Y, Z).
    """
)

PATH_DB = Database(parse_database("e(a, b). e(b, c). e(c, d)."))

differential_settings = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _fingerprint(result):
    """The observable signature both engines must agree on."""
    return (
        set(result.model),
        result.ranks,
        result.rounds,
        result.derivations,
        None if result.instances is None else set(result.instances),
    )


class TestEngineDifferential:
    @given(instance=synthetic_instances(rounds=st.just(0)))
    @differential_settings
    def test_engines_agree_on_evaluation(self, instance):
        program = instance.query.program
        interpreted = evaluate(
            program, instance.database, record_instances=True, engine="interpreted"
        )
        compiled = evaluate(
            program, instance.database, record_instances=True, engine="compiled"
        )
        assert _fingerprint(interpreted) == _fingerprint(compiled)
        assert interpreted.engine == "interpreted"
        assert compiled.engine == "compiled"

    @given(instance=synthetic_instances(rounds=st.integers(1, 3)))
    @differential_settings
    def test_engines_agree_across_update_sequences(self, instance):
        program = instance.query.program
        databases = {
            "interpreted": instance.database.copy(),
            "compiled": instance.database.copy(),
        }
        context = PlanContext()
        evaluations = {
            "interpreted": evaluate(
                program,
                databases["interpreted"],
                record_instances=True,
                engine="interpreted",
            ),
            "compiled": evaluate(
                program,
                databases["compiled"],
                record_instances=True,
                engine="compiled",
                plan_context=context,
            ),
        }
        for delta in instance.deltas:
            effective = databases["interpreted"].apply(delta)
            databases["compiled"].apply(delta)
            evaluations["interpreted"] = maintain_evaluation(
                program,
                databases["interpreted"],
                evaluations["interpreted"],
                effective,
                engine="interpreted",
            ).evaluation
            evaluations["compiled"] = maintain_evaluation(
                program,
                databases["compiled"],
                evaluations["compiled"],
                effective,
                engine="compiled",
                plan_context=context,
            ).evaluation
            assert _fingerprint(evaluations["interpreted"]) == _fingerprint(
                evaluations["compiled"]
            )
            # Both maintained results must also match a cold compiled run.
            cold = evaluate(
                program,
                databases["compiled"],
                record_instances=True,
                engine="compiled",
            )
            assert set(cold.model) == set(evaluations["compiled"].model)
            assert cold.ranks == evaluations["compiled"].ranks
            assert set(cold.instances) == set(evaluations["compiled"].instances)

    @pytest.mark.parametrize("engine", ["interpreted", "compiled"])
    def test_empty_database(self, engine):
        result = evaluate(TC, Database(), record_instances=True, engine=engine)
        assert result.model == set()
        assert result.rounds == 0
        assert tuple(result.instances) == () and len(result.instances) == 0

    def test_constants_and_repeated_variables(self):
        program = parse_program(
            """
            loop(X) :- e(X, X).
            from_a(Y) :- e(a, Y).
            pair(X, Y) :- from_a(X), from_a(Y), e(X, Y).
            """
        )
        db = Database(parse_database("e(a, a). e(a, b). e(b, c). e(a, c)."))
        interpreted = evaluate(program, db, record_instances=True, engine="interpreted")
        compiled = evaluate(program, db, record_instances=True, engine="compiled")
        assert _fingerprint(interpreted) == _fingerprint(compiled)
        assert Atom("loop", ("a",)) in compiled.model

    def test_long_body_uses_generic_executor(self):
        # 40 atoms is far past the codegen nesting limit; the generic
        # executor must agree with the interpreted join (and not recurse).
        chain_db = Database(Atom("e", (f"n{i}", f"n{i+1}")) for i in range(50))
        variables = [Variable(f"v{i}") for i in range(41)]
        body = tuple(
            Atom("e", (variables[i], variables[i + 1])) for i in range(40)
        )
        rule = Rule(Atom("path", (variables[0], variables[40])), body)
        from repro.datalog.program import Program

        program = Program([rule])
        assert len(body) > MAX_CODEGEN_BODY
        plan = PlanContext().plan_for(rule, None, chain_db)
        assert plan.source is None  # generic executor, not codegen
        interpreted = evaluate(program, chain_db, record_instances=True, engine="interpreted")
        compiled = evaluate(program, chain_db, record_instances=True, engine="compiled")
        assert _fingerprint(interpreted) == _fingerprint(compiled)
        assert sum(1 for f in compiled.model if f.pred == "path") == 11

    def test_zero_arity_predicates(self):
        from repro.datalog.program import Program

        flag = Rule(Atom("flag", ()), (Atom("e", (X, Y)),))
        done = Rule(Atom("done", ("ok",)), (Atom("flag", ()),))
        program = Program([flag, done])
        interpreted = evaluate(program, PATH_DB, record_instances=True, engine="interpreted")
        compiled = evaluate(program, PATH_DB, record_instances=True, engine="compiled")
        assert _fingerprint(interpreted) == _fingerprint(compiled)
        assert Atom("done", ("ok",)) in compiled.model


class TestPlanCache:
    def test_plans_compile_once_and_reuse_across_rounds(self):
        context = PlanContext()
        result = evaluate(
            TC, PATH_DB, record_instances=True, engine="compiled", plan_context=context
        )
        # TC: one EDB-only rule plan + one (rule, delta-pos) plan.
        assert result.plans_compiled == 2
        assert context.compiled == 2
        # 3 productive rounds + the saturating round reuse the tc-plan.
        assert result.plan_reuses >= 2

    def test_plans_reused_across_updates(self):
        query = DatalogQuery(TC, "tc")
        session = ProvenanceSession(query, PATH_DB.copy(), engine="compiled")
        session.evaluation
        compiled_after_eval = session.stats.plans_compiled
        assert compiled_after_eval == 2
        session.update(Delta.insert(Atom("e", ("d", "e"))))
        # The insertion pivot on the EDB position compiles two new plans
        # (rule bodies pivoting on ``e``); the tc-pivot plan is reused.
        assert session.stats.plan_reuses > 0
        reuses_first = session.stats.plan_reuses
        compiled_first = session.stats.plans_compiled
        session.update(Delta.insert(Atom("e", ("e", "f"))))
        # Second update: every pivot position has a cached plan already.
        assert session.stats.plans_compiled == compiled_first
        assert session.stats.plan_reuses > reuses_first

    def test_invalidate_drops_plan_context(self):
        query = DatalogQuery(TC, "tc")
        session = ProvenanceSession(query, PATH_DB.copy(), engine="compiled")
        session.evaluation
        assert session._plan_context is not None
        session.invalidate()
        assert session._plan_context is None

    def test_interpreted_session_has_no_plan_context(self):
        query = DatalogQuery(TC, "tc")
        session = ProvenanceSession(query, PATH_DB.copy(), engine="interpreted")
        session.evaluation
        assert session.plan_context() is None
        assert session.stats.plans_compiled == 0
        assert session.evaluation.engine == "interpreted"


class TestEngineKnob:
    def test_resolve_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV, "interpreted")
        assert resolve_engine("compiled") == "compiled"
        assert resolve_engine(None) == "interpreted"

    def test_resolve_default(self, monkeypatch):
        monkeypatch.delenv(ENGINE_ENV, raising=False)
        assert resolve_engine() == DEFAULT_ENGINE

    def test_resolve_rejects_unknown(self, monkeypatch):
        with pytest.raises(ValueError):
            resolve_engine("vectorized")
        monkeypatch.setenv(ENGINE_ENV, "typo")
        with pytest.raises(ValueError):
            resolve_engine()

    def test_naive_method_stays_interpreted(self):
        result = evaluate(TC, PATH_DB, method="naive", engine="compiled")
        assert result.engine == "interpreted"


class TestSymbolsAndRelations:
    def test_symbol_table_is_stable(self):
        symbols = SymbolTable()
        a = symbols.intern("a")
        b = symbols.intern("b")
        assert symbols.intern("a") == a
        assert symbols.value(a) == "a"
        assert symbols.value(b) == "b"
        assert len(symbols) == 2

    def test_int_relation_index_maintenance(self):
        relation = IntRelation()
        relation.add((1, 2))
        index = relation.index_for((0,))
        assert index == {(1,): [(1, 2)]}
        # Adds after materialization keep the pattern index current.
        relation.add((1, 3))
        relation.add((2, 4))
        assert index[(1,)] == [(1, 2), (1, 3)]
        assert relation.discard((1, 2))
        assert index[(1,)] == [(1, 3)]
        assert relation.discard((2, 4))
        assert (2,) not in index
        assert not relation.discard((9, 9))

    def test_position_cardinalities(self):
        db = Database(parse_database("e(a, b). e(a, c). e(b, c)."))
        assert db.position_cardinalities("e") == (2, 2)
        assert db.position_cardinalities("missing") == ()

    def test_compiled_plan_source_is_generated(self):
        rule = TC.rules[1]  # tc(X, Z) :- tc(X, Y), e(Y, Z).
        plan = compile_rule(rule, 0, SymbolTable(), PATH_DB)
        assert plan.source is not None
        assert "_join" in plan.source
        assert plan.body_preds == ("tc", "e")


class _CountingDatabase(Database):
    """A database that counts every candidate fact its indexes yield."""

    __slots__ = ("candidates",)

    def __init__(self, facts=()):
        self.candidates = 0
        super().__init__(facts)

    def matching(self, pred, bindings):
        for fact in super().matching(pred, bindings):
            self.candidates += 1
            yield fact


class TestDeltaJoinOrdering:
    def test_delta_seeds_plan_order(self):
        # body: delta atom binds X; the raw input order would scan the
        # wide unrelated a-relation next (cross product), while seeding
        # plan_order with the delta variables joins e(X, Y) first.
        n = 50
        body = (Atom("d", (X,)), Atom("a", (Y, Z)), Atom("e", (X, Y)))
        facts = [Atom("e", ("x0", "y0"))]
        facts += [Atom("a", (f"y{i}", f"z{i}")) for i in range(n)]
        database = _CountingDatabase(facts)
        delta = Database([Atom("d", ("x0",))])
        results = list(match_body_with_delta(body, database, delta, 0))
        assert len(results) == 1
        assert results[0][Y] == "y0"
        # Planned: e-probe (1 candidate) then a-probe keyed on Y (1
        # candidate). The pre-fix raw order scanned all n a-facts.
        assert database.candidates <= 4, (
            f"delta join enumerated {database.candidates} candidates; "
            "the non-delta atoms are not being planned"
        )

    def test_delta_match_results_unchanged(self):
        # The ordering fix must not change the *set* of substitutions.
        body = (Atom("tc", (X, Y)), Atom("e", (Y, Z)))
        delta = Database([Atom("tc", ("a", "b"))])
        results = {
            (s[X], s[Y], s[Z])
            for s in match_body_with_delta(body, PATH_DB, delta, 0)
        }
        assert results == {("a", "b", "c")}


def _reference_plan_order(body, base=None):
    """The pre-rewrite quadratic plan_order, kept as the property oracle."""
    remaining = list(enumerate(body))
    bound = set(base) if base else set()
    order = []
    while remaining:
        def score(item):
            idx, atom = item
            vs = atom.variables()
            n_bound = len(vs & bound)
            n_unbound = len(vs - bound)
            return (-n_bound, n_unbound, idx)

        remaining.sort(key=score)
        idx, atom = remaining.pop(0)
        order.append(atom)
        bound |= atom.variables()
    return order


class TestPlanOrderRewrite:
    @given(body=rule_bodies(), seed_x=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_order_matches_reference(self, body, seed_x):
        base = {Variable("v0"): "c0"} if seed_x else None
        assert plan_order(body, base) == _reference_plan_order(body, base)

    def test_keeps_all_atoms(self):
        body = [Atom("e", (X, Y)), Atom("f", (Z,)), Atom("g", (Y, Z))]
        assert sorted(map(str, plan_order(body))) == sorted(map(str, body))

    def test_bound_vars_seed(self):
        body = [Atom("a", (Y, Z)), Atom("e", (X, Y))]
        # Without seeding, input order wins the tie; with X bound the
        # e-atom is picked first.
        assert plan_order(body)[0] == body[0]
        assert plan_order(body, bound_vars={X})[0] == body[1]
