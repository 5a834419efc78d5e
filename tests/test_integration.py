"""Integration tests: the whole pipeline on the paper's worked examples
and on small instances of every scenario family."""

import pytest

from repro import (
    Atom,
    Database,
    DatalogQuery,
    WhyProvenanceEnumerator,
    all_at_once_why,
    decide_membership,
    enumerate_why_unambiguous,
    parse_database,
    parse_program,
    why_provenance_unambiguous,
)
from repro.core.parallel import explain_fact
from repro.core.session import ProvenanceSession
from repro.datalog.engine import evaluate
from repro.harness.runner import sample_answer_tuples
from repro.scenarios import get_scenario


class TestPaperRunningExample:
    """Examples 1-4 of the paper, end to end through the public API."""

    def setup_method(self):
        self.program = parse_program(
            """
            a(X) :- s(X).
            a(X) :- a(Y), a(Z), t(Y, Z, X).
            """
        )
        self.query = DatalogQuery(self.program, "a")
        self.db = Database(parse_database(
            "s(a). t(a, a, b). t(a, a, c). t(a, a, d). t(b, c, a)."
        ))

    def test_example2_why_provenance(self):
        minimal = frozenset(parse_database("s(a). t(a, a, d)."))
        assert decide_membership(self.query, self.db, ("d",), minimal, "arbitrary")
        assert decide_membership(self.query, self.db, ("d",), self.db.facts(), "arbitrary")
        # No other member exists.
        middle = frozenset(parse_database("s(a). t(a, a, b). t(a, a, d)."))
        assert not decide_membership(self.query, self.db, ("d",), middle, "arbitrary")

    def test_example2_unambiguous_via_sat(self):
        family = why_provenance_unambiguous(self.query, self.db, ("d",))
        assert family == frozenset({frozenset(parse_database("s(a). t(a, a, d)."))})

    def test_all_answers_have_provenance(self):
        evaluation = evaluate(self.program, self.db)
        for fact in evaluation.model.relation("a"):
            family = why_provenance_unambiguous(self.query, self.db, fact.args)
            assert family, fact


class TestScenarioPipelines:
    """One tuple per scenario family through build + enumerate + validate."""

    @pytest.mark.parametrize(
        "scenario_name,db_name",
        [
            ("TransClosure", "bitcoin"),
            ("Doctors-2", "D1"),
            ("Galen", "D1"),
            ("Andersen", "D1"),
            ("CSDA", "httpd"),
        ],
    )
    def test_pipeline(self, scenario_name, db_name):
        scenario = get_scenario(scenario_name)
        query = scenario.query()
        db = scenario.database(db_name).restrict(query.program.edb)
        session = ProvenanceSession(query, db)
        tuples = sample_answer_tuples(
            query, db, count=1, seed=3, evaluation=session.evaluation
        )
        assert tuples, "scenario produced no answers"
        run = explain_fact(session, tuples[0], limit=5, timeout_seconds=20)
        assert len(run.members) >= 1
        # Every enumerated member must be a verified unambiguous witness.
        enumerator = WhyProvenanceEnumerator(query, db, tuples[0], session=session)
        for record in enumerator.enumerate(limit=3, timeout_seconds=20):
            assert decide_membership(
                query, db, tuples[0], record.support, "unambiguous"
            )


class TestMembersAreVerifiableProofTrees:
    """Each SAT member decodes to a compressed DAG that unravels into a
    valid unambiguous proof tree with exactly that support."""

    def test_decode_unravel_validate(self):
        program = parse_program(
            """
            a(X) :- s(X).
            a(X) :- a(Y), a(Z), t(Y, Z, X).
            """
        )
        query = DatalogQuery(program, "a")
        db = Database(parse_database(
            "s(a). s(b). t(a, a, c). t(b, b, c). t(c, c, d)."
        ))
        from repro.core.encoder import encode_why_provenance
        from repro.sat.enumeration import enumerate_models
        from repro.sat.solver import CDCLSolver

        encoding = encode_why_provenance(query, db, ("d",))
        solver = CDCLSolver()
        solver.add_cnf(encoding.cnf)
        seen = set()
        while solver.solve():
            model = solver.model()
            dag = encoding.decode_compressed_dag(model)
            dag.validate(program, db, expected_root=Atom("a", ("d",)))
            tree = dag.unravel(program)
            tree.validate(program, db)
            assert tree.is_unambiguous()
            assert tree.support() == encoding.decode_support(model)
            seen.add(tree.support())
            blocking = [
                (-var if model[var] else var)
                for var in encoding.database_fact_vars.values()
            ]
            if not solver.add_clause(blocking):
                break
        assert seen == enumerate_why_unambiguous(query, db, ("d",))


class TestBaselineAgainstPipeline:
    @pytest.mark.parametrize("variant", [1, 2, 5])
    def test_doctors_figure5_agreement(self, variant):
        """For the Doctors family the two approaches compute the same set."""
        from repro.scenarios.doctors import doctors_database, doctors_query

        query = doctors_query(variant)
        db = doctors_database(num_doctors=8, num_patients=10, seed=5)
        db = db.restrict(query.program.edb)
        evaluation = evaluate(query.program, db)
        tuples = sample_answer_tuples(query, db, count=2, seed=1, evaluation=evaluation)
        for tup in tuples:
            sat_family = why_provenance_unambiguous(query, db, tup)
            baseline = all_at_once_why(query, db, tup).members
            assert sat_family == baseline
