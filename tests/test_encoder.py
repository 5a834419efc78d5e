"""Tests for the SAT encoding ``phi_(t, D, Q)`` (Section 5.1 / App. D.2)."""

import hashlib
import json

import pytest

from repro.datalog.database import Database
from repro.datalog.parser import parse_database, parse_program
from repro.datalog.program import DatalogQuery
from repro.provenance.enumerate import enumerate_why_unambiguous
from repro.provenance.grounding import FactNotDerivable
from repro.sat.enumeration import enumerate_models
from repro.sat.solver import CDCLSolver
from repro.core.encoder import encode_why_provenance
from repro.core.session import ProvenanceSession
from repro.scenarios import get_scenario

PROGRAM = parse_program(
    """
    a(X) :- s(X).
    a(X) :- a(Y), a(Z), t(Y, Z, X).
    """
)
QUERY = DatalogQuery(PROGRAM, "a")
DB1 = Database(parse_database(
    "s(a). t(a, a, b). t(a, a, c). t(a, a, d). t(b, c, a)."
))
DB4 = Database(parse_database(
    "s(a). s(b). t(a, a, c). t(b, b, c). t(c, c, d)."
))


def sat_supports(encoding):
    solver = CDCLSolver()
    solver.add_cnf(encoding.cnf)
    projection = encoding.projection_variables()
    supports = set()
    for record in enumerate_models(encoding.cnf, projection=projection, solver=solver):
        supports.add(
            frozenset(
                fact
                for fact, var in encoding.database_fact_vars.items()
                if record.assignment[var]
            )
        )
    return frozenset(supports)


class TestProposition15:
    """whyUN(t, D, Q) == [[phi]] — models project exactly onto members."""

    @pytest.mark.parametrize("db,tup", [
        (DB1, ("d",)), (DB1, ("a",)), (DB1, ("b",)),
        (DB4, ("d",)), (DB4, ("c",)),
    ])
    @pytest.mark.parametrize("acyclicity", ["vertex-elimination", "transitive-closure"])
    def test_models_equal_oracle(self, db, tup, acyclicity):
        encoding = encode_why_provenance(QUERY, db, tup, acyclicity=acyclicity)
        assert sat_supports(encoding) == enumerate_why_unambiguous(QUERY, db, tup)


class TestModelDecoding:
    def test_decoded_dag_is_valid_compressed_dag(self):
        encoding = encode_why_provenance(QUERY, DB1, ("d",))
        solver = CDCLSolver()
        solver.add_cnf(encoding.cnf)
        assert solver.solve()
        dag = encoding.decode_compressed_dag(solver.model())
        dag.validate(PROGRAM, DB1, expected_root=QUERY.answer_atom(("d",)))
        assert dag.support() == encoding.decode_support(solver.model())

    def test_decoded_tree_is_unambiguous(self):
        encoding = encode_why_provenance(QUERY, DB4, ("d",))
        solver = CDCLSolver()
        solver.add_cnf(encoding.cnf)
        assert solver.solve()
        dag = encoding.decode_compressed_dag(solver.model())
        tree = dag.unravel(PROGRAM)
        tree.validate(PROGRAM, DB4)
        assert tree.is_unambiguous()

    def test_compressed_dag_requires_single_copy(self):
        encoding = encode_why_provenance(QUERY, DB4, ("d",), copies=2)
        with pytest.raises(ValueError):
            encoding.decode_compressed_dag({})


class TestMembershipAssumptions:
    def test_accepting_assumptions(self):
        encoding = encode_why_provenance(QUERY, DB1, ("d",))
        member = frozenset(parse_database("s(a). t(a, a, d)."))
        assumptions = encoding.membership_assumptions(member)
        solver = CDCLSolver()
        solver.add_cnf(encoding.cnf)
        assert solver.solve(assumptions=assumptions)

    def test_rejecting_assumptions(self):
        encoding = encode_why_provenance(QUERY, DB1, ("d",))
        non_member = frozenset(parse_database("s(a). t(a, a, b)."))
        assumptions = encoding.membership_assumptions(non_member)
        solver = CDCLSolver()
        solver.add_cnf(encoding.cnf)
        assert not solver.solve(assumptions=assumptions)

    def test_out_of_closure_subset(self):
        tc = parse_program(
            """
            tc(X, Y) :- e(X, Y).
            tc(X, Z) :- tc(X, Y), e(Y, Z).
            """
        )
        tc_query = DatalogQuery(tc, "tc")
        tc_db = Database(parse_database("e(a, b). e(b, c)."))
        encoding = encode_why_provenance(tc_query, tc_db, ("a", "b"))
        # e(b, c) is not in the downward closure of tc(a, b).
        outside = frozenset(parse_database("e(a, b). e(b, c)."))
        assert encoding.membership_assumptions(outside) is None


class TestCopiesGeneralization:
    def test_copies_two_accepts_example4_full_database(self):
        """The full DB of Example 4 needs two nodes labeled a(c)."""
        enc1 = encode_why_provenance(QUERY, DB4, ("d",), copies=1)
        enc2 = encode_why_provenance(QUERY, DB4, ("d",), copies=2)
        full = DB4.facts()
        for enc, expected in ((enc1, False), (enc2, True)):
            solver = CDCLSolver()
            solver.add_cnf(enc.cnf)
            assumptions = enc.membership_assumptions(full)
            assert bool(solver.solve(assumptions=assumptions)) is expected

    def test_copies_monotone(self):
        """Every support reachable with k copies stays reachable with k+1."""
        for tup in (("d",), ("c",)):
            s2 = sat_supports(encode_why_provenance(QUERY, DB4, tup, copies=2))
            s3 = sat_supports(encode_why_provenance(QUERY, DB4, tup, copies=3))
            s1 = sat_supports(encode_why_provenance(QUERY, DB4, tup, copies=1))
            assert s1 <= s2 <= s3

    def test_copies_stay_within_why(self):
        from repro.provenance.enumerate import enumerate_why

        why = enumerate_why(QUERY, DB4, ("d",))
        s3 = sat_supports(encode_why_provenance(QUERY, DB4, ("d",), copies=3))
        assert s3 <= why

    def test_invalid_copies(self):
        with pytest.raises(ValueError):
            encode_why_provenance(QUERY, DB1, ("d",), copies=0)


class TestStatsAndErrors:
    def test_stats_populated(self):
        encoding = encode_why_provenance(QUERY, DB1, ("d",))
        stats = encoding.stats
        assert stats.closure_nodes > 0
        assert stats.clauses == len(encoding.cnf.clauses)
        assert stats.acyclicity.method == "vertex-elimination"

    def test_non_answer_raises(self):
        with pytest.raises(FactNotDerivable):
            encode_why_provenance(QUERY, DB1, ("zzz",))

    def test_unknown_acyclicity(self):
        with pytest.raises(ValueError):
            encode_why_provenance(QUERY, DB1, ("d",), acyclicity="magic")

    def test_wrong_closure_root(self):
        from repro.provenance.grounding import downward_closure

        closure = downward_closure(PROGRAM, DB1, QUERY.answer_atom(("b",)))
        with pytest.raises(ValueError, match="rooted"):
            encode_why_provenance(QUERY, DB1, ("d",), closure=closure)


class TestAcyclicityLayer:
    """``phi_acyclic`` constrains only the arcs that can lie on a cycle."""

    def test_non_recursive_closures_get_no_layer(self):
        scenario = get_scenario("Doctors-1")
        query = scenario.query()
        database = scenario.database("D1").restrict(query.program.edb)
        session = ProvenanceSession(query, database)
        answers = session.answers()
        assert answers
        for tup in answers:
            stats = session.encoding(tup).stats.acyclicity
            assert stats.arcs > 0, tup
            layer = (stats.auxiliary_variables, stats.clauses, stats.constrained_arcs)
            assert layer == (0, 0, 0), tup

    def test_recursive_closure_constrains_its_cycle_arcs_only(self):
        encoding = encode_why_provenance(QUERY, DB1, ("d",))
        stats = encoding.stats.acyclicity
        # a(a) -> a(b) -> a(a) and a(a) -> a(c) -> a(a); the arcs to the
        # database facts and from the root a(d) lie on no cycle.
        assert stats.constrained_arcs == 4
        assert stats.arcs == len(encoding.edge_vars) > 4


class TestPhaseHints:
    def test_hints_describe_a_model(self):
        from repro.datalog.engine import evaluate

        evaluation = evaluate(PROGRAM, DB1)
        encoding = encode_why_provenance(QUERY, DB1, ("d",))
        hints = encoding.phase_hints(evaluation.ranks)
        solver = CDCLSolver()
        solver.add_cnf(encoding.cnf)
        solver.set_phases(hints)
        assert solver.solve()
        # The warm start makes the first model the minimal-rank derivation.
        assert encoding.decode_support(solver.model()) == frozenset(
            parse_database("s(a). t(a, a, d).")
        )


def formula_digest(encodings):
    """SHA-256 over each encoding's DIMACS text, projection and fact order."""
    digest = hashlib.sha256()
    for encoding in encodings:
        digest.update(encoding.cnf.to_dimacs().encode())
        digest.update(json.dumps(encoding.projection_variables()).encode())
        digest.update(json.dumps([str(fact) for fact in encoding.database_fact_vars]).encode())
    return digest.hexdigest()


def _session_encodings(scenario, limit=None, **options):
    query = scenario.query()
    database = scenario.database(scenario.database_names()[0]).restrict(query.program.edb)
    session = ProvenanceSession(query, database)
    for tup in session.answers()[:limit]:
        closure = session.closure_for(tup)
        yield encode_why_provenance(query, database, tup, closure=closure, **options)


def _synthetic(family):
    from repro.scenarios.synthetic import synthetic

    return _session_encodings(synthetic(family, 16, 0), limit=5)


def _copies(copies):
    chain = get_scenario("synthetic-chain-n16-s0")
    yield from _session_encodings(chain, limit=3, copies=copies)
    for db, tup in ((DB4, ("d",)), (DB4, ("c",)), (DB1, ("d",)), (DB1, ("a",))):
        yield encode_why_provenance(QUERY, db, tup, copies=copies)


#: case -> the encodings whose formulas it hashes.
FORMULA_CASES = {
    "andersen-D1-vertex-elimination": lambda: _session_encodings(get_scenario("Andersen")),
    "andersen-D1-none": lambda: _session_encodings(get_scenario("Andersen"), acyclicity="none"),
    "andersen-D1-transitive-closure": lambda: _session_encodings(
        get_scenario("Andersen"), limit=10, acyclicity="transitive-closure"
    ),
    "chain": lambda: _synthetic("chain"),
    "dag": lambda: _synthetic("dag"),
    "deps": lambda: _synthetic("deps"),
    "grid": lambda: _synthetic("grid"),
    "mixed": lambda: _synthetic("mixed"),
    "tree": lambda: _synthetic("tree"),
    "widejoin": lambda: _synthetic("widejoin"),
    "copies-2": lambda: _copies(2),
    "copies-3": lambda: _copies(3),
}

#: Recorded from the encoder that keyed every node by an ``(Atom, copy)``
#: tuple. A rewrite of the encoder must leave every formula byte-identical:
#: variable numbering, clause order and literal order included.
FORMULA_DIGESTS = {
    "andersen-D1-none": "8bef4409844502ce77fc17e84e6c0e7de55b6e812569c853b95d469b3ea5d5ec",
    "andersen-D1-transitive-closure": "5f03d849d6e4f7b224f83deaec29e871f57f676751025d9ff7d4a252fbc374a5",
    "andersen-D1-vertex-elimination": "66904f1f51c5a10af23f11653fa11ab7e7098544d2bb7370c5ce483fa7f41b6d",
    "chain": "354ef15b478e905dd8eb07419b8e8dc2ea63cdedc5dfb4c4e92744c636d4c725",
    "copies-2": "99e3f5c0886d7790d035eb852fc0fba7af951c042d0e6e7b5430f909c598c3ce",
    "copies-3": "95aa03819055249b4d25b1aba35633896c4d624488c1a3bbae030536cb6a7730",
    "dag": "3f0c826c2b63d041e66f99c94e7765b9f7fd4f7b72c00e2bfffc754869f84484",
    "deps": "9ac23532bed467efb92d3f16126a06d0503d74a3d6e8e3d6ccbd43e05acdc7fc",
    "grid": "146b33100f4d94cef29dfa9cc95742b181ec943318780663d28f85fff829882e",
    "mixed": "f17fd8d011027a7121f1641afb716ad4cae11b0b6d4497a37e2862a1feb9ec51",
    "tree": "8c5af77bdd854cb632bafcfe135708502645f92287e369d3112443ace0b10896",
    "widejoin": "57580fc8ade0cb81a4cda7f23866c5409db7543df5700bc320bc0721c603b359",
}


@pytest.mark.parametrize("case", sorted(FORMULA_DIGESTS))
def test_formulas_are_pinned(case):
    """phi is byte-identical to the pinned encoder's, whatever the hash seed."""
    assert formula_digest(FORMULA_CASES[case]()) == FORMULA_DIGESTS[case]
