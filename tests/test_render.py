"""DOT rendering of proof objects."""

from repro.core.encoder import encode_why_provenance
from repro.datalog import Database, DatalogQuery, parse_database, parse_program
from repro.datalog.parser import parse_atom
from repro.provenance import downward_closure, extract_minimal_depth_tree
from repro.provenance.render import (
    circuit_to_dot,
    closure_to_dot,
    compressed_dag_to_dot,
    proof_dag_to_dot,
    proof_tree_to_dot,
    support_table,
)
from repro.sat.solver import CDCLSolver
from repro.semiring import provenance_circuit


def _pap():
    program = parse_program(
        """
        a(X) :- s(X).
        a(X) :- a(Y), a(Z), t(Y, Z, X).
        """
    )
    query = DatalogQuery(program, "a")
    database = Database(
        parse_database("s(a). t(a, a, b). t(a, a, c). t(a, a, d). t(b, c, a).")
    )
    return query, database


def test_proof_tree_dot_shapes_and_edges():
    query, database = _pap()
    tree = extract_minimal_depth_tree(query.program, database, parse_atom("a(d)"))
    dot = proof_tree_to_dot(tree, database)
    assert dot.startswith("digraph proof_tree {")
    assert dot.rstrip().endswith("}")
    # Database facts render as boxes, derived facts as ellipses.
    assert 'label="s(a)", shape=box' in dot
    assert 'label="a(d)", shape=ellipse' in dot
    assert "->" in dot


def test_proof_tree_dot_without_database_marks_everything_ellipse():
    query, database = _pap()
    tree = extract_minimal_depth_tree(query.program, database, parse_atom("a(d)"))
    dot = proof_tree_to_dot(tree)
    assert "shape=box" not in dot


def test_compressed_and_proof_dag_dot():
    query, database = _pap()
    encoding = encode_why_provenance(query, database, ("d",))
    solver = CDCLSolver()
    solver.add_cnf(encoding.cnf)
    assert solver.solve() is True
    compressed = encoding.decode_compressed_dag(solver.model())
    dot = compressed_dag_to_dot(compressed, database)
    assert dot.startswith("digraph compressed_dag {")
    assert dot.count("shape=box") == len(
        [f for f in compressed.nodes() if f in database]
    )
    dag = compressed.to_proof_dag(query.program)
    dag_dot = proof_dag_to_dot(dag, database)
    assert dag_dot.startswith("digraph proof_dag {")
    assert dag_dot.count("->") >= dot.count("->") - dot.count("arrowhead")


def test_closure_dot_has_one_junction_per_hyperedge():
    query, database = _pap()
    closure = downward_closure(query.program, database, parse_atom("a(d)"))
    dot = closure_to_dot(closure, database)
    assert dot.count("shape=point") == closure.edge_count()
    assert "arrowhead=none" in dot


def test_circuit_dot_marks_gate_kinds():
    program = parse_program(
        """
        t(X, Y) :- e(X, Y).
        t(X, Y) :- t(X, Z), e(Z, Y).
        """
    )
    query = DatalogQuery(program, "t")
    database = Database(parse_database("e(a, b). e(b, c). e(a, c)."))
    circuit = provenance_circuit(query, database, ("a", "c"))
    dot = circuit_to_dot(circuit)
    assert 'label="+"' in dot
    assert "×" in dot
    assert "penwidth=2" in dot
    assert dot.count("shape=box") == len(circuit.inputs())


def test_quotes_are_escaped():
    from repro.datalog.atoms import Atom
    from repro.provenance.proof_tree import ProofTree

    tree = ProofTree.leaf(Atom("p", ('va"lue',)))
    dot = proof_tree_to_dot(tree)
    assert '\\"' in dot


def test_support_table_orders_by_size():
    query, database = _pap()
    small = frozenset(parse_database("s(a). t(a, a, d)."))
    table = support_table([database.facts(), small])
    lines = table.splitlines()
    assert len(lines) == 2
    assert "( 2 facts)" in lines[0]
    assert "( 5 facts)" in lines[1]
