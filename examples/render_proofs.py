"""Render proof objects to Graphviz DOT.

Produces, for the paper's running example, DOT renderings of (1) a
minimal-depth proof tree, (2) the compressed DAG behind one whyUN
member, (3) the downward closure hypergraph that the SAT encoding
searches, and (4) the provenance circuit of a non-recursive variant.
Files are written next to this script as ``proof_*.dot``; render them
with ``dot -Tsvg proof_tree.dot -o proof_tree.svg`` if Graphviz is
installed (the DOT text itself is also printed).

Run with:  python examples/render_proofs.py
"""

import os

from repro import Database, DatalogQuery, parse_database, parse_program
from repro.core.encoder import encode_why_provenance
from repro.datalog.parser import parse_atom
from repro.provenance import downward_closure, extract_minimal_depth_tree
from repro.provenance.render import (
    circuit_to_dot,
    closure_to_dot,
    compressed_dag_to_dot,
    proof_tree_to_dot,
)
from repro.sat.solver import CDCLSolver
from repro.semiring import provenance_circuit

OUT_DIR = os.path.dirname(os.path.abspath(__file__))


def _write(name: str, dot: str) -> None:
    path = os.path.join(OUT_DIR, name)
    with open(path, "w") as handle:
        handle.write(dot)
    print(f"--- {name} ({len(dot.splitlines())} lines) ---")
    print(dot)


def main() -> None:
    program = parse_program(
        """
        a(X) :- s(X).
        a(X) :- a(Y), a(Z), t(Y, Z, X).
        """
    )
    query = DatalogQuery(program, "a")
    database = Database(parse_database(
        "s(a). t(a, a, b). t(a, a, c). t(a, a, d). t(b, c, a)."
    ))

    # (1) A minimal-depth proof tree of a(d), read off the engine's ranks.
    tree = extract_minimal_depth_tree(program, database, parse_atom("a(d)"))
    _write("proof_tree.dot", proof_tree_to_dot(tree, database))

    # (2) The compressed DAG behind one member of whyUN((d), D, Q).
    encoding = encode_why_provenance(query, database, ("d",))
    solver = CDCLSolver()
    solver.add_cnf(encoding.cnf)
    assert solver.solve() is True
    dag = encoding.decode_compressed_dag(solver.model())
    _write("compressed_dag.dot", compressed_dag_to_dot(dag, database))

    # (3) The downward closure: every derivation the encoding can pick.
    closure = downward_closure(program, database, parse_atom("a(d)"))
    _write("downward_closure.dot", closure_to_dot(closure, database))

    # (4) A provenance circuit (non-recursive data: no derivation cycle).
    tc_program = parse_program(
        """
        t(X, Y) :- e(X, Y).
        t(X, Y) :- t(X, Z), e(Z, Y).
        """
    )
    tc_query = DatalogQuery(tc_program, "t")
    tc_db = Database(parse_database("e(a, b). e(b, c). e(a, c)."))
    circuit = provenance_circuit(tc_query, tc_db, ("a", "c"))
    _write("circuit.dot", circuit_to_dot(circuit))


if __name__ == "__main__":
    main()
