"""Ablation: transitive-closure vs vertex-elimination acyclicity encoding.

The paper (Appendix D.2) chooses vertex elimination because its variable
count is O(n * delta) — with the elimination width delta small on sparse
graphs — against the O(n^2) transitive closure. This benchmark measures
encoding sizes and end-to-end enumeration on closures of varying
connectivity, the experiment behind the paper's Figure 4(b) discussion.

The "Constrained arcs" column counts the arcs that got a reachability
variable, out of the closure's arcs. The transitive closure constrains
every arc that is not a self-loop. Vertex elimination constrains only
the arcs inside a non-trivial strongly connected component, the only
arcs a cycle can use, and eliminates only those components' nodes.
"""

import time

import pytest

from repro.harness.runner import sample_answer_tuples
from repro.harness.tables import render_table
from repro.core.encoder import encode_why_provenance
from repro.core.session import ProvenanceSession
from repro.sat.enumeration import enumerate_models
from repro.sat.solver import CDCLSolver
from repro.scenarios import get_scenario

from _common import print_banner, run_once

CASES = [
    ("TransClosure", "bitcoin"),   # sparse: vertex elimination shines
    ("TransClosure", "facebook"),  # dense: both encodings degrade
    ("CSDA", "httpd"),
    ("Andersen", "D1"),
]


def _encoding_row(scenario_name, db_name, acyclicity):
    """One table row; "Encode (s)" times only the encoding of a built closure."""
    scenario = get_scenario(scenario_name)
    query = scenario.query()
    database = scenario.database(db_name).restrict(query.program.edb)
    session = ProvenanceSession(query, database)
    tup = sample_answer_tuples(
        query, database, count=1, seed=7, evaluation=session.evaluation
    )[0]
    closure = session.closure_for(tup)
    start = time.perf_counter()
    encoding = encode_why_provenance(
        query, database, tup, closure=closure, acyclicity=acyclicity
    )
    build = time.perf_counter() - start
    stats = encoding.stats
    return [
        f"{scenario_name}/{db_name}",
        acyclicity,
        f"{stats.acyclicity.constrained_arcs}/{stats.acyclicity.arcs}",
        stats.acyclicity.auxiliary_variables,
        stats.clauses,
        stats.acyclicity.elimination_width or "-",
        f"{build:.3f}",
    ]


def test_print_encoding_sizes(benchmark, capsys):
    def collect():
        return [
            _encoding_row(scenario_name, db_name, acyclicity)
            for scenario_name, db_name in CASES
            for acyclicity in ("vertex-elimination", "transitive-closure")
        ]

    rows = run_once(benchmark, collect)
    with capsys.disabled():
        print_banner("Ablation: acyclicity encodings (App. D.2)")
        print(render_table(
            [
                "Closure", "Encoding", "Constrained arcs", "Aux vars", "Clauses",
                "Elim width", "Encode (s)",
            ],
            rows,
        ))


def test_vertex_elimination_needs_fewer_variables_when_sparse(benchmark, capsys):
    sparse = run_once(
        benchmark, lambda: _encoding_row("CSDA", "httpd", "vertex-elimination")
    )
    dense = _encoding_row("CSDA", "httpd", "transitive-closure")
    with capsys.disabled():
        print(f"\nCSDA/httpd aux vars: vertex-elimination {sparse[3]} vs "
              f"transitive-closure {dense[3]}")
    assert sparse[3] < dense[3]


@pytest.mark.parametrize("acyclicity", ["vertex-elimination", "transitive-closure"])
def test_enumeration_kernel(benchmark, acyclicity):
    # Andersen/D1 keeps the transitive-closure variant tractable for a
    # pure-Python CDCL (the bitcoin closure alone needs ~150K aux vars).
    # Sessions build only the vertex-elimination layer, so both arms
    # encode the session's closure here and run the same warm-started
    # enumeration loop as WhyProvenanceEnumerator.
    scenario = get_scenario("Andersen")
    query = scenario.query()
    database = scenario.database("D1").restrict(query.program.edb)
    session = ProvenanceSession(query, database)
    tup = sample_answer_tuples(
        query, database, count=1, seed=7, evaluation=session.evaluation
    )[0]

    def run():
        encoding = encode_why_provenance(
            query,
            database,
            tup,
            closure=session.closure_for(tup),
            acyclicity=acyclicity,
        )
        solver = CDCLSolver()
        solver.add_cnf(encoding.cnf)
        solver.set_phases(encoding.phase_hints(session.ranks))
        records = enumerate_models(
            encoding.cnf,
            projection=encoding.projection_variables(),
            limit=10,
            timeout_seconds=10,
            solver=solver,
        )
        return [encoding.decode_support(record.assignment) for record in records]

    members = run_once(benchmark, run)
    assert members
