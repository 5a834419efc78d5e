"""Tests for the propositional acyclicity encodings.

The correctness statement is the same for both encodings: for every
assignment of the guarded arc variables, the formula (restricted to that
assignment) is satisfiable iff the selected arcs form an acyclic graph.
Both encodings are checked against a Kahn's-algorithm oracle on all arc
subsets of small graphs and against each other on random graphs. The
vertex-elimination encoder, which draws its min-degree order from a
heap, is checked clause for clause against a reference that scans every
vertex at every step.
"""

import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sat.acyclicity import (
    _node_list,
    arcs_are_acyclic,
    encode_transitive_closure,
    encode_vertex_elimination,
    min_degree_order,
)
from repro.sat.cnf import CNF
from repro.sat.solver import CDCLSolver

ENCODERS = [encode_transitive_closure, encode_vertex_elimination]


def build(encoder, arcs):
    cnf = CNF()
    arc_vars = {arc: cnf.new_var() for arc in arcs}
    stats = encoder(cnf, arc_vars)
    return cnf, arc_vars, stats


def check_selection(cnf, arc_vars, selection):
    """Satisfiability of the encoding under a full arc assignment."""
    solver = CDCLSolver()
    solver.add_cnf(cnf)
    assumptions = [
        (var if arc in selection else -var) for arc, var in arc_vars.items()
    ]
    return bool(solver.solve(assumptions=assumptions))


@pytest.mark.parametrize("encoder", ENCODERS)
class TestExhaustiveSmallGraphs:
    def test_triangle_plus_chords(self, encoder):
        arcs = [("a", "b"), ("b", "c"), ("c", "a"), ("a", "c"), ("b", "a")]
        cnf, arc_vars, _ = build(encoder, arcs)
        for r in range(len(arcs) + 1):
            for selection in itertools.combinations(arcs, r):
                expected = arcs_are_acyclic(selection)
                assert check_selection(cnf, arc_vars, set(selection)) == expected, selection

    def test_two_cycle(self, encoder):
        arcs = [("x", "y"), ("y", "x")]
        cnf, arc_vars, _ = build(encoder, arcs)
        assert check_selection(cnf, arc_vars, {("x", "y")})
        assert check_selection(cnf, arc_vars, {("y", "x")})
        assert not check_selection(cnf, arc_vars, set(arcs))

    def test_self_loop_always_forbidden(self, encoder):
        arcs = [("v", "v"), ("v", "w")]
        cnf, arc_vars, _ = build(encoder, arcs)
        assert not check_selection(cnf, arc_vars, {("v", "v")})
        assert check_selection(cnf, arc_vars, {("v", "w")})

    def test_empty_selection_sat(self, encoder):
        arcs = [("a", "b"), ("b", "a")]
        cnf, arc_vars, _ = build(encoder, arcs)
        assert check_selection(cnf, arc_vars, set())


class TestRandomAgreement:
    @pytest.mark.parametrize("seed", range(10))
    def test_encodings_agree(self, seed):
        rng = random.Random(seed)
        nodes = [f"n{i}" for i in range(6)]
        arcs = [
            (u, v)
            for u in nodes
            for v in nodes
            if u != v and rng.random() < 0.35
        ]
        cnf_tc, vars_tc, _ = build(encode_transitive_closure, arcs)
        cnf_ve, vars_ve, _ = build(encode_vertex_elimination, arcs)
        for _ in range(12):
            selection = {arc for arc in arcs if rng.random() < 0.4}
            expected = arcs_are_acyclic(selection)
            assert check_selection(cnf_tc, vars_tc, selection) == expected
            assert check_selection(cnf_ve, vars_ve, selection) == expected


class TestEncodingSizes:
    def test_vertex_elimination_smaller_on_sparse_chain(self):
        """The paper's motivation: O(n * delta) vs O(n^2) variables."""
        arcs = [(f"n{i}", f"n{i+1}") for i in range(30)]
        _, _, stats_tc = build(encode_transitive_closure, arcs)
        _, _, stats_ve = build(encode_vertex_elimination, arcs)
        assert stats_ve.auxiliary_variables < stats_tc.auxiliary_variables
        assert stats_ve.elimination_width <= 2

    def test_stats_fields(self):
        arcs = [("a", "b"), ("b", "c")]
        _, _, stats = build(encode_vertex_elimination, arcs)
        assert stats.method == "vertex-elimination"
        assert stats.nodes == 3
        assert stats.arcs == 2


class TestMinDegreeOrder:
    def test_order_is_permutation(self):
        arcs = [("a", "b"), ("b", "c"), ("c", "a")]
        order = min_degree_order({arc: i + 1 for i, arc in enumerate(arcs)})
        assert sorted(order) == ["a", "b", "c"]

    def test_explicit_order_accepted(self):
        arcs = [("a", "b"), ("b", "c"), ("c", "a")]
        cnf = CNF()
        arc_vars = {arc: cnf.new_var() for arc in arcs}
        stats = encode_vertex_elimination(
            cnf, arc_vars, order=["b", "a", "c"]
        )
        solver = CDCLSolver()
        solver.add_cnf(cnf)
        sel = [arc_vars[("a", "b")], arc_vars[("b", "c")], arc_vars[("c", "a")]]
        assert solver.solve(assumptions=sel) is False


class TestArcsAreAcyclic:
    def test_oracle(self):
        assert arcs_are_acyclic([("a", "b"), ("b", "c")])
        assert not arcs_are_acyclic([("a", "b"), ("b", "a")])
        assert not arcs_are_acyclic([("a", "a")])
        assert arcs_are_acyclic([])


def scan_vertex_elimination(cnf, arc_vars, nodes=None):
    """Reference: vertex elimination that scans for the min-degree vertex.

    Every step re-keys every remaining vertex by ``(degree, str)`` and
    takes the minimum — quadratic, but obviously the min-degree order.
    Otherwise the same construction as :func:`encode_vertex_elimination`.
    """
    node_list = _node_list(arc_vars, nodes)
    arcs = {}
    for (u, v), z in arc_vars.items():
        if u == v:
            cnf.add_clause((-z,))
            continue
        a = arcs.get((u, v))
        if a is None:
            a = cnf.new_var()
            arcs[(u, v)] = a
        cnf.implies(z, a)
    out_nbrs = {v: set() for v in node_list}
    in_nbrs = {v: set() for v in node_list}
    for (u, v) in arcs:
        out_nbrs[u].add(v)
        in_nbrs[v].add(u)
    remaining = set(node_list)

    def degree(v):
        return len((out_nbrs[v] | in_nbrs[v]) & remaining)

    while remaining:
        v = min(remaining, key=lambda n: (degree(n), str(n)))
        remaining.discard(v)
        ins = [u for u in in_nbrs[v] if u in remaining]
        outs = [w for w in out_nbrs[v] if w in remaining]
        for u in ins:
            a_uv = arcs[(u, v)]
            for w in outs:
                a_vw = arcs[(v, w)]
                if u == w:
                    cnf.add_clause((-a_uv, -a_vw))
                    continue
                existing = arcs.get((u, w))
                if existing is None:
                    existing = cnf.new_var()
                    arcs[(u, w)] = existing
                    out_nbrs[u].add(w)
                    in_nbrs[w].add(u)
                cnf.add_clause((-a_uv, -a_vw, existing))


NODES = st.integers(min_value=0, max_value=11)


class TestHeapOrderMatchesScan:
    @settings(max_examples=200, deadline=None)
    @given(
        arcs=st.lists(st.tuples(NODES, NODES), max_size=40, unique=True),
        isolated=st.lists(NODES, max_size=3),
    )
    @example(arcs=[(0, 1), (1, 0)], isolated=[])
    @example(arcs=[(0, 0), (0, 1), (1, 2), (2, 0)], isolated=[])
    @example(arcs=[(2, 10), (10, 2), (10, 1), (1, 1)], isolated=[5])
    def test_same_clauses_as_scan(self, arcs, isolated):
        nodes = _node_list({arc: 0 for arc in arcs}, None)
        nodes += [v for v in isolated if v not in nodes]
        results = []
        for encoder in (encode_vertex_elimination, scan_vertex_elimination):
            cnf = CNF()
            arc_vars = {arc: cnf.new_var() for arc in arcs}
            encoder(cnf, arc_vars, nodes)
            results.append((cnf.num_vars, cnf.clauses))
        assert results[0] == results[1]
