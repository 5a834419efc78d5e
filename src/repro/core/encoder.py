"""The Boolean formula ``phi_(t, D, Q)`` (Section 5.1 / Appendix D.2).

Given a query ``Q = (Sigma, R)``, a database ``D``, and an answer tuple
``t``, the encoder compiles the downward closure of ``R(t)`` into a CNF

    ``phi = phi_graph  &  phi_root  &  phi_proof  &  phi_acyclic``

whose satisfying assignments are exactly the compressed DAGs of ``R(t)``
w.r.t. ``D`` and ``Sigma`` (Lemma 44); projecting a model onto the database
facts yields one member of ``whyUN(t, D, Q)`` (Proposition 15).

Variables (``copies = 1``, the paper's formula):

* ``x_alpha``  for every node ``alpha`` of the downward closure (``VN``),
* ``y_e``      for every hyperedge ``e = (alpha, T)``            (``VH``),
* ``z_(a,b)``  for every pair extractable from a hyperedge       (``VE``),
* auxiliary acyclicity variables                                  (``VC``).

Setting ``copies = k > 1`` generalizes the encoding: each intensional fact
may label up to ``k`` nodes of the guessed proof DAG, which makes the
models (compact) *arbitrary* proof DAGs rather than compressed ones. This
realizes the guess-and-check NP procedure of Proposition 5 with a bounded
guess: it is sound for membership in ``why`` for every ``k``, and complete
once ``k`` reaches the (large) polynomial bound of Lemma 8. ``copies = 1``
recovers ``whyUN`` exactly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Set, Tuple

from ..datalog.atoms import Atom
from ..datalog.database import Database, check_over_schema
from ..datalog.program import DatalogQuery
from ..provenance.grounding import DownwardClosure, HyperEdge, downward_closure
from ..provenance.proof_dag import CompressedDAG
from ..sat.acyclicity import (
    AcyclicityStats,
    encode_transitive_closure,
    encode_vertex_elimination,
)
from ..sat.cnf import CNF, VariablePool

#: A node of the guessed proof DAG: (fact, copy index).
NodeKey = Tuple[Atom, int]


@dataclass
class EncodingStats:
    """Size and timing measurements for one encoding."""

    closure_nodes: int
    closure_edges: int
    node_variables: int
    hyperedge_variables: int
    edge_variables: int
    acyclicity: AcyclicityStats
    clauses: int
    build_seconds: float


class WhyProvenanceEncoding:
    """The compiled formula plus the key maps needed to use it.

    Attributes
    ----------
    cnf:
        The CNF formula ``phi_(t, D, Q)``.
    closure:
        The downward closure the formula was built from.
    database_fact_vars:
        ``fact -> x`` variable, for the database facts of the closure (the
        set ``S`` of Section 5.2 — projection / blocking domain).
    """

    def __init__(
        self,
        query: DatalogQuery,
        database: Database,
        tup: Tuple,
        closure: DownwardClosure,
        copies: int,
        acyclicity: str,
    ):
        self.query = query
        self.database = database
        self.tup = tuple(tup)
        self.closure = closure
        self.copies = copies
        self.acyclicity_method = acyclicity
        self.cnf = CNF()
        self.pool = VariablePool(self.cnf)
        self.node_vars: Dict[NodeKey, int] = {}
        self.hyperedge_vars: Dict[Tuple[NodeKey, HyperEdge], int] = {}
        self.instance_vars: Dict[Tuple[NodeKey, int], int] = {}
        self.edge_vars: Dict[Tuple[NodeKey, NodeKey], int] = {}
        self.database_fact_vars: Dict[Atom, int] = {}
        self.stats: Optional[EncodingStats] = None
        self._build()

    # -- construction -------------------------------------------------------

    def _copies_of(self, fact: Atom) -> int:
        """Database facts need one node (leaves are shareable); idb facts k."""
        if fact in self.database:
            return 1
        return self.copies

    def _build(self) -> None:
        start = time.perf_counter()
        closure = self.closure
        root_fact = closure.root
        # The one node order every pass below walks, sorted once.
        nodes = sorted(closure.nodes, key=str)

        # Allocate node variables.
        for fact in nodes:
            for i in range(self._copies_of(fact)):
                self.node_vars[(fact, i)] = self.pool.var(("x", fact, i))
        # Sorted so the blocking-clause literal order (and with it the
        # solver's member discovery order) is identical in every process,
        # not dependent on frozenset hash order.
        for fact in sorted(closure.database_nodes, key=str):
            self.database_fact_vars[fact] = self.node_vars[(fact, 0)]
        root: NodeKey = (root_fact, 0)

        # Allocate choice and edge variables, then phi_proof. The two
        # regimes differ in how children are constrained:
        # * copies == 1 — the paper's formula: one y per hyperedge (set
        #   semantics, Definition 42), the chosen hyperedge dictates the
        #   outgoing z edges exactly;
        # * copies > 1 — compact *arbitrary* proof DAGs: one y per ground
        #   rule instance (multiset body), with per-position copy choices,
        #   so repeated body facts may point at different copies (the
        #   Example 4 phenomenon).
        if self.copies == 1:
            targets = self._allocate_set_semantics(nodes)
        else:
            self._allocate_instance_semantics(nodes)

        incoming: Dict[NodeKey, List[int]] = {node: [] for node in self.node_vars}
        for (src, dst), z in self.edge_vars.items():
            incoming[dst].append(z)

        # phi_graph: an edge forces both endpoints.
        for (src, dst), z in self.edge_vars.items():
            self.cnf.implies(z, self.node_vars[src])
            self.cnf.implies(z, self.node_vars[dst])

        # phi_root: the root node is in, has no incoming edge; every other
        # selected node has at least one incoming edge.
        self.cnf.add_clause((self.node_vars[root],))
        for z in incoming[root]:
            self.cnf.add_clause((-z,))
        for node, x in self.node_vars.items():
            if node == root:
                continue
            self.cnf.add_clause((-x, *incoming[node]))

        if self.copies == 1:
            self._emit_proof_set_semantics(nodes, targets)
        else:
            self._emit_proof_instance_semantics(nodes)

        # phi_acyclic over the z-guarded arc graph.
        arc_vars = {
            (src, dst): z for (src, dst), z in self.edge_vars.items()
        }
        nodes = list(self.node_vars)
        if self.acyclicity_method == "vertex-elimination":
            acyc = encode_vertex_elimination(self.cnf, arc_vars, nodes)
        elif self.acyclicity_method == "transitive-closure":
            acyc = encode_transitive_closure(self.cnf, arc_vars, nodes)
        elif self.acyclicity_method == "none":
            acyc = AcyclicityStats("none", len(nodes), len(arc_vars), 0, 0)
        else:
            raise ValueError(f"unknown acyclicity method {self.acyclicity_method!r}")

        self.stats = EncodingStats(
            closure_nodes=len(closure.nodes),
            closure_edges=closure.edge_count(),
            node_variables=len(self.node_vars),
            hyperedge_variables=len(self.hyperedge_vars),
            edge_variables=len(self.edge_vars),
            acyclicity=acyc,
            clauses=len(self.cnf.clauses),
            build_seconds=time.perf_counter() - start,
        )

    # -- copies == 1: the paper's set-semantics formula -----------------------

    def _allocate_set_semantics(self, nodes: List[Atom]) -> Dict[Atom, List[Atom]]:
        """Allocate ``y`` and ``z``; return each head's sorted target union."""
        closure = self.closure
        unions: Dict[Atom, List[Atom]] = {}
        for fact in nodes:
            edges = closure.hyperedges_by_head.get(fact, ())
            if not edges:
                continue
            node = (fact, 0)
            for edge in edges:
                self.hyperedge_vars[(node, edge)] = self.pool.var(("y", fact, 0, edge))
            targets: Set[Atom] = set()
            for edge in edges:
                targets |= edge.targets
            ordered = unions[fact] = sorted(targets, key=str)
            for target in ordered:
                child = (target, 0)
                self.edge_vars[(node, child)] = self.pool.var(("z", node, child))
        return unions

    def _emit_proof_set_semantics(
        self, nodes: List[Atom], targets: Dict[Atom, List[Atom]]
    ) -> None:
        closure = self.closure
        for fact in nodes:
            edges = closure.hyperedges_by_head.get(fact, ())
            node = (fact, 0)
            if not edges:
                if fact not in self.database:
                    # Intensional node with no derivation: can never be used.
                    self.cnf.add_clause((-self.node_vars[node],))
                continue
            y_vars = [self.hyperedge_vars[(node, edge)] for edge in edges]
            self.cnf.add_clause((-self.node_vars[node], *y_vars))
            potential = targets[fact]
            for edge in edges:
                y = self.hyperedge_vars[(node, edge)]
                for target in potential:
                    z = self.edge_vars[(node, (target, 0))]
                    if target in edge.targets:
                        self.cnf.implies(y, z)
                    else:
                        self.cnf.add_clause((-y, -z))

    # -- copies > 1: compact arbitrary proof DAGs (multiset semantics) ---------

    def _allocate_instance_semantics(self, nodes: List[Atom]) -> None:
        closure = self.closure
        self._position_vars: Dict[Tuple[NodeKey, int, int, int], int] = {}
        for fact in nodes:
            instances = closure.instances_by_head.get(fact, ())
            if not instances:
                continue
            for i in range(self._copies_of(fact)):
                node = (fact, i)
                for g_idx, instance in enumerate(instances):
                    self.instance_vars[(node, g_idx)] = self.pool.var(
                        ("g", fact, i, g_idx)
                    )
                    for p, body_fact in enumerate(instance.body):
                        for j in range(self._copies_of(body_fact)):
                            self._position_vars[(node, g_idx, p, j)] = self.pool.var(
                                ("c", fact, i, g_idx, p, j)
                            )
                            child = (body_fact, j)
                            if (node, child) not in self.edge_vars:
                                self.edge_vars[(node, child)] = self.pool.var(
                                    ("z", node, child)
                                )

    def _emit_proof_instance_semantics(self, nodes: List[Atom]) -> None:
        closure = self.closure
        # Which position variables can justify an edge (node -> child)?
        edge_supporters: Dict[Tuple[NodeKey, NodeKey], List[int]] = {
            key: [] for key in self.edge_vars
        }
        for fact in nodes:
            instances = closure.instances_by_head.get(fact, ())
            if not instances:
                if fact not in self.database:
                    for i in range(self._copies_of(fact)):
                        self.cnf.add_clause((-self.node_vars[(fact, i)],))
                continue
            for i in range(self._copies_of(fact)):
                node = (fact, i)
                g_vars = [
                    self.instance_vars[(node, g_idx)] for g_idx in range(len(instances))
                ]
                # A selected node fires exactly one ground instance.
                self.cnf.add_clause((-self.node_vars[node], *g_vars))
                for a in range(len(g_vars)):
                    self.cnf.implies(g_vars[a], self.node_vars[node])
                    for b in range(a + 1, len(g_vars)):
                        self.cnf.add_clause((-g_vars[a], -g_vars[b]))
                for g_idx, instance in enumerate(instances):
                    g = g_vars[g_idx]
                    for p, body_fact in enumerate(instance.body):
                        c_vars = [
                            self._position_vars[(node, g_idx, p, j)]
                            for j in range(self._copies_of(body_fact))
                        ]
                        # Each body position picks exactly one child copy.
                        self.cnf.add_clause((-g, *c_vars))
                        for a in range(len(c_vars)):
                            self.cnf.implies(c_vars[a], g)
                            for b in range(a + 1, len(c_vars)):
                                self.cnf.add_clause((-c_vars[a], -c_vars[b]))
                        for j, c in enumerate(c_vars):
                            child = (body_fact, j)
                            self.cnf.implies(c, self.edge_vars[(node, child)])
                            edge_supporters[(node, child)].append(c)
        # No stray edges: every edge must be justified by some position.
        for key, z in self.edge_vars.items():
            self.cnf.add_clause((-z, *edge_supporters[key]))
        # Symmetry breaking between interchangeable copies of a fact.
        for fact in nodes:
            for i in range(1, self._copies_of(fact)):
                self.cnf.implies(
                    self.node_vars[(fact, i)], self.node_vars[(fact, i - 1)]
                )

    # -- model decoding ---------------------------------------------------------

    def projection_variables(self) -> List[int]:
        """The variables of the set ``S`` (Section 5.2), sorted."""
        return sorted(self.database_fact_vars.values())

    def decode_support(self, model: Mapping[int, bool]) -> FrozenSet[Atom]:
        """``db(tau)``: the database facts selected by a model."""
        return frozenset(
            fact for fact, var in self.database_fact_vars.items() if model.get(var, False)
        )

    def decode_compressed_dag(self, model: Mapping[int, bool]) -> CompressedDAG:
        """Reconstruct the compressed DAG described by a ``copies=1`` model."""
        if self.copies != 1:
            raise ValueError("compressed DAG decoding requires copies=1")
        choice: Dict[Atom, FrozenSet[Atom]] = {}
        for (node, edge), y in self.hyperedge_vars.items():
            if model.get(y, False) and model.get(self.node_vars[node], False):
                choice[node[0]] = edge.targets
        return CompressedDAG(self.closure.root, choice)

    def phase_hints(self, ranks: Mapping[Atom, int]) -> Dict[int, bool]:
        """Warm-start phases describing a minimal-rank compressed DAG.

        For every intensional fact of the closure, pick a hyperedge whose
        targets all have strictly smaller rank (one exists by the
        definition of the immediate-consequence stage, Prop. 28); the
        resulting choice function is acyclic by construction. Variables of
        the induced sub-DAG are hinted true, everything else false, so a
        phase-following SAT solver finds this model almost
        propagation-only. Only meaningful for ``copies == 1``.
        """
        hints: Dict[int, bool] = {var: False for var in range(1, self.cnf.num_vars + 1)}
        if self.copies != 1:
            return {}
        choice: Dict[Atom, HyperEdge] = {}
        for fact, edges in self.closure.hyperedges_by_head.items():
            if not edges or fact not in ranks:
                continue
            best: Optional[HyperEdge] = None
            for edge in edges:
                if all(ranks.get(t, 10 ** 9) < ranks[fact] for t in edge.targets):
                    if best is None or len(edge.targets) < len(best.targets):
                        best = edge
            if best is not None:
                choice[fact] = best
        # Walk the chosen sub-DAG from the root.
        visited: Set[Atom] = set()
        stack = [self.closure.root]
        while stack:
            fact = stack.pop()
            if fact in visited:
                continue
            visited.add(fact)
            node = (fact, 0)
            if node in self.node_vars:
                hints[self.node_vars[node]] = True
            edge = choice.get(fact)
            if edge is None:
                continue
            y = self.hyperedge_vars.get((node, edge))
            if y is not None:
                hints[y] = True
            for target in edge.targets:
                z = self.edge_vars.get((node, (target, 0)))
                if z is not None:
                    hints[z] = True
                stack.append(target)
        return hints

    def membership_assumptions(self, subset: FrozenSet[Atom]) -> Optional[List[int]]:
        """Assumption literals forcing ``db(tau) == subset``.

        Returns ``None`` when *subset* mentions a database fact outside the
        downward closure — such a fact can never be a leaf, so membership
        is immediately false.
        """
        if not subset <= frozenset(self.database_fact_vars):
            return None
        assumptions: List[int] = []
        for fact, var in self.database_fact_vars.items():
            assumptions.append(var if fact in subset else -var)
        return assumptions


def encode_why_provenance(
    query: DatalogQuery,
    database: Database,
    tup: Tuple,
    closure: Optional[DownwardClosure] = None,
    copies: int = 1,
    acyclicity: str = "vertex-elimination",
) -> WhyProvenanceEncoding:
    """Build ``phi_(t, D, Q)`` (computing the downward closure if needed).

    Raises :class:`~repro.provenance.grounding.FactNotDerivable` when the
    tuple is not an answer — the why-provenance is empty in that case.
    """
    if copies < 1:
        raise ValueError("copies must be at least 1")
    check_over_schema(database, query.program.edb)
    fact = query.answer_atom(tup)
    if closure is None:
        closure = downward_closure(query.program, database, fact)
    elif closure.root != fact:
        raise ValueError(f"closure is rooted at {closure.root}, expected {fact}")
    return WhyProvenanceEncoding(query, database, tup, closure, copies, acyclicity)
