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
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional, Set, Tuple

from ..datalog.atoms import Atom
from ..datalog.database import Database, check_over_schema
from ..datalog.program import DatalogQuery
from ..provenance.grounding import DownwardClosure, HyperEdge, downward_closure
from ..provenance.proof_dag import CompressedDAG
from ..sat.acyclicity import AcyclicityStats, eliminate_vertices, encode_transitive_closure
from ..sat.cnf import CNF

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
        self.node_vars: Dict[NodeKey, int] = {}
        self.hyperedge_vars: Dict[Tuple[NodeKey, HyperEdge], int] = {}
        self.edge_vars: Dict[Tuple[NodeKey, NodeKey], int] = {}
        self.database_fact_vars: Dict[Atom, int] = {}
        self.stats: Optional[EncodingStats] = None
        self._build()

    # -- construction -------------------------------------------------------

    def _build(self) -> None:
        """Emit phi over int node ids, allocating variables by counting.

        The closure's facts are numbered once, in ``str`` order; a
        database fact (a leaf, shareable) gets one node, an intensional
        fact ``copies``, and node ``i`` is the variable ``i + 1``. Every
        later variable is the next count: per head, its ``y`` (or ``g``
        and ``c``) variables, then its new ``z`` edges; then the
        acyclicity layer. Clauses come in the order phi_graph, phi_root,
        phi_proof, phi_acyclic, and the keyed maps are filled from the ints.
        """
        start = time.perf_counter()
        closure = self.closure
        copies = self.copies
        facts = sorted(closure.nodes, key=str)
        index = {fact: f for f, fact in enumerate(facts)}
        leaf = [fact in self.database for fact in facts]
        # first[f] .. first[f] + count[f] - 1 are the nodes of fact f.
        count = [1 if is_leaf else copies for is_leaf in leaf]
        first: List[int] = []
        keys: List[NodeKey] = []
        for fact, k in zip(facts, count):
            first.append(len(keys))
            keys.extend([(fact, i) for i in range(k)])
        n = len(keys)
        root = first[index[closure.root]]
        # (node, child) -> z, in allocation order: the arcs of phi_acyclic.
        arcs: Dict[Tuple[int, int], int] = {}
        # Regimes differ in phi_proof, which is emitted per head as its
        # variables are counted:
        # * copies == 1 — the paper's formula: one y per hyperedge (set
        #   semantics, Definition 42), the chosen hyperedge dictates the
        #   outgoing z edges exactly;
        # * copies > 1 — compact *arbitrary* proof DAGs: one g per ground
        #   rule instance (multiset body), with per-position copy choices
        #   c, so repeated body facts may point at different copies (the
        #   Example 4 phenomenon).
        if copies == 1:
            num_vars, proof = self._set_semantics(facts, index, leaf, keys, arcs)
        else:
            num_vars, proof = self._instance_semantics(facts, index, leaf, count, first, arcs, n)

        # phi_graph: an edge forces both endpoints.
        clauses: List[Tuple[int, ...]] = []
        incoming: List[List[int]] = [[] for _ in range(n)]
        for (src, dst), z in arcs.items():
            clauses.append((-z, src + 1))
            clauses.append((-z, dst + 1))
            incoming[dst].append(z)
        # phi_root: the root node is in, has no incoming edge; every other
        # selected node has at least one incoming edge.
        clauses.append((root + 1,))
        clauses.extend([(-z,) for z in incoming[root]])
        clauses.extend([(-(node + 1), *incoming[node]) for node in range(n) if node != root])
        clauses.extend(proof)
        self.cnf.num_vars = num_vars
        self.cnf.add_clauses(clauses)

        # phi_acyclic over the z-guarded arc graph.
        if self.acyclicity_method == "vertex-elimination":
            acyc = eliminate_vertices(self.cnf, arcs, range(n), lambda node: str(keys[node]))
        elif self.acyclicity_method == "transitive-closure":
            acyc = encode_transitive_closure(self.cnf, arcs, range(n))
        elif self.acyclicity_method == "none":
            acyc = AcyclicityStats("none", n, len(arcs), 0, 0)
        else:
            raise ValueError(f"unknown acyclicity method {self.acyclicity_method!r}")

        self.node_vars = dict(zip(keys, range(1, n + 1)))
        db_nodes = closure.database_nodes
        # In str order, so the blocking-clause literal order (and with it
        # the solver's member discovery order) is identical in every
        # process, not dependent on frozenset hash order.
        self.database_fact_vars = {
            fact: first[f] + 1 for f, fact in enumerate(facts) if fact in db_nodes
        }
        self.edge_vars = {(keys[src], keys[dst]): z for (src, dst), z in arcs.items()}
        self.stats = EncodingStats(
            closure_nodes=len(closure.nodes),
            closure_edges=closure.edge_count(),
            node_variables=n,
            hyperedge_variables=len(self.hyperedge_vars),
            edge_variables=len(arcs),
            acyclicity=acyc,
            clauses=len(self.cnf.clauses),
            build_seconds=time.perf_counter() - start,
        )

    def _set_semantics(
        self,
        facts: List[Atom],
        index: Dict[Atom, int],
        leaf: List[bool],
        keys: List[NodeKey],
        arcs: Dict[Tuple[int, int], int],
    ) -> Tuple[int, List[Tuple[int, ...]]]:
        """Count ``y`` and ``z`` per head; return the count and phi_proof.

        Fact ``f`` is node ``f``. A head's ``z`` edges go to the union of
        its hyperedges' targets, in node (``str``) order.
        """
        num_vars = len(facts)
        proof: List[Tuple[int, ...]] = []
        edges_of = self.closure.hyperedges_by_head
        hyperedge_vars = self.hyperedge_vars
        for f, fact in enumerate(facts):
            edges = edges_of.get(fact, ())
            if not edges:
                if not leaf[f]:
                    # Intensional node with no derivation: can never be used.
                    proof.append((-(f + 1),))
                continue
            node = keys[f]
            ys = range(num_vars + 1, num_vars + 1 + len(edges))
            for edge, y in zip(edges, ys):
                hyperedge_vars[(node, edge)] = y
            chosen = [{index[target] for target in edge.targets} for edge in edges]
            potential = sorted(set().union(*chosen))
            num_vars = ys.stop - 1
            zs = range(num_vars + 1, num_vars + 1 + len(potential))
            for target, z in zip(potential, zs):
                arcs[(f, target)] = z
            num_vars = zs.stop - 1
            proof.append((-(f + 1), *ys))
            for y, targets in zip(ys, chosen):
                for target, z in zip(potential, zs):
                    proof.append((-y, z) if target in targets else (-y, -z))
        return num_vars, proof

    def _instance_semantics(
        self,
        facts: List[Atom],
        index: Dict[Atom, int],
        leaf: List[bool],
        count: List[int],
        first: List[int],
        arcs: Dict[Tuple[int, int], int],
        num_vars: int,
    ) -> Tuple[int, List[Tuple[int, ...]]]:
        """Count ``g``, ``c`` and ``z`` per node; return the count and phi_proof."""
        proof: List[Tuple[int, ...]] = []
        # Which position variables can justify an edge (node -> child)?
        supporters: Dict[Tuple[int, int], List[int]] = {}
        instances_of = self.closure.instances_by_head
        for f, fact in enumerate(facts):
            instances = instances_of.get(fact, ())
            if not instances:
                if not leaf[f]:
                    proof.extend([(-(node + 1),) for node in range(first[f], first[f] + count[f])])
                continue
            bodies = [[index[body_fact] for body_fact in instance.body] for instance in instances]
            for node in range(first[f], first[f] + count[f]):
                x = node + 1
                # Count this node's variables: per instance its g, then per
                # body position one c per child copy, and the edge to a
                # child not yet reached from this node.
                choices: List[Tuple[int, List[List[int]]]] = []
                for body in bodies:
                    num_vars += 1
                    g = num_vars
                    positions: List[List[int]] = []
                    for b in body:
                        cs: List[int] = []
                        for child in range(first[b], first[b] + count[b]):
                            num_vars += 1
                            cs.append(num_vars)
                            if (node, child) not in arcs:
                                num_vars += 1
                                arcs[(node, child)] = num_vars
                                supporters[(node, child)] = []
                        positions.append(cs)
                    choices.append((g, positions))
                g_vars = [g for g, _ in choices]
                # A selected node fires exactly one ground instance.
                proof.append((-x, *g_vars))
                for a, g in enumerate(g_vars):
                    proof.append((-g, x))
                    proof.extend([(-g, -other) for other in g_vars[a + 1:]])
                for (g, positions), body in zip(choices, bodies):
                    for cs, b in zip(positions, body):
                        # Each body position picks exactly one child copy.
                        proof.append((-g, *cs))
                        for a, c in enumerate(cs):
                            proof.append((-c, g))
                            proof.extend([(-c, -other) for other in cs[a + 1:]])
                        for c, child in zip(cs, range(first[b], first[b] + count[b])):
                            proof.append((-c, arcs[(node, child)]))
                            supporters[(node, child)].append(c)
        # No stray edges: every edge must be justified by some position.
        proof.extend([(-z, *supporters[arc]) for arc, z in arcs.items()])
        # Symmetry breaking between interchangeable copies of a fact.
        for f in range(len(facts)):
            proof.extend([(-(node + 1), node) for node in range(first[f] + 1, first[f] + count[f])])
        return num_vars, proof

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
        if self.copies != 1:
            return {}
        hints: Dict[int, bool] = dict.fromkeys(range(1, self.cnf.num_vars + 1), False)
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
