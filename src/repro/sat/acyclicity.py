"""Propositional acyclicity encodings for ``phi_acyclic`` (Appendix D.2).

Given a directed graph whose arcs are guarded by Boolean variables, the
formula must be satisfiable exactly by the assignments whose selected arcs
form an acyclic graph. Two encodings are provided:

* :func:`encode_transitive_closure` — the textbook encoding from the
  appendix: one variable per ordered node pair, clauses closing the
  selected arcs under composition, and ``not t(v, v)``. Quadratic in the
  node count; simple but heavy.
* :func:`encode_vertex_elimination` — the Rankooh–Rintanen (AAAI 2022)
  encoding the paper's implementation uses: eliminate vertices one by one
  (min-degree order), materializing *fill-in* arc variables only between
  the neighbours of the eliminated vertex and forbidding two-cycles at
  elimination time. The number of auxiliary variables is ``O(n * delta)``
  where ``delta`` is the *elimination width* of the chosen order, which is
  small on sparsely connected graphs.

Both functions mutate the given CNF in place and return an
:class:`AcyclicityStats` describing the encoding size.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Set, Tuple

from .cnf import CNF

Node = Hashable
Arc = Tuple[Node, Node]


@dataclass
class AcyclicityStats:
    """Size measurements of an acyclicity encoding."""

    method: str
    nodes: int
    arcs: int
    auxiliary_variables: int
    clauses: int
    elimination_width: int = 0


def encode_transitive_closure(
    cnf: CNF,
    arc_vars: Mapping[Arc, int],
    nodes: Optional[Sequence[Node]] = None,
) -> AcyclicityStats:
    """Forbid cycles by axiomatizing the transitive closure.

    Variables ``t(u, v)`` for every ordered pair of distinct nodes plus
    ``t(v, v)`` per node; clauses::

        z(u, v) -> t(u, v)
        z(u, v) & t(v, w) -> t(u, w)
        not t(v, v)
    """
    node_list = _node_list(arc_vars, nodes)
    clause_start = len(cnf.clauses)
    closure: Dict[Arc, int] = {}

    def t_var(u: Node, v: Node) -> int:
        pair = (u, v)
        var = closure.get(pair)
        if var is None:
            var = cnf.new_var()
            closure[pair] = var
        return var

    for (u, v), z in arc_vars.items():
        if u == v:
            cnf.add_clause((-z,))
            continue
        cnf.implies(z, t_var(u, v))
    for (u, v), z in arc_vars.items():
        if u == v:
            continue
        for w in node_list:
            if w == u or w == v:
                continue
            # z(u,v) & t(v,w) -> t(u,w)
            cnf.add_clause((-z, -t_var(v, w), t_var(u, w)))
        # z(u,v) & t(v,u) -> cycle
        cnf.add_clause((-z, -t_var(v, u)))
    return AcyclicityStats(
        method="transitive-closure",
        nodes=len(node_list),
        arcs=len(arc_vars),
        auxiliary_variables=len(closure),
        clauses=len(cnf.clauses) - clause_start,
    )


def encode_vertex_elimination(
    cnf: CNF,
    arc_vars: Mapping[Arc, int],
    nodes: Optional[Sequence[Node]] = None,
    order: Optional[Sequence[Node]] = None,
) -> AcyclicityStats:
    """Forbid cycles via vertex elimination (Rankooh & Rintanen, AAAI 2022).

    Vertices are eliminated in *order* (default: min-degree heuristic on
    the potential-arc graph). Eliminating ``v`` introduces, for every
    in-neighbour ``u`` and out-neighbour ``w`` of ``v`` among the remaining
    vertices, a fill-in arc variable with the defining clause
    ``a(u, v) & a(v, w) -> a(u, w)``; a pair ``a(u, v), a(v, u)`` existing
    at elimination time yields ``not (a(u, v) & a(v, u))``. The selected
    arcs are acyclic iff no such two-cycle constraint fires.
    """
    node_list = _node_list(arc_vars, nodes)
    clause_start = len(cnf.clauses)
    auxiliary = 0
    # A fresh "reachability arc" layer: problem edge variables only *imply*
    # their arc variable. Fill-in arcs compose over this layer; reusing the
    # problem variables would be unsound, since encoders attach additional
    # semantics (e.g. exact-children constraints) to them.
    arcs: Dict[Arc, int] = {}
    for (u, v), z in arc_vars.items():
        if u == v:
            cnf.add_clause((-z,))
            continue
        a = arcs.get((u, v))
        if a is None:
            a = cnf.new_var()
            auxiliary += 1
            arcs[(u, v)] = a
        cnf.implies(z, a)

    out_nbrs: Dict[Node, Set[Node]] = {v: set() for v in node_list}
    in_nbrs: Dict[Node, Set[Node]] = {v: set() for v in node_list}
    for (u, v) in arcs:
        out_nbrs[u].add(v)
        in_nbrs[v].add(u)

    remaining: Set[Node] = set(node_list)
    elimination_order = list(order) if order is not None else []
    width = 0

    def degree(v: Node) -> int:
        return len((out_nbrs[v] | in_nbrs[v]) & remaining)

    # Min-degree order from a lazy heap keyed (degree, str, position): an
    # entry is live while its node remains and its degree is current.
    # Eliminating v changes the degrees of v's remaining neighbours only,
    # so only they are re-pushed.
    tiebreak: Dict[Node, Tuple[str, int]] = {}
    degrees: Dict[Node, int] = {}
    heap: List[Tuple[int, Tuple[str, int], Node]] = []
    if order is None:
        tiebreak = {v: (str(v), index) for index, v in enumerate(node_list)}
        for v in remaining:
            degrees[v] = degree(v)
            heap.append((degrees[v], tiebreak[v], v))
        heapq.heapify(heap)

    step = 0
    while remaining:
        if order is not None:
            v = elimination_order[step]
            step += 1
            if v not in remaining:
                continue
        else:
            d, _, v = heapq.heappop(heap)
            if v not in remaining or d != degrees[v]:
                continue
        remaining.discard(v)
        ins = [u for u in in_nbrs[v] if u in remaining]
        outs = [w for w in out_nbrs[v] if w in remaining]
        neighbours = set(ins)
        neighbours.update(outs)
        width = max(width, len(neighbours))
        for u in ins:
            a_uv = arcs[(u, v)]
            for w in outs:
                a_vw = arcs[(v, w)]
                if u == w:
                    # A two-cycle through v: forbid it outright.
                    cnf.add_clause((-a_uv, -a_vw))
                    continue
                existing = arcs.get((u, w))
                if existing is None:
                    existing = cnf.new_var()
                    auxiliary += 1
                    arcs[(u, w)] = existing
                    out_nbrs[u].add(w)
                    in_nbrs[w].add(u)
                cnf.add_clause((-a_uv, -a_vw, existing))
        if order is None:
            for n in neighbours:
                d = degree(n)
                if d != degrees[n]:
                    degrees[n] = d
                    heapq.heappush(heap, (d, tiebreak[n], n))
    return AcyclicityStats(
        method="vertex-elimination",
        nodes=len(node_list),
        arcs=len(arc_vars),
        auxiliary_variables=auxiliary,
        clauses=len(cnf.clauses) - clause_start,
        elimination_width=width,
    )


def min_degree_order(arc_vars: Mapping[Arc, int], nodes: Optional[Sequence[Node]] = None) -> List[Node]:
    """The min-degree elimination order used by default (exposed for tests).

    Note: this pre-computed order ignores fill-in arcs, whereas the default
    behaviour of :func:`encode_vertex_elimination` recomputes degrees after
    each elimination (including fill-ins), which gives slightly smaller
    widths; this function exists for reproducible explicit orders.
    """
    node_list = _node_list(arc_vars, nodes)
    neighbours: Dict[Node, Set[Node]] = {v: set() for v in node_list}
    for (u, v) in arc_vars:
        if u == v:
            continue
        neighbours[u].add(v)
        neighbours[v].add(u)
    remaining = set(node_list)
    order: List[Node] = []
    while remaining:
        v = min(remaining, key=lambda n: (len(neighbours[n] & remaining), str(n)))
        order.append(v)
        remaining.discard(v)
    return order


def selected_arcs(model: Mapping[int, bool], arc_vars: Mapping[Arc, int]) -> List[Arc]:
    """The arcs selected by a model (testing aid)."""
    return [arc for arc, var in arc_vars.items() if model.get(var, False)]


def arcs_are_acyclic(arcs: Sequence[Arc]) -> bool:
    """Ground-truth acyclicity check (Kahn's algorithm) for tests."""
    nodes: Set[Node] = set()
    for u, v in arcs:
        nodes.add(u)
        nodes.add(v)
    indegree: Dict[Node, int] = {v: 0 for v in nodes}
    outgoing: Dict[Node, List[Node]] = {v: [] for v in nodes}
    for u, v in arcs:
        outgoing[u].append(v)
        indegree[v] += 1
    frontier = [v for v, d in indegree.items() if d == 0]
    visited = 0
    while frontier:
        v = frontier.pop()
        visited += 1
        for w in outgoing[v]:
            indegree[w] -= 1
            if indegree[w] == 0:
                frontier.append(w)
    return visited == len(nodes)


def _node_list(arc_vars: Mapping[Arc, int], nodes: Optional[Sequence[Node]]) -> List[Node]:
    if nodes is not None:
        return list(nodes)
    seen: List[Node] = []
    seen_set: Set[Node] = set()
    for (u, v) in arc_vars:
        for node in (u, v):
            if node not in seen_set:
                seen_set.add(node)
                seen.append(node)
    return seen
