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
  elimination time. Only arcs inside a non-trivial strongly connected
  component can lie on a cycle, so only they are constrained and only
  those components' nodes are eliminated. The number of auxiliary
  variables is ``O(n * delta)``, where ``n`` counts the nodes of those
  components only and ``delta`` is the *elimination width* of the chosen
  order, which is small on sparsely connected graphs. An acyclic graph
  gets no variable at all.

Both functions mutate the given CNF in place and return an
:class:`AcyclicityStats` describing the encoding size.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Mapping, Optional, Sequence, Set, Tuple

from ..datalog.program import strongly_connected_components
from .cnf import CNF

Node = Hashable
Arc = Tuple[Node, Node]


@dataclass
class AcyclicityStats:
    """Size measurements of an acyclicity encoding.

    ``nodes`` and ``arcs`` describe the input graph; the other fields
    describe the layer built over it. ``constrained_arcs`` counts the arcs
    that got a reachability variable.
    """

    method: str
    nodes: int
    arcs: int
    auxiliary_variables: int
    clauses: int
    constrained_arcs: int = 0
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
    clauses: List[Tuple[int, ...]] = []
    closure: Dict[Arc, int] = {}

    def t_var(u: Node, v: Node) -> int:
        pair = (u, v)
        var = closure.get(pair)
        if var is None:
            var = closure[pair] = cnf.new_var()
        return var

    for (u, v), z in arc_vars.items():
        if u == v:
            clauses.append((-z,))
            continue
        clauses.append((-z, t_var(u, v)))
    for (u, v), z in arc_vars.items():
        if u == v:
            continue
        for w in node_list:
            if w == u or w == v:
                continue
            # z(u,v) & t(v,w) -> t(u,w)
            clauses.append((-z, -t_var(v, w), t_var(u, w)))
        # z(u,v) & t(v,u) -> cycle
        clauses.append((-z, -t_var(v, u)))
    cnf.add_clauses(clauses)
    return AcyclicityStats(
        method="transitive-closure",
        nodes=len(node_list),
        arcs=len(arc_vars),
        auxiliary_variables=len(closure),
        clauses=len(clauses),
        constrained_arcs=sum(1 for u, v in arc_vars if u != v),
    )


def encode_vertex_elimination(
    cnf: CNF,
    arc_vars: Mapping[Arc, int],
    nodes: Optional[Sequence[Node]] = None,
    order: Optional[Sequence[Node]] = None,
) -> AcyclicityStats:
    """Forbid cycles via vertex elimination (Rankooh & Rintanen, AAAI 2022).

    Only arcs that can lie on a cycle are constrained: every cycle of
    selected arcs lies inside one strongly connected component of the
    potential-arc graph, so an arc gets a reachability variable only when
    both its endpoints share a non-trivial component, and only the nodes
    of those components are eliminated. The components are found once, in
    linear time; the ``O(n * delta)`` bound counts their nodes only.
    Self-loops are forbidden by a unit clause; arcs between components get
    nothing, and an acyclic arc graph gets no variable at all. Variables
    are numbered in arc and node insertion order.

    Vertices are eliminated in *order* (default: min-degree heuristic on
    the intra-component arcs; nodes outside them are skipped). Eliminating
    ``v`` introduces, for every in-neighbour ``u`` and out-neighbour ``w``
    of ``v`` among the remaining vertices, a fill-in arc variable with the
    defining clause ``a(u, v) & a(v, w) -> a(u, w)``; a pair ``a(u, v),
    a(v, u)`` existing at elimination time yields ``not (a(u, v) &
    a(v, u))``. The selected arcs are acyclic iff no such two-cycle
    constraint fires.
    """
    return eliminate_vertices(cnf, arc_vars, _node_list(arc_vars, nodes), str, order)


def eliminate_vertices(
    cnf: CNF,
    arc_vars: Mapping[Arc, int],
    node_list: Sequence[Node],
    label: Callable[[Node], str],
    order: Optional[Sequence[Node]] = None,
) -> AcyclicityStats:
    """:func:`encode_vertex_elimination`, breaking min-degree ties by ``label``.

    Ties between nodes of equal degree go to the smaller ``label(node)``,
    then to the earlier node of *node_list*; ``label`` is called only for
    nodes of non-trivial components. The encoder passes its int node ids
    with the label of the node each one stands for, so the layer is the
    one its keyed nodes would get.
    """
    num_vars = cnf.num_vars
    clauses: List[Tuple[int, ...]] = []
    successors: Dict[Node, List[Node]] = {v: [] for v in node_list}
    for (u, v) in arc_vars:
        if u != v:
            successors[u].append(v)
    component: Dict[Node, int] = {}
    for index, scc in enumerate(strongly_connected_components(successors)):
        if len(scc) > 1:
            for v in scc:
                component[v] = index
    # A fresh "reachability arc" layer: problem edge variables only *imply*
    # their arc variable. Fill-in arcs compose over this layer; reusing the
    # problem variables would be unsound, since encoders attach additional
    # semantics (e.g. exact-children constraints) to them.
    arcs: Dict[Arc, int] = {}
    for (u, v), z in arc_vars.items():
        if u == v:
            clauses.append((-z,))
            continue
        if u not in component or component[u] != component.get(v):
            continue
        num_vars += 1
        arcs[(u, v)] = num_vars
        clauses.append((-z, num_vars))
    constrained = len(arcs)
    cyclic = [v for v in node_list if v in component]

    # Neighbours in insertion-ordered dicts, not sets: the fill-in
    # variables are numbered in this order, which must not depend on the
    # string-hash seed.
    out_nbrs: Dict[Node, Dict[Node, None]] = {v: {} for v in cyclic}
    in_nbrs: Dict[Node, Dict[Node, None]] = {v: {} for v in cyclic}
    for (u, v) in arcs:
        out_nbrs[u][v] = None
        in_nbrs[v][u] = None

    remaining: Set[Node] = set(cyclic)
    elimination_order = list(order) if order is not None else []
    width = 0

    def degree(v: Node) -> int:
        return len((out_nbrs[v].keys() | in_nbrs[v].keys()) & remaining)

    # Min-degree order from a lazy heap keyed (degree, label, position): an
    # entry is live while its node remains and its degree is current.
    # Eliminating v changes the degrees of v's remaining neighbours only,
    # so only they are re-pushed.
    tiebreak: Dict[Node, Tuple[str, int]] = {}
    degrees: Dict[Node, int] = {}
    heap: List[Tuple[int, Tuple[str, int], Node]] = []
    if order is None:
        tiebreak = {v: (label(v), index) for index, v in enumerate(cyclic)}
        for v in cyclic:
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
                    clauses.append((-a_uv, -a_vw))
                    continue
                existing = arcs.get((u, w))
                if existing is None:
                    num_vars += 1
                    existing = arcs[(u, w)] = num_vars
                    out_nbrs[u][w] = None
                    in_nbrs[w][u] = None
                clauses.append((-a_uv, -a_vw, existing))
        if order is None:
            for n in neighbours:
                d = degree(n)
                if d != degrees[n]:
                    degrees[n] = d
                    heapq.heappush(heap, (d, tiebreak[n], n))
    cnf.num_vars = num_vars
    cnf.add_clauses(clauses)
    return AcyclicityStats(
        method="vertex-elimination",
        nodes=len(node_list),
        arcs=len(arc_vars),
        auxiliary_variables=len(arcs),
        clauses=len(clauses),
        constrained_arcs=constrained,
        elimination_width=width,
    )


def min_degree_order(arc_vars: Mapping[Arc, int], nodes: Optional[Sequence[Node]] = None) -> List[Node]:
    """A min-degree elimination order over every node (exposed for tests).

    Note: this pre-computed order covers every node and ignores fill-in
    arcs, whereas the default behaviour of :func:`encode_vertex_elimination`
    eliminates only the nodes of non-trivial strongly connected components
    and recomputes degrees after each elimination (including fill-ins),
    which gives slightly smaller widths; this function exists for
    reproducible explicit orders.
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
