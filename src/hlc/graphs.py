"""Immutable hypergraphs and the replacement algebra.

A hypergraph is a set of nodes plus a set of hyperedges; every hyperedge is
attached to an ordered, repetition-free sequence of nodes and carries a ranked
label whose rank equals the attachment length.  A graph additionally carries an
ordered, repetition-free sequence of external nodes; the number of external
nodes is the rank of the graph.

Node and edge identifiers are opaque local integers.  Graphs are values: they
are never mutated after construction and are compared only up to isomorphism
(see :mod:`hlc.canon`), never by identifier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence


@dataclass(frozen=True)
class RankedLabel:
    """An alphabet symbol with a fixed arity."""

    name: str
    rank: int

    def canon_key(self):
        return ("a", self.name, self.rank)

    def __repr__(self) -> str:
        return f"{self.name}/{self.rank}"


DOLLAR_NAME = "$"


def dollar(rank: int) -> RankedLabel:
    """The reserved placeholder label marking the hole of a denominator."""
    return RankedLabel(DOLLAR_NAME, rank)


def is_dollar(label: object) -> bool:
    return isinstance(label, RankedLabel) and label.name == DOLLAR_NAME


@dataclass(frozen=True, eq=False)
class Hypergraph:
    """A hypergraph value.

    ``att`` maps each edge to its ordered attachment nodes, ``lab`` to its
    label (a :class:`RankedLabel` or a type from :mod:`hlc.hltypes`), and
    ``ext`` lists the external nodes in order.  Construction sorts ``nodes``
    and ``edges``, any iterables, into tuples, so no caller sorts them; it is
    permissive otherwise: use :func:`validate` to check the invariants.
    """

    nodes: tuple[int, ...]
    edges: tuple[int, ...]
    att: Mapping[int, tuple[int, ...]]
    lab: Mapping[int, object]
    ext: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(sorted(self.nodes)))
        object.__setattr__(self, "edges", tuple(sorted(self.edges)))
        object.__setattr__(self, "ext", tuple(self.ext))

    @property
    def rank(self) -> int:
        return len(self.ext)

    def incidences(self, v: int) -> tuple[tuple[int, int], ...]:
        """All (edge, position) pairs whose attachment hits node ``v``."""
        return self._incidence_map().get(v, ())

    def _incidence_map(self) -> dict[int, tuple[tuple[int, int], ...]]:
        cached = self.__dict__.get("_inc")
        if cached is None:
            acc: dict[int, list[tuple[int, int]]] = {}
            for e in self.edges:
                for i, v in enumerate(self.att[e]):
                    acc.setdefault(v, []).append((e, i))
            cached = {v: tuple(pairs) for v, pairs in acc.items()}
            object.__setattr__(self, "_inc", cached)
        return cached

    def __repr__(self) -> str:
        return f"<Hypergraph |V|={len(self.nodes)} |E|={len(self.edges)} rank={self.rank}>"


def build_graph(
    nodes: Iterable[int],
    edges: Sequence[tuple[object, Sequence[int]]],
    ext: Sequence[int] = (),
) -> Hypergraph:
    """Build a graph from ``(label, attachment)`` pairs; edge ids run 0, 1, ..."""
    att = {i: tuple(a) for i, (_, a) in enumerate(edges)}
    lab = {i: l for i, (l, _) in enumerate(edges)}
    return Hypergraph(
        nodes=set(nodes),
        edges=range(len(edges)),
        att=att,
        lab=lab,
        ext=tuple(ext),
    )


def validate(g: Hypergraph) -> str | None:
    """Check the hypergraph invariants; return None or the first violation."""
    node_set = set(g.nodes)
    for e in g.edges:  # sorted by Hypergraph.__post_init__
        if e not in g.att:
            return f"edge {e}: missing attachment"
        if e not in g.lab:
            return f"edge {e}: missing label"
        att = g.att[e]
        for v in att:
            if v not in node_set:
                return f"edge {e}: unknown node {v} in attachment"
        if len(set(att)) != len(att):
            return f"edge {e}: repeated attachment"
        try:
            rank = g.lab[e].rank
        except AttributeError:
            return f"edge {e}: label has no rank"
        if rank != len(att):
            return f"edge {e}: rank mismatch (label rank {rank}, {len(att)} attachments)"
    for v in g.ext:
        if v not in node_set:
            return f"unknown external node {v}"
    if len(set(g.ext)) != len(g.ext):
        return "repeated external node"
    return None


def handle(label: object) -> Hypergraph:
    """The one-edge graph whose attachment nodes are exactly its external nodes."""
    r = label.rank
    nodes = tuple(range(r))
    return Hypergraph(nodes=nodes, edges=(0,), att={0: nodes}, lab={0: label}, ext=nodes)


def handle_label(g: Hypergraph) -> object | None:
    """The label of ``g``'s one edge if ``g`` is that label's handle (the edge
    attached to the external nodes in order, no other node), else None; on a
    valid graph, exactly when ``g`` is isomorphic to ``handle(label)``."""
    if len(g.edges) != 1 or len(g.nodes) != len(g.ext):
        return None
    (e,) = g.edges
    return g.lab[e] if tuple(g.att[e]) == g.ext else None


def string_graph(word: Sequence[object]) -> Hypergraph:
    """The chain graph of a word of rank-2 labels; external nodes are the endpoints.

    The empty word yields two distinct external nodes and no edges (the
    one-node variant would repeat an external node, which is illegal).
    """
    for a in word:
        if a.rank != 2:
            raise ValueError(f"string graph labels must have rank 2, got {a!r}")
    n = len(word)
    if n == 0:
        return Hypergraph(nodes=(0, 1), edges=(), att={}, lab={}, ext=(0, 1))
    nodes = tuple(range(n + 1))
    att = {i: (i, i + 1) for i in range(n)}
    lab = {i: word[i] for i in range(n)}
    return Hypergraph(nodes=nodes, edges=tuple(range(n)), att=att, lab=lab, ext=(0, n))


def string_path(g: Hypergraph) -> tuple[int, ...] | None:
    """The edges along ``g`` in path order if it is a string graph, else
    None; :func:`string_graph` gives its edges in this order.

    A string graph has two distinct external nodes and rank-2 edges that form
    one directed path from ``ext[0]`` to ``ext[1]`` through every node; two
    external nodes and nothing else give the empty path.  On a valid graph
    with ``|V| = |E| + 1`` and at most one outgoing edge per node, the walk
    from ``ext[0]`` is deterministic, and it takes at most ``|E|`` steps, so a
    cycle cannot make it loop.  It ends on ``ext[1]``, which has no outgoing
    edge, only if it repeated no node (a repeated node would put it on a
    cycle, which it never leaves), so it visits ``|E| + 1`` distinct nodes,
    that is all of them, along all ``|E|`` edges.
    """
    if len(g.ext) != 2:
        return None
    start, end = g.ext
    edges, att = g.edges, g.att
    if not edges:
        return () if start != end and len(g.nodes) == 2 else None
    if len(g.nodes) != len(edges) + 1:
        return None
    out: dict[int, int] = {}
    for e in edges:
        a = att[e]
        if len(a) != 2 or a[0] in out:
            return None
        out[a[0]] = e
    if end in out:
        return None
    path = []
    v = start
    for _ in edges:
        e = out.get(v)
        if e is None:
            return None
        path.append(e)
        v = att[e][1]
    return tuple(path) if v == end else None


def relabel(g: Hypergraph, f: Mapping[int, object]) -> Hypergraph:
    """Replace every edge label by ``f[edge]``; ranks must be preserved."""
    new_lab = {}
    for e in g.edges:
        new = f[e]
        if new.rank != len(g.att[e]):
            raise ValueError(f"relabel: rank mismatch at edge {e}")
        new_lab[e] = new
    return Hypergraph(g.nodes, g.edges, dict(g.att), new_lab, g.ext)


def relabel_one(g: Hypergraph, e0: int, label: object) -> Hypergraph:
    """Replace the label of exactly one edge."""
    if e0 not in g.lab:
        raise KeyError(f"relabel_one: unknown edge {e0}")
    if label.rank != len(g.att[e0]):
        raise ValueError(f"relabel_one: rank mismatch at edge {e0}")
    new_lab = dict(g.lab)
    new_lab[e0] = label
    return Hypergraph(g.nodes, g.edges, dict(g.att), new_lab, g.ext)


def replace(g: Hypergraph, e0: int, h: Hypergraph) -> Hypergraph:
    """``g`` with edge ``e0`` replaced by a fresh copy of ``h``: the i-th
    external node of ``h`` is fused with the i-th attachment node of ``e0``,
    and every other node and every edge of ``h`` gets a fresh identifier."""
    return replace_all(g, {e0: h})


def replace_all(g: Hypergraph, assignment: Mapping[int, Hypergraph]) -> Hypergraph:
    """Simultaneously replace several distinct edges; order does not matter.

    Built in one pass, with the identifiers that replacing the edges one at a
    time in increasing order would give: the fresh nodes and edges of each
    replacement graph are numbered on from the largest node and edge of ``g``,
    replacement by replacement in that order.
    """
    for e in assignment:
        if e not in g.lab:
            raise KeyError(f"replace_all: unknown edge {e}")
    if not assignment:
        return g
    att = {e: g.att[e] for e in g.edges if e not in assignment}
    lab = {e: g.lab[e] for e in att}
    fresh = next_node = max(g.nodes, default=-1) + 1
    next_edge = max(g.edges, default=-1) + 1
    for e0 in sorted(assignment):
        h = assignment[e0]
        target = g.att[e0]
        if len(target) != h.rank:
            raise ValueError(
                f"replace: rank mismatch (edge rank {len(target)}, graph rank {h.rank})"
            )
        node_map: dict[int, int] = dict(zip(h.ext, target))
        for v in h.nodes:
            if v not in node_map:
                node_map[v] = next_node
                next_node += 1
        for e in h.edges:
            att[next_edge] = tuple(node_map[v] for v in h.att[e])
            lab[next_edge] = h.lab[e]
            next_edge += 1
    nodes = set(g.nodes).union(range(fresh, next_node))
    return Hypergraph(nodes, att.keys(), att, lab, g.ext)


def isolated_node_count(g: Hypergraph) -> int:
    """Number of nodes attached to no edge."""
    inc = g._incidence_map()
    return sum(1 for v in g.nodes if not inc.get(v))


def flowerbed(multisets: Sequence[Sequence[RankedLabel]], b: RankedLabel) -> Hypergraph:
    """A spine of ``b``-edges with one bundle of flower edges per spine node.

    Spine nodes u_1..u_n are joined in order by ``b``-edges.  Each multiset
    element of rank t becomes an edge attached first to its spine node and then
    to t-1 fresh private nodes.  The result has no external nodes.
    """
    n = len(multisets)
    if n < 1:
        raise ValueError("flowerbed: need at least one multiset")
    if b.rank != 2:
        raise ValueError("flowerbed: spine label must have rank 2")
    for ms in multisets:
        for a in ms:
            if a == b:
                raise ValueError("flowerbed: spine label may not occur in a multiset")
            if a.rank < 1:
                raise ValueError("flowerbed: flower labels must have positive rank")
    nodes = list(range(n))  # spine
    att: dict[int, tuple[int, ...]] = {}
    lab: dict[int, object] = {}
    next_node = n
    next_edge = 0
    for i, ms in enumerate(multisets):
        for a in ms:
            private = list(range(next_node, next_node + a.rank - 1))
            next_node += len(private)
            nodes.extend(private)
            att[next_edge] = tuple([i] + private)
            lab[next_edge] = a
            next_edge += 1
    for k in range(n - 1):
        att[next_edge] = (k, k + 1)
        lab[next_edge] = b
        next_edge += 1
    return Hypergraph(
        nodes=tuple(nodes), edges=tuple(range(next_edge)), att=att, lab=lab, ext=()
    )
