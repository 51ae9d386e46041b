"""Canonical forms and isomorphism for hypergraphs.

Two graphs are isomorphic iff their canonical forms are byte-equal.  The
canonical form is computed by iterative partition refinement on node colors
(signatures built from edge labels, attachment positions, and external-node
positions) followed by backtracking individualization; the minimum encoding
over all discrete refinements is canonical, and the first leaf (in search
order) that reaches it fixes the node and edge orders.  Only the *result* is
contractual; the refinement heuristic is not.

The search is pruned with automorphisms found at its leaves, in the manner of
McKay & Piperno, *Practical graph isomorphism II* (2014).  When a leaf encodes
like the first leaf or the best leaf so far, the map between the two leaf
colorings is an automorphism; it is recorded, and when it maps the earlier
leaf's path onto the current one the search returns to their common
ancestor.  At each node only those target-cell vertices are tried whose orbit,
under the recorded automorphisms that fix the node's path pointwise, holds no
vertex tried there before.  Refinement and target choice commute with
automorphisms, so every skipped subtree is the image of an already explored
subtree under an automorphism fixing the path, and its leaves encode exactly
like leaves seen earlier.  The best leaf is replaced only by a strictly
smaller encoding, so the first leaf reaching the minimum is never skipped:
the key and both orders are those of the unpruned search.

Edge labels contribute via their ``canon_key()`` method, so graphs labeled by
types are canonicalized up to type equality.  Internally labels are numbered
within each graph by the sorted set of their keys, which keeps the search on
small integers; the canonical tuple carries that sorted label table itself,
so the key depends on the graph alone.  The canonical key is the one identity
of a graph: nothing is interned, and the only cache is the one ``canon_data``
keeps on the graph value.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Hypergraph


class _Prep:
    """Integer-indexed view of a graph, shared by the whole canon search."""

    __slots__ = ("nodes", "edges", "label_table", "elab", "eatt", "inc", "ext", "n")

    def __init__(self, g: Hypergraph):
        self.nodes = g.nodes  # normalized sorted by construction
        self.edges = g.edges
        nidx = {v: i for i, v in enumerate(self.nodes)}
        keys = [g.lab[e].canon_key() for e in self.edges]
        self.label_table = tuple(sorted(set(keys)))
        local = {key: i for i, key in enumerate(self.label_table)}
        self.elab = [local[key] for key in keys]
        self.eatt = [tuple(nidx[v] for v in g.att[e]) for e in self.edges]
        self.n = len(self.nodes)
        inc: list[list[tuple[int, int, int]]] = [[] for _ in range(self.n)]
        for ei, att in enumerate(self.eatt):
            for pos, vi in enumerate(att):
                inc[vi].append((self.elab[ei], pos, ei))
        for lst in inc:
            lst.sort()
        self.inc = inc
        self.ext = tuple(nidx[v] for v in g.ext)


def _refine(prep: _Prep, colors: list[int]) -> list[int]:
    """1-dimensional refinement; color ranks come from sorted signature
    values, never from identifiers, so the partition is renaming-invariant."""
    eatt = prep.eatt
    inc = prep.inc
    n = prep.n
    distinct = len(set(colors))
    while True:
        sigs = []
        for vi in range(n):
            local = [
                (lab, pos, tuple(colors[u] for u in eatt[ei])) for lab, pos, ei in inc[vi]
            ]
            local.sort()
            sigs.append((colors[vi], tuple(local)))
        ranked = {s: r for r, s in enumerate(sorted(set(sigs)))}
        new = [ranked[s] for s in sigs]
        if len(ranked) == n or len(ranked) == distinct:
            return new  # discrete, or no cell split: stable
        distinct = len(ranked)
        colors = new


def _encode(prep: _Prep, colors: list[int]):
    edge_keys = sorted(
        ((prep.elab[ei], tuple(colors[v] for v in prep.eatt[ei])), ei)
        for ei in range(len(prep.edges))
    )
    enc = (
        len(prep.nodes),
        tuple(colors[v] for v in prep.ext),
        tuple(k for k, _ in edge_keys),
    )
    edge_order = [0] * len(prep.edges)
    for rank, (_, ei) in enumerate(edge_keys):
        edge_order[ei] = rank
    return enc, edge_order


def _target_cell(colors: list[int]) -> list[int] | None:
    """The first non-singleton cell in color order, or None when discrete.

    ``colors`` are refinement ranks, so every color is below ``len(colors)``.
    """
    n = len(colors)
    if len(set(colors)) == n:
        return None
    sizes = [0] * n
    for c in colors:
        sizes[c] += 1
    first = next(c for c, size in enumerate(sizes) if size > 1)
    return [vi for vi, c in enumerate(colors) if c == first]


def _find(orbits: list[int], x: int) -> int:
    while orbits[x] != x:
        orbits[x] = orbits[orbits[x]]
        x = orbits[x]
    return x


class _Search:
    """Individualization-refinement below a non-discrete root coloring."""

    __slots__ = ("prep", "path", "gens", "first", "best")

    def __init__(self, prep: _Prep):
        self.prep = prep
        self.path: list[int] = []  # vertices individualized above the current node
        # Pairs of leaf colorings with equal encodings.  Each pair is the
        # automorphism taking a vertex of the first coloring to the vertex of
        # the same color in the second.
        self.gens: list[tuple[list[int], list[int]]] = []
        self.first = None  # (enc, colors, edge_order, path) of the first leaf
        self.best = None  # the same for the least encoding so far

    def node(self, colors: list[int], target: list[int]) -> int | None:
        """Search below ``colors``; a depth to jump back to, or None."""
        prep = self.prep
        path = self.path
        depth = len(path)
        if all(not prep.inc[vi] for vi in target):
            # Nodes in an all-isolated cell are interchangeable: one branch
            # suffices, down to the cell's last node.  Individualizing an
            # isolated node only gives it the next color, since no other
            # signature mentions it, so that branch needs no refinement.
            child = list(colors)
            for fresh, vi in enumerate(target[:-1], max(colors) + 1):
                child[vi] = fresh
            path.extend(target[:-1])
            cell = _target_cell(child)
            jump = self.leaf(child) if cell is None else self.node(child, cell)
            del path[depth:]
            return jump
        gens = self.gens
        orbits = None  # union-find under the automorphisms that fix ``path``
        seen = 0
        tried: list[int] = []
        for vi in target:
            if tried and seen < len(gens):
                for src, dst in gens[seen:]:
                    if all(src[u] == dst[u] for u in path):
                        if orbits is None:
                            orbits = list(range(prep.n))
                        at = [0] * prep.n
                        for y, c in enumerate(dst):
                            at[c] = y
                        for x, c in enumerate(src):
                            if at[c] != x:
                                rx, ry = _find(orbits, x), _find(orbits, at[c])
                                orbits[max(rx, ry)] = min(rx, ry)
                seen = len(gens)
            if orbits is not None:
                root = _find(orbits, vi)
                if any(_find(orbits, w) == root for w in tried):
                    continue
            tried.append(vi)
            trial = list(colors)
            trial[vi] = prep.n
            child = _refine(prep, trial)
            path.append(vi)
            cell = _target_cell(child)
            jump = self.leaf(child) if cell is None else self.node(child, cell)
            path.pop()
            if jump is not None and jump < depth:
                return jump
        return None

    def leaf(self, colors: list[int]) -> int | None:
        enc, edge_order = _encode(self.prep, colors)
        first, best = self.first, self.best
        if first is None:
            self.first = self.best = (enc, colors, edge_order, tuple(self.path))
        elif enc == first[0]:
            return self._automorphism(first, colors)
        elif best is not first and enc == best[0]:
            return self._automorphism(best, colors)
        elif enc < best[0]:
            self.best = (enc, colors, edge_order, tuple(self.path))
        return None

    def _automorphism(self, ref, colors: list[int]) -> int | None:
        """Record the automorphism taking leaf ``ref`` to the current leaf.

        If it maps the earlier path onto the current one down to where they
        part, the current subtree there is its image of one already
        explored: return that depth.
        """
        _, ref_colors, _, ref_path = ref
        self.gens.append((ref_colors, colors))
        path = self.path
        a = 0
        while ref_path[a] == path[a]:
            a += 1
        if colors[path[a]] == ref_colors[ref_path[a]] and all(
            colors[u] == ref_colors[u] for u in path[:a]
        ):
            return a
        return None


def canon_data(g: Hypergraph):
    """(canonical tuple, node order, edge order); cached on the graph value."""
    cached = g.__dict__.get("_canon")
    if cached is None:
        prep = _Prep(g)
        init = [0] * prep.n
        for pos, vi in enumerate(prep.ext):
            init[vi] = pos + 1
        colors = _refine(prep, init)
        target = _target_cell(colors)
        if target is None:
            enc, edge_order = _encode(prep, colors)
        else:
            search = _Search(prep)
            search.node(colors, target)
            enc, colors, edge_order, _ = search.best
        key = ("H", *enc, prep.label_table)
        node_order = {v: colors[i] for i, v in enumerate(prep.nodes)}
        edge_map = {e: edge_order[i] for i, e in enumerate(prep.edges)}
        cached = (key, node_order, edge_map)
        object.__setattr__(g, "_canon", cached)
    return cached


def canonical_key(g: Hypergraph):
    """Hashable canonical encoding; equal iff isomorphic."""
    return canon_data(g)[0]


def canonical_form(g: Hypergraph) -> bytes:
    """Canonical byte encoding; byte-equal iff isomorphic."""
    return repr(canonical_key(g)).encode("utf-8")


def canonical_ordering(g: Hypergraph) -> tuple[dict[int, int], dict[int, int]]:
    """Maps from node/edge identifiers to canonical positions."""
    _, node_order, edge_order = canon_data(g)
    return node_order, edge_order


@dataclass(frozen=True)
class IsoWitness:
    node_map: dict[int, int]
    edge_map: dict[int, int]


def witness_valid(g: Hypergraph, h: Hypergraph, w: IsoWitness) -> bool:
    """Check a claimed isomorphism against its defining equations."""
    if sorted(w.node_map) != sorted(g.nodes) or sorted(w.node_map.values()) != sorted(h.nodes):
        return False
    if sorted(w.edge_map) != sorted(g.edges) or sorted(w.edge_map.values()) != sorted(h.edges):
        return False
    for e in g.edges:
        other = w.edge_map[e]
        if tuple(w.node_map[v] for v in g.att[e]) != h.att[other]:
            return False
        if g.lab[e].canon_key() != h.lab[other].canon_key():
            return False
    return tuple(w.node_map[v] for v in g.ext) == h.ext


def isomorphic(g: Hypergraph, h: Hypergraph) -> IsoWitness | None:
    """An isomorphism witness, or None.  Derived from canonical orderings."""
    if canonical_key(g) != canonical_key(h):
        return None
    g_nodes, g_edges = canonical_ordering(g)
    h_nodes, h_edges = canonical_ordering(h)
    inv_nodes = {i: v for v, i in h_nodes.items()}
    inv_edges = {i: e for e, i in h_edges.items()}
    w = IsoWitness(
        node_map={v: inv_nodes[i] for v, i in g_nodes.items()},
        edge_map={e: inv_edges[i] for e, i in g_edges.items()},
    )
    if not witness_valid(g, h, w):  # pragma: no cover - canonical orderings agree
        raise AssertionError("canonical orderings produced an invalid witness")
    return w


def transport_edge(g_from: Hypergraph, e: int, g_to: Hypergraph) -> int:
    """Map an edge through the canonical isomorphism between two equal-form graphs."""
    _, from_edges = canonical_ordering(g_from)
    _, to_edges = canonical_ordering(g_to)
    inv = {i: d for d, i in to_edges.items()}
    return inv[from_edges[e]]
