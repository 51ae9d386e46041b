"""Canonical forms and isomorphism for hypergraphs.

Two graphs are isomorphic iff their canonical forms are byte-equal.

A string graph (:func:`hlc.graphs.string_path`: two distinct external
nodes, and rank-2 edges that form one directed path from ``ext[0]`` to
``ext[1]`` through every node) is keyed by its word, ``("W", label keys
along the path)``, with its nodes and edges numbered along the path.  The
word key is exact.  An isomorphism keeps the external sequence, the
attachments and the ranks, so being a string graph is invariant under
isomorphism, and no string graph is isomorphic to a graph of the other kind.
An isomorphism between string graphs maps ``ext[0]`` to ``ext[0]`` and,
since each node has at most one outgoing edge, the i-th edge and node of the
path to the i-th; so it is unique, it keeps positions, and it exists exactly
when the words agree label by label.  So two string graphs have equal keys
exactly when they are isomorphic, and their path orders compose to that one
isomorphism.  This covers every caller of a canonical key or ordering:
:func:`isomorphic`, :func:`transport_edge`, the keys of types and sequents,
the denotation keys of :mod:`hlc.models`, :func:`representatives`, and
:func:`hlc.calculus.check_derivation`.

Every other graph's canonical form, ``("H", ...)``, is computed by
iterative partition refinement on node colors (signatures built from edge
labels, attachment positions, and external-node positions) followed by
backtracking individualization; the minimum encoding over all discrete
refinements is canonical, and the first leaf (in search order) that reaches
it fixes the node and edge orders.  Only the *result* is contractual; the
refinement heuristic is not.

Refinement ranks each vertex by its color and the sorted colors around it,
cell by cell.  A vertex alone in its cell keeps its rank whatever its
neighbourhood, so it is never signed; this is the rule of McKay & Piperno,
*Practical graph isomorphism II* (2014), that singleton cells are never
re-signed, and the ranks are those of signing every vertex.

The search is pruned with automorphisms, in the manner of the same paper.
When a leaf encodes like the first leaf or the best leaf so far, the map
between the two leaf colorings is an automorphism; it is recorded, and when
it maps the earlier leaf's path onto the current one the search returns to
their common ancestor.  At each node only those target-cell vertices are
tried whose orbit, under the recorded automorphisms that fix the node's path
pointwise, holds no vertex tried there before.  Refinement and target choice
commute with automorphisms, so every skipped subtree is the image of an
already explored subtree under an automorphism fixing the path, and its
leaves encode exactly like leaves seen earlier.  The best leaf is replaced
only by a strictly smaller encoding, so the first leaf reaching the minimum
is never skipped: the key and both orders are those of the unpruned search.

Some automorphisms are known before any leaf: swaps of twins.  Two vertices
are twins when their incidence multisets, the (label, attachment) of each
incident edge, agree once each vertex's own index is replaced by a
placeholder.  Twins v and w share no edge: one holding both would put w's
index in v's multiset, and w's own multiset cannot hold it.  So the equal
multisets pair each edge at v with an edge at w of the same label whose
attachment differs only in putting w for v.  A non-singleton cell holds no
external node, since the initial coloring gives each external node a color
of its own.  Swapping two twins of one cell is thus an automorphism that
fixes every other node, the path among them, and by the argument above the
search tries only the first twin of each class in a target cell: stars and
bundles of unary edges take one search path.  Isolated nodes are twins with
an empty multiset, so an all-isolated cell takes one branch down to its last
node; since no signature mentions an isolated node, individualizing one only
gives it the next color, and that descent needs no refinement.  The search
keeps its own stack, so its depth is not bounded by the interpreter's
recursion limit.

Edge labels contribute via their ``canon_key()`` method, so graphs labeled by
types are canonicalized up to type equality.  Internally labels are numbered
within each graph by the sorted set of their keys, which keeps the search on
small integers; the canonical tuple carries that sorted label table itself,
so the key depends on the graph alone.  The canonical key is the one identity
of a graph: nothing is interned, and the only cache is the one ``canon_data``
keeps on the graph value, which :func:`canonical_ordering` completes with a
string graph's orders when they are first asked for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .graphs import Hypergraph, string_path


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
    """1-dimensional refinement to a stable coloring; returns color ranks.

    A round ranks each vertex by its pair (color, local signature), where
    the local signature is the sorted list of (label, position, colors of
    the attachment) over its incidences.  Since the color comes first, the
    round is computed cell by cell in color order: the vertices of one cell
    get consecutive ranks in the order of their local signatures.  A vertex
    alone in its cell cannot split, so it is never signed; its rank follows
    from the cells before it.  Ranks come from sorted signature values, never
    from identifiers, so the partition is renaming-invariant.
    """
    eatt = prep.eatt
    inc = prep.inc
    n = prep.n
    by_color: dict[int, list[int]] = {}
    for vi, c in enumerate(colors):
        by_color.setdefault(c, []).append(vi)
    cells = [by_color[c] for c in sorted(by_color)]
    while True:
        new = [0] * n
        split: list[list[int]] = []
        color = colors.__getitem__
        for cell in cells:
            if len(cell) == 1:
                new[cell[0]] = len(split)
                split.append(cell)
                continue
            pieces: dict[tuple, list[int]] = {}
            for vi in cell:
                local = [(lab, pos, tuple(map(color, eatt[ei]))) for lab, pos, ei in inc[vi]]
                local.sort()
                pieces.setdefault(tuple(local), []).append(vi)
            for sig in sorted(pieces):
                for vi in pieces[sig]:
                    new[vi] = len(split)
                split.append(pieces[sig])
        if len(split) == n or len(split) == len(cells):
            return new  # discrete, or no cell split: stable
        cells = split
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

    __slots__ = ("prep", "twins", "path", "gens", "first", "best")

    def __init__(self, prep: _Prep, colors: list[int]):
        self.prep = prep
        # Each vertex's twin class (see the module docstring), named by its
        # first vertex, with -1 as the placeholder.  Only vertices that share
        # a root cell can meet in a target cell, so the root color is part
        # of the class; isolated vertices never reach ``_branches``.
        sizes = [0] * prep.n
        for c in colors:
            sizes[c] += 1
        classes: dict[tuple, int] = {}
        self.twins = list(range(prep.n))
        for vi, c in enumerate(colors):
            if sizes[c] > 1 and prep.inc[vi]:
                incidences = sorted(
                    (lab, tuple(-1 if u == vi else u for u in prep.eatt[ei]))
                    for lab, _, ei in prep.inc[vi]
                )
                self.twins[vi] = classes.setdefault((c, *incidences), vi)
        self.path: list[int] = []  # vertices individualized above the current node
        # Pairs of leaf colorings with equal encodings.  Each pair is the
        # automorphism taking a vertex of the first coloring to the vertex of
        # the same color in the second.
        self.gens: list[tuple[list[int], list[int]]] = []
        self.first = None  # (enc, colors, edge_order, path) of the first leaf
        self.best = None  # the same for the least encoding so far

    def run(self, colors: list[int]) -> None:
        """Search the tree below the root coloring depth first.

        The stack holds one (coloring, branches, depth) frame per node that
        branches; ``path`` holds ``depth`` vertices while a frame chooses its
        next branch.  A leaf's jump-back depth unwinds every frame below it.
        """
        prep = self.prep
        path = self.path
        stack: list[tuple[list[int], Iterator[int], int]] = []
        self._enter(colors, stack)
        while stack:
            colors, branches, depth = stack[-1]
            del path[depth:]
            vi = next(branches, None)
            if vi is None:
                stack.pop()
                continue
            trial = list(colors)
            trial[vi] = prep.n
            path.append(vi)
            jump = self._enter(_refine(prep, trial), stack)
            if jump is not None:
                while stack[-1][2] > jump:
                    stack.pop()

    def _enter(self, colors: list[int], stack: list) -> int | None:
        """Enter the node at ``colors``: push its frame, or evaluate its leaf
        and return the leaf's jump-back depth.

        An all-isolated target cell is passed through without a frame: its
        vertices are twins, so one branch suffices, down to the cell's last
        vertex; and individualizing an isolated vertex only gives it the
        next color, since no signature mentions it, so it needs no
        refinement.
        """
        path = self.path
        inc = self.prep.inc
        cell = _target_cell(colors)
        while cell is not None and not any(inc[vi] for vi in cell):
            colors = list(colors)
            for fresh, vi in enumerate(cell[:-1], max(colors) + 1):
                colors[vi] = fresh
            path.extend(cell[:-1])
            cell = _target_cell(colors)
        if cell is None:
            return self.leaf(colors)
        stack.append((colors, self._branches(cell), len(path)))
        return None

    def _branches(self, target: list[int]) -> Iterator[int]:
        """The vertices of ``target`` to individualize at the current node.

        Only the first vertex of each twin class in ``target`` is a
        candidate, and a candidate is skipped when its orbit, under the
        recorded automorphisms that fix ``path`` pointwise, holds a vertex
        tried here before.  Each resumption sees the gens recorded so far.
        """
        prep = self.prep
        twins = self.twins
        path = self.path
        gens = self.gens
        classes: set[int] = set()
        orbits = None  # union-find under the automorphisms that fix ``path``
        seen = 0
        tried: list[int] = []
        for vi in target:
            if twins[vi] in classes:
                continue
            classes.add(twins[vi])
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
            yield vi

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
    """(canonical tuple, node order, edge order); cached on the graph value.

    A string graph's orders are None here: most callers want its key alone,
    so :func:`canonical_ordering` builds them when they are first asked for.
    """
    cached = g.__dict__.get("_canon")
    if cached is not None:
        return cached
    path = string_path(g)
    if path is not None:
        lab = g.lab
        cached = (("W", tuple([lab[e].canon_key() for e in path])), None, None)
    else:
        prep = _Prep(g)
        init = [0] * prep.n
        for pos, vi in enumerate(prep.ext):
            init[vi] = pos + 1
        colors = _refine(prep, init)
        target = _target_cell(colors)
        if target is None:
            enc, edge_order = _encode(prep, colors)
        else:
            search = _Search(prep, colors)
            search.run(colors)
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


def representatives(graphs: Iterable[Hypergraph]) -> list[Hypergraph]:
    """One graph per isomorphism class among ``graphs``, the first met of
    each, in the order of their canonical keys."""
    first: dict[object, Hypergraph] = {}
    for g in graphs:
        first.setdefault(canonical_key(g), g)
    return [first[key] for key in sorted(first)]


def canonical_form(g: Hypergraph) -> bytes:
    """Canonical byte encoding; byte-equal iff isomorphic."""
    return repr(canonical_key(g)).encode("utf-8")


def canonical_ordering(g: Hypergraph) -> tuple[dict[int, int], dict[int, int]]:
    """Maps from node/edge identifiers to canonical positions; a string
    graph's are its path positions, built on first use and cached."""
    key, node_order, edge_order = canon_data(g)
    if node_order is None:
        path = string_path(g)
        nodes = [g.ext[0], *[g.att[e][1] for e in path]] if path else g.ext
        node_order = {v: i for i, v in enumerate(nodes)}
        edge_order = {e: i for i, e in enumerate(path)}
        object.__setattr__(g, "_canon", (key, node_order, edge_order))
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
        if tuple(w.node_map[v] for v in g.att[e]) != tuple(h.att[other]):
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
