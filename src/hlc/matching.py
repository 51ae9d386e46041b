"""Enumeration of pattern decompositions and division contexts.

Read backward, the two search rules ask the host graph one question:

* product introduction: is the host ``M[m1 := H1, ..., ml := Hl]`` for the
  type-labeled pattern ``M``?  :func:`enumerate_decompositions` finds every
  such decomposition.

* division elimination: is the host ``H[e := D[$ := N ÷ D, d := H_d]]`` for
  a chosen host edge (the pivot) labeled N ÷ D?
  :func:`enumerate_context_extractions` finds every such context and returns
  the contracted graph ``H`` in which the region is one fresh N-labeled edge.

Both are answered by one search, ``_instances``: embed the pattern (D with
its hole on the pivot), group the host's remaining edges into clusters, and
give each cluster to one pattern edge.  A decomposition is the case without
a pivot, in which every cluster must go to a part; around a pivot a cluster
may also stay outside the region.  The two public functions only build their
results from the instances.  Both are exhaustive up to part-isomorphism, and
every instance reassembles to the host up to isomorphism.  Neither filters
isomorphic repeats: every instance yielded differs from the others in its
node map, its part edges or the nodes apportioned to its parts, though its
parts may be isomorphic to another's.  The prover's memo absorbs such
repeats, and ``hlc match`` lists them all.

Fusion semantics force the search structure: substituting a graph for an edge
fuses only its external nodes with the context, so the interior nodes of each
part are private to it.  Host nodes outside the embedding image therefore tie
the edges incident to them into clusters that must travel together, and a
cluster with a host external node inside cannot join a part.  By default
parts take the minimal node set (nodes incident to their edges plus their
external nodes): an isolated host node outside the image stays outside a
division context and rules out a decomposition.  Behind the ``nonminimal``
flag such a node may instead join any part as an extra interior node.

**Incremental clusters.**  The embeddings are searched depth first: the free
pattern nodes (those the external nodes or the hole do not fix) are placed in
node order, each on the host nodes in order, so the instances come in a fixed
order, on which the prover relies, since it stops at its first derivation.
Each partial map keeps the cluster partition of its image.  At the root the
clusters are found by walking from edge to edge across non-image nodes, over
the incidences cached on the host.  Placing the next node on host node ``t``
changes only the cluster whose interior holds ``t``: had ``t`` touched another
cluster's edge, it would lie in that cluster's interior too.  So only that
cluster is walked again and replaced by its pieces, and a ``t`` in no
interior (an isolated node, or one that only the pivot touches) changes
nothing.  A cluster's slots depend only on the preimages of the image nodes
it touches, which later placements keep, so its slot list, and its count sum
when typed, are computed once, when the cluster is made.  At a leaf the
clusters are sorted by their smallest edge, the order of a walk started in
edge order.

**Cut rule.**  An embedding yields nothing when one of its clusters has no
slot, or, in a minimal decomposition, when an isolated host node lies
outside its image.  Call each such cluster or node of a partial map a need.
A slotless cluster stays a slotless cluster until a later node lands in its
interior, and an isolated node stays outside the image until a later node
lands on it.  Interiors are disjoint and hold no isolated node, so each later
node meets at most one need, wherever it lands.  A partial map with more
needs than nodes left to place therefore has no leaf that yields, and is
cut.  When the two are equal, the next node is tried only inside a slotless
cluster or on a needy isolated node: anywhere else it leaves every need in
place (splitting a cluster with slots can only add slotless pieces) with one
node fewer to meet them.  The embeddings skipped are exactly those that would
reach no slot assignment, so neither the instances, their order nor the
typed tally change.

**Typed slot check.**  In proof search every host label is a type, and a rule
instance can be derived only if each part balances against its label
(``#H_d = #lab(d)``, see :mod:`hlc.hltypes`).  A caller that passes a
:class:`Tally` as ``typed`` gets only such instances: each cluster's
primitive counts are summed from its edge labels, and a slot assignment is
kept only when the clusters in every slot sum to that slot's label.  The
check runs before any part, contracted graph or :class:`Hypergraph` is built,
and a slot is checked as soon as no later cluster can join it, so one
mismatch skips a whole subtree of assignments; the tally counts every
assignment skipped.  ``models`` leaves ``typed`` unset, because its host
labels are alphabet symbols, which count nothing; ``hlc match`` lists every
decomposition, balanced or not.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, NamedTuple

from .graphs import Hypergraph
from .hltypes import Division, add_counts, dollar_edge, primitive_counts


@dataclass(frozen=True)
class Decomposition:
    """A presentation of the host as a substitution instance of the pattern."""

    node_map: dict[int, int]  # pattern node -> host node (injective)
    parts: dict[int, Hypergraph]  # pattern edge -> sub-hypergraph of the host
    part_edges: dict[int, frozenset[int]]


@dataclass(frozen=True)
class ContextExtraction:
    """A division context around ``pivot``, with the region contracted."""

    pivot: int  # host edge carrying the division type
    phi: dict[int, int]  # denominator node -> host node (injective)
    parts: dict[int, Hypergraph]  # denominator edge (non-$) -> sub-hypergraph
    part_edges: dict[int, frozenset[int]]
    contracted: Hypergraph  # host with the region collapsed to one fresh edge
    numerator_edge: int  # the fresh edge's identifier in ``contracted``


def _subgraph(
    host: Hypergraph, edges: frozenset[int], ext: tuple[int, ...], extra_nodes: set[int]
) -> Hypergraph:
    nodes = set(ext) | extra_nodes
    for e in edges:
        nodes.update(host.att[e])
    return Hypergraph(
        nodes=tuple(sorted(nodes)),
        edges=tuple(sorted(edges)),
        att={e: host.att[e] for e in edges},
        lab={e: host.lab[e] for e in edges},
        ext=ext,
    )


@dataclass
class Tally:
    """Slot assignments the typed check skipped (see the module docstring)."""

    pruned: int = 0


def _edge_counts(host: Hypergraph, edges: frozenset[int], known: dict) -> tuple:
    """Summed primitive counts of ``edges``, kept in ``known`` for the rest of
    one enumeration call, because the same cluster recurs under many
    embeddings."""
    counts = known.get(edges)
    if counts is None:
        acc: dict = {}
        for e in edges:
            add_counts(acc, primitive_counts(host.lab[e]))
        counts = known[edges] = tuple(acc.items())
    return counts


def _choices(
    slot_lists: list[list],
    weights: list[tuple] | None,
    targets: dict[int, dict] | None,
    typed: Tally | None,
) -> Iterator[tuple]:
    """Slot choices, one slot per list, in ``itertools.product`` order.

    With ``typed`` set, a choice is kept only when, for every slot, the summed
    ``weights`` of the lists choosing it equal ``targets[slot]`` (``None``
    has no target); each skipped choice is added to ``typed.pruned``.  A
    slot's sum is final once the last list offering it is decided, so it is
    checked there and a mismatch skips the whole subtree of choices at once.
    """
    if typed is None:
        yield from itertools.product(*slot_lists)
        return
    n = len(slot_lists)
    below = [1] * (n + 1)  # below[i]: full choices extending one prefix of length i
    for i in range(n - 1, -1, -1):
        below[i] = below[i + 1] * len(slot_lists[i])
    last: dict[int, int] = {}
    for i, slots in enumerate(slot_lists):
        for slot in slots:
            if slot is not None:
                last[slot] = i
    if any(targets[slot] for slot in targets if slot not in last):
        typed.pruned += below[0]  # a slot no list can fill stays at zero
        return
    closes: list[list[int]] = [[] for _ in range(n)]
    for slot, i in last.items():
        closes[i].append(slot)
    if not n:
        yield ()
        return
    sums: dict[int, dict] = {slot: {} for slot in targets}
    pick = [-1] * n
    i = 0
    while i >= 0:
        slots, w = slot_lists[i], weights[i]
        if pick[i] >= 0 and w and slots[pick[i]] is not None:
            add_counts(sums[slots[pick[i]]], w, -1)
        pick[i] += 1
        if pick[i] == len(slots):
            pick[i] = -1
            i -= 1
            continue
        slot = slots[pick[i]]
        if w and slot is not None:
            add_counts(sums[slot], w)
        if any(sums[t] != targets[t] for t in closes[i]):
            typed.pruned += below[i + 1]
        elif i + 1 < n:
            i += 1
        else:
            yield tuple(lists[k] for lists, k in zip(slot_lists, pick))


class _Cluster(NamedTuple):
    """Host edges tied together by shared nodes outside the image.

    Clusters are edge-disjoint, so they compare by their smallest edge alone,
    and a sorted list of them is in the order of their smallest edges.
    """

    first: int  # the smallest edge
    edges: frozenset[int]
    interior: set[int]  # incident host nodes outside the image
    slots: list  # the pattern edges that may take the cluster; None: outside
    weight: tuple | None  # summed primitive counts, with a ``typed`` tally


class _Search:
    """The embedding search of one ``_instances`` call (see the module
    docstring): depth first over the free pattern nodes, with the clusters of
    each partial map on its frame."""

    def __init__(self, host, pattern, slot_order, fixed, pivot, consumed_dom, needy, typed):
        self.host = host
        self.pivot = pivot
        self.fixed = fixed
        self.host_ext = frozenset(host.ext)
        self.slot_att = [(m, frozenset(pattern.att[m])) for m in slot_order]
        # Around a pivot, a cluster touching no consumed node may stay outside.
        self.consumed = frozenset(consumed_dom) if pivot is not None else None
        self.banned = {v: self.host_ext for v in consumed_dom}
        self.needy = needy  # host nodes that must end up in the image
        self.known = {} if typed is not None else None
        self.free = [v for v in sorted(pattern.nodes) if v not in fixed]
        self.placed: list[int] = []  # the host node of each free node placed
        self.preimage = {t: v for v, t in fixed.items()}  # over the image so far

    def run(self) -> Iterator[tuple[dict[int, int], list[_Cluster]]]:
        """Yield ``(phi, clusters)`` for every injective extension of the
        fixed map that no cluster and no needy node rules out, in the order of
        the free nodes and, for each, of the host nodes; the clusters are
        sorted."""
        preimage, placed, free = self.preimage, self.placed, self.free
        clusters = self.split(self.host.edges)
        stack: list[tuple[list[_Cluster], Iterator[int]]] = []
        if self._enter(clusters, stack):
            yield dict(self.fixed), sorted(clusters)
        while stack:
            clusters, branches = stack[-1]
            depth = len(stack) - 1
            while len(placed) > depth:
                del preimage[placed.pop()]
            t = next(branches, None)
            if t is None:
                stack.pop()
                continue
            preimage[t] = free[depth]
            placed.append(t)
            # Only the cluster whose interior holds t changes, into its pieces.
            c = next((c for c in clusters if t in c.interior), None)
            if c is not None:
                clusters = [x for x in clusters if x is not c] + self.split(c.edges)
            if self._enter(clusters, stack):
                phi = dict(self.fixed)
                phi.update(zip(free, placed))
                yield phi, sorted(clusters)

    def _enter(self, clusters: list[_Cluster], stack: list) -> bool:
        """Cut the partial map with these clusters, push its frame, or report
        that it is a leaf to yield.  Each later node meets at most one need,
        so more needs than nodes left cut, and as many restrict the next node
        to the interiors of slotless clusters and the needy nodes."""
        preimage = self.preimage
        slotless = [c for c in clusters if not c.slots]
        lonely = self.needy - preimage.keys()
        needs = len(slotless) + len(lonely)
        left = len(self.free) - len(self.placed)
        if needs > left:
            return False
        if not left:
            return True
        banned = self.banned.get(self.free[len(self.placed)], ())
        nodes = self.host.nodes
        if needs == left:
            allowed = lonely.union(*(c.interior for c in slotless))
            nodes = [t for t in nodes if t in allowed]
        stack.append((clusters, iter([t for t in nodes if t not in preimage and t not in banned])))
        return False

    def split(self, edges) -> list[_Cluster]:
        """The clusters that ``edges``, a union of clusters, fall into under
        the current image.

        Each is one walk from its smallest edge across non-image nodes, over
        the incidences cached on the host, so its edges and interior come in
        the same order whichever splits came before.  Its slots and weight are
        found here, once (see the module docstring).
        """
        host, preimage = self.host, self.preimage
        att, incidences = host.att, host._incidence_map()
        seen = {self.pivot}
        out = []
        for start in sorted(edges):
            if start in seen:
                continue
            seen.add(start)
            stack, found, hits, interior = [start], [], set(), set()
            while stack:
                e = stack.pop()
                found.append(e)
                for v in att[e]:
                    if v in preimage:
                        hits.add(preimage[v])
                    elif v not in interior:
                        interior.add(v)
                        for f, _ in incidences[v]:
                            if f not in seen:
                                seen.add(f)
                                stack.append(f)
            slots: list[int | None] = []
            if self.host_ext.isdisjoint(interior):
                slots = [m for m, att_m in self.slot_att if hits <= att_m]
            if self.consumed is not None and self.consumed.isdisjoint(hits):
                slots.append(None)
            edge_set = frozenset(found)
            weight = None if self.known is None else _edge_counts(host, edge_set, self.known)
            out.append(_Cluster(start, edge_set, interior, slots, weight))
        return out


def _instances(
    host: Hypergraph,
    pattern: Hypergraph,
    slot_order: list[int],
    fixed: dict[int, int],
    *,
    pivot: int | None,
    consumed_dom: list[int],
    nonminimal: bool,
    typed: Tally | None,
) -> Iterator[tuple]:
    """The instances of ``pattern`` in the host, with the ``slot_order``
    edges expanded to parts (see the module docstring).

    Yields ``(phi, parts, part_edges, outside, consumed)``: the embedding
    (an injective extension of ``fixed``), the parts and their host edges,
    the host edges left outside, and the host nodes the parts swallow.  A
    ``pivot`` joins no cluster and makes the outside a choice for every
    cluster that does not touch the image of ``consumed_dom``; those images
    may not be host external nodes.
    """
    host_ext = frozenset(host.ext)
    if any(fixed.get(v) in host_ext for v in consumed_dom):
        return
    if len(set(fixed.values())) != len(fixed):
        return
    incidences = host._incidence_map()
    isolated = [v for v in host.nodes if v not in incidences and v not in host_ext]
    # In a minimal decomposition every isolated node must be an image, since
    # no part may take it, yet every node is in one.
    needy = frozenset(isolated) if pivot is None and not nonminimal else frozenset()
    lonely_slots = [*slot_order, None] if pivot is not None else list(slot_order)
    edge_ids = sorted(slot_order)
    targets = None
    if typed is not None:
        targets = {m: dict(primitive_counts(pattern.lab[m])) for m in edge_ids}
    search = _Search(host, pattern, slot_order, fixed, pivot, consumed_dom, needy, typed)
    for phi, clusters in search.run():
        consumed_img = {phi[v] for v in consumed_dom}
        lonely = []  # isolated nodes outside the image, which a part may take
        if nonminimal:
            image = set(phi.values())
            lonely = [v for v in isolated if v not in image]
        slot_lists = [c.slots for c in clusters] + [lonely_slots] * len(lonely)
        weights = None
        if typed is not None:
            weights = [c.weight for c in clusters] + [()] * len(lonely)
        for choice in _choices(slot_lists, weights, targets, typed):
            part_edges: dict[int, set[int]] = {m: set() for m in edge_ids}
            extra_nodes: dict[int, set[int]] = {m: set() for m in edge_ids}
            outside: set[int] = set()
            consumed = set(consumed_img)
            for c, m in zip(clusters, choice):
                if m is None:
                    outside.update(c.edges)
                else:
                    part_edges[m].update(c.edges)
                    consumed.update(c.interior)
            for v, m in zip(lonely, choice[len(clusters):]):
                if m is not None:
                    extra_nodes[m].add(v)
                    consumed.add(v)
            frozen = {m: frozenset(part_edges[m]) for m in edge_ids}
            parts = {
                m: _subgraph(
                    host, frozen[m], tuple(phi[u] for u in pattern.att[m]), extra_nodes[m]
                )
                for m in edge_ids
            }
            yield phi, parts, frozen, outside, consumed


def enumerate_decompositions(
    host: Hypergraph,
    pattern: Hypergraph,
    *,
    nonminimal: bool = False,
    typed: Tally | None = None,
) -> Iterator[Decomposition]:
    """All ways to split the host into parts matching the pattern's edges.

    The pattern's external nodes are forced onto the host's (positionally);
    parts jointly cover every host edge and are edge-disjoint; each part's
    external nodes are the images of its pattern edge's attachment nodes.

    Decompositions with isomorphic parts may repeat (see the module
    docstring).  With a ``typed`` tally, only decompositions whose every part
    balances against its pattern edge's label are built, and the skipped slot
    assignments are counted in ``typed.pruned``.
    """
    if host.rank != pattern.rank:
        return
    slot_order = sorted(pattern.edges, key=lambda e: -len(pattern.att[e]))
    fixed = dict(zip(pattern.ext, host.ext))
    for phi, parts, part_edges, _, _ in _instances(
        host, pattern, slot_order, fixed,
        pivot=None, consumed_dom=[], nonminimal=nonminimal, typed=typed,
    ):
        yield Decomposition(node_map=dict(phi), parts=parts, part_edges=part_edges)


def enumerate_context_extractions(
    host: Hypergraph,
    pivot: int,
    div_type: Division,
    *,
    nonminimal: bool = False,
    typed: Tally | None = None,
) -> Iterator[ContextExtraction]:
    """All division contexts at ``pivot``, whose label must equal ``div_type``.

    An extraction embeds the denominator D into the host with its hole on the
    pivot, expands each non-hole edge of D to a sub-hypergraph, and contracts
    the whole region to a single fresh edge labeled by the numerator.  Emitted
    contexts are exactly those whose reassembly reproduces the host; contexts
    with isomorphic parts and contracted graphs may repeat (the prover's memo
    absorbs them).  With a ``typed`` tally, only extractions whose every part
    balances against its denominator edge's label are built, and the skipped
    slot assignments are counted in ``typed.pruned``.
    """
    d = div_type.denominator
    hole = dollar_edge(d)
    if len(d.att[hole]) != len(host.att[pivot]):
        return
    d_edges = [e for e in d.edges if e != hole]
    # Non-external denominator nodes are consumed by the contraction.
    consumed_dom = [v for v in d.nodes if v not in d.ext]
    fixed = dict(zip(d.att[hole], host.att[pivot]))
    fresh = max(host.edges, default=-1) + 1
    for phi, parts, part_edges, outside, consumed in _instances(
        host, d, d_edges, fixed,
        pivot=pivot, consumed_dom=consumed_dom, nonminimal=nonminimal, typed=typed,
    ):
        att = {e: host.att[e] for e in outside}
        lab = {e: host.lab[e] for e in outside}
        att[fresh] = tuple(phi[v] for v in d.ext)
        lab[fresh] = div_type.numerator
        contracted = Hypergraph(
            nodes=tuple(v for v in host.nodes if v not in consumed),
            edges=tuple(att),
            att=att,
            lab=lab,
            ext=host.ext,
        )
        yield ContextExtraction(
            pivot=pivot,
            phi=dict(phi),
            parts=parts,
            part_edges=part_edges,
            contracted=contracted,
            numerator_edge=fresh,
        )
