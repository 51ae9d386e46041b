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
flag such a node may instead join any part as an extra interior node.  For
each embedding the clusters are found by walking from edge to edge across
non-image nodes, over the incidences cached on the host.

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
from typing import Iterator

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


def _injective_maps(
    host: Hypergraph, fixed: dict[int, int], dom: list[int], forbidden: dict[int, frozenset[int]]
) -> Iterator[dict[int, int]]:
    """All injective extensions of ``fixed`` over ``dom`` into host nodes, in
    which no node outside ``fixed`` takes one of its ``forbidden`` images."""
    if len(set(fixed.values())) != len(fixed):
        return
    remaining = [v for v in dom if v not in fixed]
    used = set(fixed.values())

    def rec(i: int, current: dict[int, int]) -> Iterator[dict[int, int]]:
        if i == len(remaining):
            yield dict(current)
            return
        v = remaining[i]
        banned = forbidden.get(v, ())
        for target in host.nodes:
            if target in used or target in banned:
                continue
            used.add(target)
            current[v] = target
            yield from rec(i + 1, current)
            del current[v]
            used.discard(target)

    yield from rec(0, dict(fixed))


@dataclass
class _Cluster:
    edges: frozenset[int]
    image_hits: frozenset[int]  # incident host nodes inside the embedding image
    interior: frozenset[int]  # incident host nodes outside the image


def _clusters(host: Hypergraph, image: set[int], pivot: int | None = None) -> Iterator[_Cluster]:
    """Group the host's edges, except ``pivot``, by shared non-image nodes.

    Each cluster is one walk from an unvisited edge across the non-image
    nodes, over the incidences cached on the host; starting the walks in
    edge order yields the clusters ordered by their smallest edge, and a
    caller that stops early leaves the rest of the host unwalked.
    """
    att, incidences = host.att, host._incidence_map()
    seen = {pivot}
    for start in host.edges:
        if start in seen:
            continue
        seen.add(start)
        stack, edges, hits, interior = [start], [], set(), set()
        while stack:
            e = stack.pop()
            edges.append(e)
            for v in att[e]:
                if v in image:
                    hits.add(v)
                elif v not in interior:
                    interior.add(v)
                    for f, _ in incidences[v]:
                        if f not in seen:
                            seen.add(f)
                            stack.append(f)
        yield _Cluster(frozenset(edges), frozenset(hits), frozenset(interior))


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
    incidences = host._incidence_map()
    isolated = [v for v in host.nodes if v not in incidences and v not in host_ext]
    lonely_slots = [*slot_order, None] if pivot is not None else list(slot_order)
    edge_ids = sorted(slot_order)
    targets = None
    if typed is not None:
        targets = {m: dict(primitive_counts(pattern.lab[m])) for m in edge_ids}
    cluster_counts: dict = {}
    forbidden = {v: host_ext for v in consumed_dom}
    for phi in _injective_maps(host, fixed, sorted(pattern.nodes), forbidden):
        consumed_img = {phi[v] for v in consumed_dom}
        image = set(phi.values())
        lonely = [v for v in isolated if v not in image]
        if lonely and not nonminimal:
            if pivot is None:
                continue  # no part may take the node, yet every node is in one
            lonely = []  # the nodes stay outside the region
        att_sets = {m: {phi[u] for u in pattern.att[m]} for m in slot_order}
        clusters: list[_Cluster] = []
        slot_lists: list[list[int | None]] = []
        for c in _clusters(host, image, pivot):
            slots: list[int | None] = []
            if host_ext.isdisjoint(c.interior):
                slots = [m for m in slot_order if c.image_hits <= att_sets[m]]
            if pivot is not None and c.image_hits.isdisjoint(consumed_img):
                slots.append(None)  # the cluster may stay outside the region
            if not slots:
                break
            clusters.append(c)
            slot_lists.append(slots)
        else:  # every cluster has a slot
            slot_lists += [lonely_slots] * len(lonely)
            weights = None
            if typed is not None:
                weights = [_edge_counts(host, c.edges, cluster_counts) for c in clusters]
                weights += [()] * len(lonely)
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
