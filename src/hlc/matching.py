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
may also stay outside the region, unless the caller asks for *whole*
contexts, which cover the host as a decomposition does: D's external nodes
are fixed to the host's by position and nothing stays outside, so the
contracted graph is the numerator's handle (the prover asks for these at a
primitive numerator, see :mod:`hlc.calculus`).  The two public functions
only build their results from the instances.  Both are exhaustive up to
part-isomorphism, and every instance reassembles to the host up to
isomorphism.  Neither filters
isomorphic repeats: every instance yielded differs from the others in its
node map, its part edges or the number of isolated nodes apportioned to each
part, though its parts may be isomorphic to another's.  The prover's memo
absorbs such repeats, and ``hlc match`` lists them all.

Fusion semantics force the search structure: substituting a graph for an edge
fuses only its external nodes with the context, so the interior nodes of each
part are private to it.  Host nodes outside the embedding image therefore tie
the edges incident to them into clusters that must travel together, and a
cluster with a host external node inside cannot join a part.  Replacement
keeps every interior node of the substituted graph, isolated or not, so an
isolated host node (no incident edge, not external) outside the image may
join any part as an interior node, or, around a pivot and unless the
context is whole, stay outside.  Such nodes are interchangeable: swapping
two of them is an automorphism of the host that fixes the image.  So they
are apportioned by count, one instance per count vector
(``itertools.combinations_with_replacement`` over the slots): in node
order, the first nodes go to the first slot that takes any, the next to the
next, and so on, which keeps every instance up to part-isomorphism.

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
it touches, which later placements keep, so its slot list, and its weight
when typed, are computed once, when the cluster is made.  At a leaf the
clusters are sorted by their smallest edge, the order of a walk started in
edge order.

**Cut rule.**  An embedding yields nothing when one of its clusters has no
slot.  Call each such cluster of a partial map a need.  A slotless cluster
stays a slotless cluster until a later node lands in its interior, and
interiors are disjoint, so each later node meets at most one need, wherever
it lands.  A partial map with more needs than nodes left to place therefore
has no leaf that yields, and is cut.  When the two are equal, the next node
is tried only inside a slotless cluster: anywhere else it leaves every need
in place (splitting a cluster with slots can only add slotless pieces) with
one node fewer to meet them.  The embeddings skipped are exactly those that
would reach no slot assignment, so this cut changes neither the instances,
their order nor the typed tally; the closed-slot cut below changes the tally
only.

**Typed slot check.**  In proof search every host label is a type, and a rule
instance can be derived only if each part balances against its label
(``#H_d = #lab(d)``, see :mod:`hlc.hltypes`), in its primitive counts and in
its node count.  A caller that passes a :class:`Tally` as ``typed`` gets
only such instances.  A part's interior nodes are those of its clusters,
plus the isolated nodes apportioned to it, since a cluster may join a slot
only if every image node it touches is one of the slot's attachment nodes.
So a part counts the sum over its clusters, each weighing its edges' labels
plus its interior nodes, plus one node per isolated node it takes.  Each
host packs count vectors (see :mod:`hlc.hltypes`) once, over the node count
and the primitives of its labels, ``k`` keys, with ``M`` the summed absolute
counts over all host edges plus the host's number of nodes.  Packing is
additive, so a cluster's weight is the sum of its edges' packed labels, one
addition per edge walked, plus its number of interior nodes, an isolated
node weighs 1, and a slot's sum is the packed sum of its clusters' and
nodes' counts.  A slot's sum counts a subset of the host edges and of the
host nodes, so it is in range.  A slot label out of range counts what no
slot sum can (a primitive the host lacks sums to zero in every slot, and a
count beyond ``M`` is out of reach), and packs to ``B**k``.  So a
packed sum equals a packed target exactly when the counts are equal.  With
``L`` isolated nodes outside the image, a slot's clusters must therefore sum
to its target less ``j`` nodes, ``0 <= j <= L``, which ``j`` of those nodes
make up.  A slot assignment of the clusters is kept only when every slot's
shortfall is such a ``j`` and the shortfalls add up to ``L`` (at most ``L``
where the rest may stay outside); it then has one balanced
apportionment, the count vector of the shortfalls.  A cluster with a single
slot makes no choice, so its weight enters that slot's sum up front, and a
slot that only such clusters offer is checked before anything is chosen.
Any other slot is checked as soon as no later cluster can join it, so one
miss skips a whole subtree of assignments; the tally counts every cluster
assignment skipped.  ``models`` leaves
``typed`` unset, because its host labels are alphabet symbols, which count
nothing; ``hlc match`` lists every decomposition, balanced or not.

**Closed slots.**  A typed search also cuts a partial map above the leaves
once the sum of one of its slots is final and wrong.  Let ``R`` be the free
pattern nodes still to place.  A slot is *closed* when no node of ``R`` is
attached to it, and a placed pattern node ``b`` is a *sealer* when every slot
attached to it is closed and, where clusters may stay outside, ``b`` is
consumed (in a decomposition or a whole context any such ``b`` will do).
``R`` only shrinks, so a closed slot stays closed and a sealer stays a
sealer.  Every cluster made later is a
piece of a split at a later node ``r`` of ``R``, and each piece touches
``r``, since the cluster split was connected through it; a closed slot is
attached to no node of ``R``, so no piece offers it.  The clusters offering
a closed slot in any leaf are therefore among those offering it now.  A
cluster that touches the image of a sealer ``b`` is *sealed*.  Should a
later node ``r`` land in its interior, the piece holding its edge at ``b``
touches both ``b`` and ``r``: no slot is attached to both, and the piece may
not stay outside either (``b`` is consumed, or there is no outside), so it
has no slot.  Every piece split off it later again touches ``b`` and a node
of ``R``, so a slotless cluster remains, and the leaf yields nothing.  A
sealed cluster is thus intact, with the slots it has now, in every leaf that
yields.  Hence, when every cluster offering a closed slot is sealed and
offers only that slot, the slot's sum is final but for the isolated nodes
apportioned to it.  Any of the host's ``n`` isolated nodes may join the
slot, so its sum in a leaf is the current sum plus ``j`` nodes,
``0 <= j <= n``.  That sum is a slot sum, so in
range, and the node count's place is 1: by injectivity it equals the target
only if the target minus the current sum is such a ``j``.  If it is not, no
leaf at or below the partial map yields, and the map is cut.  The closed
slots and the sealers depend only on the depth, so each search lists them
once per depth and checks only at the depths where they change, after the
needs cut; each cluster keeps the pattern nodes whose images it touches.  At
a leaf the slot check first compares every slot that only single-slot
clusters offer, allowing for the ``L <= n`` isolated nodes outside the
image.  That covers every slot the cut would check, so the cut stops one
depth short.  A cut removes only
subtrees whose every slot assignment the typed check would skip, so the
instances and their order stay the same.  ``Tally.closed`` counts the partial
maps cut, and ``Tally.pruned`` the cluster assignments skipped at the leaves.
An untyped search makes no such check.

**Setup and counts.**  What a search needs of the host (its external nodes,
its isolated nodes and its packed labels) and of the pattern (the slot
attachments, the free nodes and the closed-slot schedule) depends on that
graph alone, so it is found once and cached on the graph, as its incidences
are.  Each part and contracted graph is built with its connective count, and
with its counts when typed (see ``Prover._expand``), so the prover never
walks a fresh premise to count it.  A typed part counts what its label does.
The contracted graph counts what the host does: the region it loses holds
the ``int(D)`` nodes that the embedding consumes, and ``#(N ÷ D)`` already
subtracts them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, NamedTuple

from .graphs import Hypergraph
from .hltypes import (
    Division,
    Packing,
    connective_count,
    dollar_edge,
    pack_counts,
    pack_target,
    packing,
    primitive_counts,
    set_counts,
)


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
    host: Hypergraph,
    edges: frozenset[int],
    ext: tuple[int, ...],
    extra_nodes: set[int],
    counts=None,
) -> Hypergraph:
    """The part of the host on ``edges``, with its connective count set, and
    its counts when the caller knows them as ``counts``."""
    ccs = _host(host).ccs
    nodes = set(ext) | extra_nodes
    cc = 0
    for e in edges:
        nodes.update(host.att[e])
        cc += ccs[e]
    part = Hypergraph(
        nodes=nodes,
        edges=edges,
        att={e: host.att[e] for e in edges},
        lab={e: host.lab[e] for e in edges},
        ext=ext,
    )
    set_counts(part, cc, counts)
    return part


@dataclass
class Tally:
    """What the typed check skipped (see the module docstring)."""

    pruned: int = 0  # cluster slot assignments skipped at a leaf
    closed: int = 0  # partial maps cut because a closed slot's final sum is wrong


def _packing(edge_counts, nodes: int) -> Packing:
    """The host's packing, over the keys of ``edge_counts``, with ``M`` their
    summed absolute counts plus the host's ``nodes`` (see the module
    docstring)."""
    keys: set = set()
    bound = nodes
    for counts in edge_counts:
        for key, n in counts:
            keys.add(key)
            bound += abs(n)
    return packing(keys, bound)


class _Host(NamedTuple):
    """What every search in a host needs of it, found once (see the module
    docstring)."""

    ext: frozenset[int]
    isolated: list[int]  # nodes no edge touches, external ones aside
    packing: Packing
    packs: dict[int, int]  # edge -> packed counts of its label
    ccs: dict[int, int]  # edge -> connective count of its label


def _host(host: Hypergraph) -> _Host:
    """The host's :class:`_Host`, cached on it."""
    cached = host.__dict__.get("_match_host")
    if cached is None:
        ext = frozenset(host.ext)
        incidences = host._incidence_map()
        edge_counts = {e: primitive_counts(host.lab[e]) for e in host.edges}
        packed = _packing(edge_counts.values(), len(host.nodes))
        cached = _Host(
            ext=ext,
            isolated=[v for v in host.nodes if v not in incidences and v not in ext],
            packing=packed,
            packs={e: pack_counts(counts, packed.places) for e, counts in edge_counts.items()},
            ccs={e: connective_count(host.lab[e]) for e in host.edges},
        )
        object.__setattr__(host, "_match_host", cached)
    return cached


def _choices(
    slot_lists: list[list],
    weights: list[int],
    targets: dict[int, int] | None,
    typed: Tally | None,
    lonely_slots: list,
    lonely: int,
) -> Iterator[tuple]:
    """Slot choices, one slot per list in ``itertools.product`` order, each
    followed by the slots of ``lonely`` interchangeable isolated nodes, taken
    by count from ``lonely_slots`` (every slot, then ``None`` around a
    pivot), in ``itertools.combinations_with_replacement`` order.

    With ``typed`` set, a choice of the lists is kept only when, for every
    slot, the summed ``weights`` of the lists choosing it fall ``0..lonely``
    nodes short of ``targets[slot]`` (``None`` has no target) and the
    shortfalls add up to ``lonely`` (at most ``lonely`` when ``None`` takes
    the rest).  It is followed by the one apportionment that makes them up;
    each skipped choice is added to ``typed.pruned``.  A list
    with one slot is no choice: its weight goes into that slot's sum up
    front, and a slot that only such lists offer is checked before any
    choice is made.  Any other slot's sum is final once the last list with a
    choice offering it is decided, so it is checked there, and a miss skips
    the whole subtree of choices at once.
    """
    if lonely and not lonely_slots:
        return  # no part may take an isolated node
    if typed is None:
        apportionments = list(itertools.combinations_with_replacement(lonely_slots, lonely))
        for choice in itertools.product(*slot_lists):
            for extra in apportionments:
                yield choice + extra
        return
    sums = dict.fromkeys(targets, 0)
    free = []  # (index, slots, weight) of each list with a choice to make
    last: dict[int, int] = {}  # slot -> position in free of the last list offering it
    total = 1  # full choices
    for i, slots in enumerate(slot_lists):
        if len(slots) == 1:
            if slots[0] is not None:
                sums[slots[0]] += weights[i]
            continue
        for slot in slots:
            if slot is not None:
                last[slot] = len(free)
        free.append((i, slots, weights[i]))
        total *= len(slots)
    settled = dict(sums)  # the slots only single-slot lists offer are final
    for t in last:
        settled[t] = targets[t]
    if settled != targets and not all(0 <= targets[t] - settled[t] <= lonely for t in targets):
        typed.pruned += total
        return
    n = len(free)
    below = [1] * (n + 1)  # below[k]: full choices extending one prefix of k free lists
    for k in range(n - 1, -1, -1):
        below[k] = below[k + 1] * len(free[k][1])
    closes: list[list[int]] = [[] for _ in range(n)]
    for slot, k in last.items():
        closes[k].append(slot)
    choice = [slots[0] if len(slots) == 1 else None for slots in slot_lists]
    pick = [-1] * n
    k = 0
    while k >= 0:
        if k == n:  # a full choice: make up the shortfalls
            extra: list = []
            for t in lonely_slots:
                extra += [t] * (lonely - len(extra) if t is None else targets[t] - sums[t])
            if len(extra) == lonely:
                yield tuple(choice) + tuple(extra)
            else:
                typed.pruned += 1
            k -= 1
            continue
        i, slots, w = free[k]
        if pick[k] >= 0 and slots[pick[k]] is not None:
            sums[slots[pick[k]]] -= w
        pick[k] += 1
        if pick[k] == len(slots):
            pick[k] = -1
            k -= 1
            continue
        slot = choice[i] = slots[pick[k]]
        if slot is not None:
            sums[slot] += w
        if any(not 0 <= targets[t] - sums[t] <= lonely for t in closes[k]):
            typed.pruned += below[k + 1]
        else:
            k += 1


class _Cluster(NamedTuple):
    """Host edges tied together by shared nodes outside the image.

    Clusters are edge-disjoint, so they compare by their smallest edge alone,
    and a sorted list of them is in the order of their smallest edges.
    """

    first: int  # the smallest edge
    edges: frozenset[int]
    interior: set[int]  # incident host nodes outside the image
    hits: set[int]  # the pattern nodes whose images it touches
    slots: list  # the pattern edges that may take the cluster; None: outside
    weight: int  # summed packed counts of the edge labels, plus the interior


def _seals(nodes, slot_att, rest: set, consumed) -> tuple[list[int], frozenset[int]]:
    """The closed slots and the sealers while the free pattern nodes ``rest``
    are still to place (see the module docstring): a slot is closed when no
    node of ``rest`` is attached to it, and a sealer is a placed node whose
    every slot is closed and which, where clusters may stay outside
    (``consumed`` set), is consumed."""
    closed, open_nodes = [], set()
    for m, att_m in slot_att:
        if rest.isdisjoint(att_m):
            closed.append(m)
        else:
            open_nodes |= att_m
    sealers = frozenset(
        v for v in nodes
        if v not in rest and v not in open_nodes and (consumed is None or v in consumed)
    )
    return closed, sealers


class _Role(NamedTuple):
    """What every search of a pattern in one role needs of it, found once
    (see the module docstring)."""

    slot_att: list[tuple[int, frozenset[int]]]  # slot -> its attachment nodes
    free: list[int]  # the pattern nodes to place, in order
    consumed: frozenset[int] | None  # with an outside, the nodes the region swallows
    # depth -> (closed slots, sealers) where that pair changes
    seals: dict[int, tuple[list[int], frozenset[int]]]


def _role(pattern: Hypergraph, slot_order, fixed, whole, consumed_dom) -> _Role:
    """The pattern's :class:`_Role`, cached on it under everything it
    depends on."""
    roles = pattern.__dict__.get("_match_roles")
    if roles is None:
        roles = {}
        object.__setattr__(pattern, "_match_roles", roles)
    key = (tuple(slot_order), tuple(fixed), tuple(consumed_dom), whole)
    cached = roles.get(key)
    if cached is None:
        slot_att = [(m, frozenset(pattern.att[m])) for m in slot_order]
        # Unless the parts cover the whole host, a cluster touching no
        # consumed node may stay outside.
        consumed = None if whole else frozenset(consumed_dom)
        free = [v for v in sorted(pattern.nodes) if v not in fixed]
        seals = {}
        previous = None
        for k in range(len(free)):  # at a leaf, _choices checks first
            pair = _seals(pattern.nodes, slot_att, set(free[k:]), consumed)
            if pair != previous and pair[0]:
                seals[k] = pair
            previous = pair
        cached = roles[key] = _Role(slot_att, free, consumed, seals)
    return cached


class _Search:
    """The embedding search of one ``_instances`` call (see the module
    docstring): depth first over the free pattern nodes, with the clusters of
    each partial map on its frame."""

    def __init__(self, host, facts, role, fixed, pivot, consumed_dom, targets, typed):
        self.host = host
        self.att, self.incidences = host.att, host._incidence_map()
        self.pivot = pivot
        self.host_ext = facts.ext
        self.slot_att = role.slot_att
        self.consumed = role.consumed
        self.banned = {v: facts.ext for v in consumed_dom}
        self.spare = len(facts.isolated)  # how many isolated nodes a part may take
        self.packs = facts.packs  # host edge -> packed counts of its label
        self.targets, self.typed = targets, typed
        self.free = role.free
        self.placed: list[int] = []  # the host node of each free node placed
        self.preimage = {t: v for v, t in fixed.items()}  # over the image so far
        # The closed-slot cut runs only in a typed search.
        self.seals = role.seals if typed is not None else {}

    def run(self) -> Iterator[list[_Cluster]]:
        """Yield the clusters, sorted, of every injective extension of the
        fixed map that no cluster rules out, in the order of
        the free nodes and, for each, of the host nodes."""
        preimage, placed, free = self.preimage, self.placed, self.free
        clusters = self.split(self.host.edges)
        stack: list[tuple[list[_Cluster], Iterator[int]]] = []
        if self._enter(clusters, stack):
            yield sorted(clusters)
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
                yield sorted(clusters)

    def _enter(self, clusters: list[_Cluster], stack: list) -> bool:
        """Cut the partial map with these clusters, push its frame, or report
        that it is a leaf to yield.  Each later node meets at most one need,
        so more needs than nodes left cut, and as many restrict the next node
        to the interiors of slotless clusters.  A typed
        search then cuts, at the depths in ``seals``, a partial map with a
        closed slot whose final sum misses its target."""
        preimage = self.preimage
        slotless = [c for c in clusters if not c.slots]
        needs = len(slotless)
        left = len(self.free) - len(self.placed)
        if needs > left:
            return False
        seals = self.seals.get(len(self.placed))
        if seals is not None and self._closed_sum_differs(clusters, *seals):
            self.typed.closed += 1
            return False
        if not left:
            return True
        banned = self.banned.get(self.free[len(self.placed)], ())
        nodes = self.host.nodes
        if needs == left:
            allowed = set().union(*(c.interior for c in slotless))
            nodes = [t for t in nodes if t in allowed]
        stack.append((clusters, iter([t for t in nodes if t not in preimage and t not in banned])))
        return False

    def _closed_sum_differs(
        self, clusters: list[_Cluster], closed: list[int], sealers: frozenset[int]
    ) -> bool:
        """Whether some closed slot whose every offering cluster is sealed and
        single-slot sums to what no ``spare`` or fewer isolated nodes can
        raise to its target: such a sum is final in every leaf that yields
        but for those nodes (see the module docstring)."""
        sums = dict.fromkeys(closed, 0)
        for c in clusters:
            slots = c.slots
            if len(slots) == 1 and not sealers.isdisjoint(c.hits):
                if slots[0] in sums:
                    sums[slots[0]] += c.weight
            else:
                for m in slots:
                    sums.pop(m, None)  # a choice or a split may yet move this sum
                if not sums:
                    return False
        targets, spare = self.targets, self.spare
        for m, total in sums.items():
            if not 0 <= targets[m] - total <= spare:  # a node packs to 1
                return True
        return False

    def split(self, edges) -> list[_Cluster]:
        """The clusters that ``edges``, a union of clusters, fall into under
        the current image.

        Each is one walk from its smallest edge across non-image nodes, over
        the incidences cached on the host, so its edges and interior come in
        the same order whichever splits came before.  Its slots and weight are
        found here, once (see the module docstring).
        """
        preimage, packs, att, incidences = self.preimage, self.packs, self.att, self.incidences
        seen = {self.pivot}
        out = []
        for start in sorted(edges):
            if start in seen:
                continue
            seen.add(start)
            stack, found, hits, interior, weight = [start], [], set(), set(), 0
            while stack:
                e = stack.pop()
                found.append(e)
                weight += packs[e]
                for v in att[e]:
                    if v in preimage:
                        hits.add(preimage[v])
                    elif v not in interior:
                        interior.add(v)
                        for f, _ in incidences[v]:
                            if f not in seen:
                                seen.add(f)
                                stack.append(f)
            weight += len(interior)  # the part's interior nodes; a node packs to 1
            slots: list[int | None] = []
            if self.host_ext.isdisjoint(interior):
                slots = [m for m, att_m in self.slot_att if hits <= att_m]
            if self.consumed is not None and self.consumed.isdisjoint(hits):
                slots.append(None)
            out.append(_Cluster(start, frozenset(found), interior, hits, slots, weight))
        return out


def _instances(
    host: Hypergraph,
    pattern: Hypergraph,
    slot_order: list[int],
    fixed: dict[int, int],
    *,
    pivot: int | None,
    consumed_dom: list[int],
    typed: Tally | None,
    whole: bool,
) -> Iterator[tuple]:
    """The instances of ``pattern`` in the host, with the ``slot_order``
    edges expanded to parts (see the module docstring).

    Yields ``(phi, parts, part_edges, outside, consumed)``: the embedding
    (an injective extension of ``fixed``), the parts and their host edges,
    the host edges left outside, and the host nodes the parts swallow.  A
    ``pivot`` joins no cluster.  With ``whole``, every cluster and isolated
    node goes to a part; otherwise the outside is a choice for every isolated
    node and every cluster that does not touch the image of ``consumed_dom``.
    The images of ``consumed_dom`` may not be host external nodes.
    """
    if len(set(fixed.values())) != len(fixed):
        return
    facts = _host(host)
    if any(fixed.get(v) in facts.ext for v in consumed_dom):
        return
    lonely_slots = list(slot_order) if whole else [*slot_order, None]
    edge_ids = sorted(slot_order)
    targets = None
    counts = dict.fromkeys(edge_ids)  # the counts of each part, when typed
    if typed is not None:
        counts = {m: primitive_counts(pattern.lab[m]) for m in edge_ids}
        targets = {m: pack_target(c, facts.packing) for m, c in counts.items()}
    role = _role(pattern, slot_order, fixed, whole, consumed_dom)
    search = _Search(host, facts, role, fixed, pivot, consumed_dom, targets, typed)
    for clusters in search.run():
        # The isolated nodes outside the image, which a part may take.
        lonely = [v for v in facts.isolated if v not in search.preimage]
        slot_lists = [c.slots for c in clusters]
        weights = [c.weight for c in clusters]
        phi = None
        for choice in _choices(slot_lists, weights, targets, typed, lonely_slots, len(lonely)):
            if phi is None:
                phi = dict(fixed)
                phi.update(zip(search.free, search.placed))
                consumed_img = {phi[v] for v in consumed_dom}
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
                    host,
                    frozen[m],
                    tuple(phi[u] for u in pattern.att[m]),
                    extra_nodes[m],
                    counts[m],
                )
                for m in edge_ids
            }
            yield phi, parts, frozen, outside, consumed


def enumerate_decompositions(
    host: Hypergraph,
    pattern: Hypergraph,
    *,
    typed: Tally | None = None,
) -> Iterator[Decomposition]:
    """All ways to split the host into parts matching the pattern's edges.

    The pattern's external nodes are forced onto the host's (positionally);
    parts jointly cover every host edge and are edge-disjoint; each part's
    external nodes are the images of its pattern edge's attachment nodes.

    Decompositions with isomorphic parts may repeat (see the module
    docstring).  With a ``typed`` tally, only decompositions whose every part
    balances against its pattern edge's label are built; the slot assignments
    skipped at a leaf are counted in ``typed.pruned``, and the partial maps
    the closed-slot cut removes in ``typed.closed``.
    """
    if host.rank != pattern.rank:
        return
    slot_order = sorted(pattern.edges, key=lambda e: -len(pattern.att[e]))
    fixed = dict(zip(pattern.ext, host.ext))
    for phi, parts, part_edges, _, _ in _instances(
        host, pattern, slot_order, fixed,
        pivot=None, consumed_dom=[], typed=typed, whole=True,
    ):
        yield Decomposition(node_map=dict(phi), parts=parts, part_edges=part_edges)


def enumerate_context_extractions(
    host: Hypergraph,
    pivot: int,
    div_type: Division,
    *,
    typed: Tally | None = None,
    whole: bool = False,
) -> Iterator[ContextExtraction]:
    """All division contexts at ``pivot``, whose label must equal ``div_type``.

    An extraction embeds the denominator D into the host with its hole on the
    pivot, expands each non-hole edge of D to a sub-hypergraph, and contracts
    the whole region to a single fresh edge labeled by the numerator.  Emitted
    contexts are exactly those whose reassembly reproduces the host; contexts
    with isomorphic parts and contracted graphs may repeat (the prover's memo
    absorbs them).  With a ``typed`` tally, only extractions whose every part
    balances against its denominator edge's label are built; the slot
    assignments skipped at a leaf are counted in ``typed.pruned``, and the
    partial maps the closed-slot cut removes in ``typed.closed``.

    With ``whole``, only the contexts that cover the whole host are built:
    D's external nodes lie on the host's, by position, and no cluster or
    isolated node stays outside, so the contracted graph is the numerator's
    handle.  These are exactly the extractions without ``whole`` whose
    contracted graph has one edge, attached to the host's external nodes in
    order, and no other node, in the same order.
    """
    d = div_type.denominator
    hole = dollar_edge(d)
    if len(d.att[hole]) != len(host.att[pivot]):
        return
    fixed = dict(zip(d.att[hole], host.att[pivot]))
    if whole:
        if len(d.ext) != len(host.ext):
            return
        for v, t in zip(d.ext, host.ext):
            if fixed.setdefault(v, t) != t:
                return
    d_edges = [e for e in d.edges if e != hole]
    # Non-external denominator nodes are consumed by the contraction.
    consumed_dom = [v for v in d.nodes if v not in d.ext]
    fresh = max(host.edges, default=-1) + 1
    # The contracted graph trades the pivot and the parts for the numerator;
    # typed, its counts are the host's (see ``Prover._expand``).
    shift = connective_count(host) - connective_count(div_type) + connective_count(
        div_type.numerator
    )
    host_counts = primitive_counts(host) if typed is not None else None
    for phi, parts, part_edges, outside, consumed in _instances(
        host, d, d_edges, fixed,
        pivot=pivot, consumed_dom=consumed_dom, typed=typed, whole=whole,
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
        set_counts(
            contracted,
            shift - sum(connective_count(part) for part in parts.values()),
            host_counts,
        )
        yield ContextExtraction(
            pivot=pivot,
            phi=dict(phi),
            parts=parts,
            part_edges=part_edges,
            contracted=contracted,
            numerator_edge=fresh,
        )
