from __future__ import annotations

import itertools
import random
import sys
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import hlc.canon
from hlc.canon import (
    IsoWitness,
    _encode,
    _Prep,
    canon_data,
    canonical_form,
    canonical_key,
    canonical_ordering,
    isomorphic,
    representatives,
    transport_edge,
    witness_valid,
)
from hlc.fmt import print_graph
from hlc.graphs import Hypergraph, RankedLabel, build_graph, dollar, flowerbed, string_graph
from hlc.hltypes import Division, Primitive, Product

A = RankedLabel("a", 2)
B = RankedLabel("b", 2)
U = RankedLabel("u", 1)
F = RankedLabel("f", 2)
T = RankedLabel("t", 3)


def permute(g: Hypergraph, rng: random.Random) -> Hypergraph:
    """Rename node and edge identifiers randomly."""
    nodes = list(g.nodes)
    edges = list(g.edges)
    new_nodes = rng.sample(range(100, 100 + 3 * len(nodes) + 1), len(nodes))
    new_edges = rng.sample(range(100, 100 + 3 * len(edges) + 1), len(edges))
    nmap = dict(zip(nodes, new_nodes))
    emap = dict(zip(edges, new_edges))
    return Hypergraph(
        nodes=tuple(nmap[v] for v in g.nodes),
        edges=tuple(emap[e] for e in g.edges),
        att={emap[e]: tuple(nmap[v] for v in g.att[e]) for e in g.edges},
        lab={emap[e]: g.lab[e] for e in g.edges},
        ext=tuple(nmap[v] for v in g.ext),
    )


def random_graph(rng: random.Random, max_nodes=5, max_edges=5) -> Hypergraph:
    labels = [A, B, U, RankedLabel("t", 3)]
    m = rng.randint(1, max_nodes)
    edges = []
    for _ in range(rng.randint(0, max_edges)):
        lab = rng.choice([l for l in labels if l.rank <= m])
        edges.append((lab, tuple(rng.sample(range(m), lab.rank))))
    k = rng.randint(0, m)
    return build_graph(range(m), edges, tuple(rng.sample(range(m), k)))


def brute_force_isomorphic(g: Hypergraph, h: Hypergraph) -> bool:
    """All-bijections oracle."""
    if len(g.nodes) != len(h.nodes) or len(g.edges) != len(h.edges):
        return False
    for perm in itertools.permutations(h.nodes):
        nmap = dict(zip(g.nodes, perm))
        if tuple(nmap[v] for v in g.ext) != h.ext:
            continue
        need = sorted(
            (g.lab[e].canon_key(), tuple(nmap[v] for v in g.att[e])) for e in g.edges
        )
        have = sorted((h.lab[e].canon_key(), h.att[e]) for e in h.edges)
        if need == have:
            return True
    return False


def test_representatives_keep_the_first_met_of_each_class_in_key_order():
    rng = random.Random(5)
    graphs = [random_graph(rng, max_nodes=3, max_edges=2) for _ in range(40)]
    pool = graphs + [permute(g, rng) for g in graphs]
    rng.shuffle(pool)
    reps = representatives(pool)
    keys = [canonical_key(g) for g in reps]
    assert keys == sorted(set(map(canonical_key, pool)))
    assert len(reps) < len(graphs)  # some classes were met more than twice
    for g in reps:
        assert g is next(h for h in pool if canonical_key(h) == canonical_key(g))


def test_renamed_copy_has_witness():
    rng = random.Random(1)
    for _ in range(100):
        g = random_graph(rng)
        h = permute(g, rng)
        w = isomorphic(g, h)
        assert w is not None and witness_valid(g, h, w)
        assert canonical_form(g) == canonical_form(h)


def test_label_order_matters():
    assert isomorphic(string_graph([A, B]), string_graph([B, A])) is None
    assert canonical_form(string_graph([A, B])) != canonical_form(string_graph([B, A]))


def test_reversed_ext_not_isomorphic_without_automorphism():
    g = string_graph([A, B])
    rev = Hypergraph(g.nodes, g.edges, dict(g.att), dict(g.lab), (g.ext[1], g.ext[0]))
    assert isomorphic(g, rev) is None
    # A palindromic chain has the swapping automorphism only with equal labels
    # and symmetric orientation; a directed chain still distinguishes ends.
    gg = string_graph([A, A])
    rev2 = Hypergraph(gg.nodes, gg.edges, dict(gg.att), dict(gg.lab), (2, 0))
    assert isomorphic(gg, rev2) is None


def test_brute_force_agreement_small():
    rng = random.Random(7)
    agree = 0
    for _ in range(300):
        g = random_graph(rng, max_nodes=4, max_edges=3)
        h = random_graph(rng, max_nodes=4, max_edges=3)
        fast = isomorphic(g, h) is not None
        slow = brute_force_isomorphic(g, h)
        assert fast == slow
        agree += fast
    assert agree > 0  # the sample includes coincidences


def test_brute_force_agreement_on_permutations():
    rng = random.Random(8)
    for _ in range(100):
        g = random_graph(rng, max_nodes=5, max_edges=4)
        h = permute(g, rng)
        assert brute_force_isomorphic(g, h)
        assert isomorphic(g, h) is not None


def test_invalid_witness_rejected():
    g = string_graph([A, B])
    h = permute(g, random.Random(3))
    w = isomorphic(g, h)
    bad = IsoWitness(node_map=dict(w.node_map), edge_map={0: w.edge_map[1], 1: w.edge_map[0]})
    assert not witness_valid(g, h, bad)


def test_list_attachments_give_a_valid_witness():
    # Graph construction keeps attachments as given, so they may be lists.
    listed = Hypergraph(nodes=[0, 1], edges=[0], att={0: [0, 1]}, lab={0: A}, ext=[])
    tupled = Hypergraph(nodes=[0, 1], edges=[0], att={0: (0, 1)}, lab={0: A}, ext=[])
    for g, h in ((listed, listed), (listed, tupled), (tupled, listed)):
        w = isomorphic(g, h)
        assert w is not None and witness_valid(g, h, w)
    flipped = Hypergraph(nodes=[0, 1], edges=[0], att={0: [1, 0]}, lab={0: A}, ext=[])
    identity = IsoWitness(node_map={0: 0, 1: 1}, edge_map={0: 0})
    assert witness_valid(listed, tupled, identity)
    assert not witness_valid(flipped, tupled, identity)


def test_transport_edge_roundtrip():
    rng = random.Random(11)
    for _ in range(50):
        g = random_graph(rng, max_nodes=4, max_edges=4)
        h = permute(g, rng)
        for e in g.edges:
            moved = transport_edge(g, e, h)
            assert g.lab[e].canon_key() == h.lab[moved].canon_key()


def test_canonical_ordering_is_discrete():
    g = string_graph([A, B, A])
    node_order, edge_order = canonical_ordering(g)
    assert sorted(node_order.values()) == list(range(len(g.nodes)))
    assert sorted(edge_order.values()) == list(range(len(g.edges)))


def test_canonical_key_distinguishes_parallel_edge_counts():
    one = build_graph([0, 1], [(A, (0, 1))], (0, 1))
    two = build_graph([0, 1], [(A, (0, 1)), (A, (0, 1))], (0, 1))
    assert canonical_key(one) != canonical_key(two)


def _string_labels() -> list:
    """Rank-2 labels for words: symbols, the hole ``$`` and types, two of them
    with a string graph inside.  Built afresh on each call, since a type
    caches its key."""
    p, q = Primitive("p", 2), Primitive("q", 2)
    return [
        A, B, dollar(2), p, Division(q, string_graph([dollar(2), p])), Product(string_graph([p, q]))
    ]


def _words(rng: random.Random, count: int, max_len: int) -> list[tuple]:
    labels = _string_labels()
    lengths = [rng.randint(1, max_len) for _ in range(count)]
    return [()] + [tuple(rng.choice(labels) for _ in range(n)) for n in lengths]


def _near_misses(g: Hypergraph) -> list[Hypergraph]:
    """One-edit changes of a string graph with edges: two different labels
    swapped, one edge reversed, an extra isolated node, the external nodes
    swapped, and the path closed into a cycle."""
    edges = g.edges
    out = []
    for e, f in itertools.combinations(edges, 2):
        if g.lab[e].canon_key() != g.lab[f].canon_key():
            out.append(Hypergraph(g.nodes, edges, g.att, {**g.lab, e: g.lab[f], f: g.lab[e]}, g.ext))
            break
    mid = edges[len(edges) // 2]
    out.append(Hypergraph(g.nodes, edges, {**g.att, mid: g.att[mid][::-1]}, g.lab, g.ext))
    out.append(Hypergraph((*g.nodes, max(g.nodes) + 1), edges, g.att, g.lab, g.ext))
    out.append(Hypergraph(g.nodes, edges, g.att, g.lab, g.ext[::-1]))
    loop = max(edges) + 1
    out.append(
        Hypergraph(
            g.nodes, (*edges, loop), {**g.att, loop: g.ext[::-1]}, {**g.lab, loop: g.lab[mid]}, g.ext
        )
    )
    return out


def test_string_graphs_are_keyed_by_their_word():
    rng = random.Random(21)
    for word in _words(rng, 60, 6):
        g = string_graph(word)
        h = permute(g, rng)
        key = canonical_key(g)
        assert key == ("W", tuple(a.canon_key() for a in word))
        assert canonical_key(h) == key
        w = isomorphic(g, h)
        assert w is not None and witness_valid(g, h, w)
        assert print_graph(g, canonical=True) == print_graph(h, canonical=True)
        for near in _near_misses(g) if word else ():
            assert canonical_key(near) != key
            assert isomorphic(g, near) is None


def test_string_orders_are_built_on_first_use():
    """A string graph's key is found without its orders; they come when first
    asked for, as its path positions, and stay cached beside the key."""
    rng = random.Random(24)
    for word in _words(rng, 30, 6):
        g = string_graph(word)
        h = permute(g, rng)
        key = canonical_key(h)
        assert canon_data(h) == (key, None, None)
        path = hlc.canon.string_path(h)
        nodes, edges = canonical_ordering(h)
        assert edges == {e: i for i, e in enumerate(path)}
        along = [h.ext[0], *(h.att[e][1] for e in path)] if path else h.ext
        assert nodes == {v: i for i, v in enumerate(along)}
        assert canon_data(h) == (key, nodes, edges)
        assert canonical_ordering(h)[0] is nodes
        w = isomorphic(g, h)
        assert w is not None and witness_valid(g, h, w)
        for e in g.edges:
            assert hlc.canon.transport_edge(g, e, h) == w.edge_map[e]


def _string_family(seed: int) -> list[Hypergraph]:
    """String graphs of random words, a renamed copy of each, and their near
    misses, all built afresh from ``seed``."""
    rng = random.Random(seed)
    graphs = []
    for word in _words(rng, 30, 4):
        g = string_graph(word)
        graphs += [g, permute(g, rng), *(_near_misses(g) if word else ())]
    return graphs


def test_string_keys_agree_with_refinement(monkeypatch):
    keys = [canonical_key(g) for g in _string_family(22)]
    assert any(key[0] == "W" for key in keys) and any(key[0] == "H" for key in keys)
    monkeypatch.setattr(hlc.canon, "string_path", lambda g: None)
    reference = [canonical_key(g) for g in _string_family(22)]
    assert all(key[0] == "H" for key in reference)
    for i, j in itertools.combinations(range(len(keys)), 2):
        assert (keys[i] == keys[j]) == (reference[i] == reference[j])


def _reference_refine(prep, colors):
    """Refinement that signs every vertex in every round, kept apart from
    ``canon._refine`` so the reference does not follow changes to it."""
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
            return new
        distinct = len(ranked)
        colors = new


def _reference_search(prep, colors):
    """The unpruned search: every vertex of each target cell is tried."""
    colors = _reference_refine(prep, colors)
    cells: dict[int, list[int]] = {}
    for vi, c in enumerate(colors):
        cells.setdefault(c, []).append(vi)
    target = None
    for c in sorted(cells):
        if len(cells[c]) > 1:
            target = cells[c]
            break
    if target is None:
        enc, edge_order = _encode(prep, colors)
        return enc, colors, edge_order
    branch = [target[0]] if all(not prep.inc[vi] for vi in target) else target
    fresh = prep.n
    best = None
    for vi in branch:
        trial = list(colors)
        trial[vi] = fresh
        cand = _reference_search(prep, trial)
        if best is None or cand[0] < best[0]:
            best = cand
    return best


def reference_canon_data(g: Hypergraph):
    """``canon_data`` computed by the unpruned search, without caching."""
    prep = _Prep(g)
    init = [0] * prep.n
    for pos, vi in enumerate(prep.ext):
        init[vi] = pos + 1
    enc, colors, edge_order = _reference_search(prep, init)
    key = ("H", *enc, prep.label_table)
    node_order = {v: colors[i] for i, v in enumerate(prep.nodes)}
    edge_map = {e: edge_order[i] for i, e in enumerate(prep.edges)}
    return key, node_order, edge_map


def cycle_unions(n: int) -> list[Hypergraph]:
    """Disjoint unions of directed ``a``-cycles on n nodes, one per partition
    of n into parts of at least 2, plus the same with an isolated node."""

    def partitions(total: int, least: int):
        if total == 0:
            yield []
        for part in range(least, total + 1):
            for rest in partitions(total - part, part):
                yield [part, *rest]

    graphs = []
    for parts in partitions(n, 2):
        edges, start = [], 0
        for length in parts:
            edges += [(A, (start + i, start + (i + 1) % length)) for i in range(length)]
            start += length
        graphs += [build_graph(range(n), edges), build_graph(range(n + 1), edges)]
    return graphs


def symmetric_families(k: int) -> list[tuple[str, Hypergraph, Hypergraph]]:
    """(name, graph, the graph with one attachment moved) for bundles of k parts."""
    disjoint = [(A, (2 * i, 2 * i + 1)) for i in range(k)]
    star = [(A, (0, i)) for i in range(1, k + 1)]
    unary = [(U, (i,)) for i in range(k)]
    return [
        (
            "disjoint",
            build_graph(range(2 * k), disjoint),
            build_graph(range(2 * k), disjoint[:-1] + [(A, (1, 2 * k - 1))]),
        ),
        ("star", build_graph(range(k + 1), star), build_graph(range(k + 1), star[:-1] + [(A, (1, k))])),
        ("unary", build_graph(range(k), unary), build_graph(range(k), unary[:-1] + [(U, (0,))])),
        ("flowerbed", flowerbed([[F] * k, [F]], B), flowerbed([[F] * (k - 1), [F] * 2], B)),
    ]


def twin_families(k: int) -> list[Hypergraph]:
    """Graphs whose cells hold twins: stars and unary bundles with external
    nodes, leaves on parallel edges, and cells that mix twins with vertices
    that are not their twins."""
    star = [(A, (0, i)) for i in range(1, k + 1)]
    unary = [(U, (i,)) for i in range(k)]
    two_stars = star + [(A, (k + 1, i)) for i in range(k + 2, 2 * k + 2)]
    petals = [(A, (i, (i + 1) % 3)) for i in range(3)]  # k - 1 leaves on each cycle node
    petals += [(B, (i, 3 + (k - 1) * i + j)) for i in range(3) for j in range(k - 1)]
    return [
        build_graph(range(k + 1), star, (0,)),
        build_graph(range(k + 1), star, (1,)),
        build_graph(range(k + 1), star, (1, 0)),
        build_graph(range(k), unary, (0,)),
        build_graph(range(k + 1), unary, (k,)),
        build_graph(range(k + 1), star + star),
        build_graph(range(k + 1), star + [(U, (1,))]),
        build_graph(range(2 * k + 2), two_stars),
        build_graph(range(2 * k + 2), two_stars + [(U, (k + 2,))]),
        build_graph(range(3 * k), petals),
        build_graph(range(k + 2), [(A, (i, j)) for i in range(2) for j in range(2, k + 2)]),
    ]


@st.composite
def small_graphs(draw) -> Hypergraph:
    """Up to 7 nodes, labels of rank 1-3, parallel edges, isolated nodes,
    and 0-2 external nodes; few labels, so symmetric graphs are common.

    Half of the graphs start from directed ``a``-cycles over the nodes: all
    their nodes look alike to refinement, though the nodes of cycles of
    different lengths are not alike, so the search must branch on cells whose
    vertices are not all in one orbit."""
    n = draw(st.integers(0, 7))
    labels = [lab for lab in (U, A, B, T) if lab.rank <= n]
    edges = []
    extra = 8
    if draw(st.booleans()):
        order = draw(st.permutations(range(n)))
        while len(order) >= 2:
            length = draw(st.integers(2, len(order)))
            cycle, order = order[:length], order[length:]
            edges += [(A, (cycle[i - 1], cycle[i])) for i in range(length)]
        extra = 2
    for _ in range(draw(st.integers(0, extra) if labels else st.just(0))):
        lab = draw(st.sampled_from(labels))
        att = tuple(draw(st.permutations(range(n)))[: lab.rank])
        edges += [(lab, att)] * draw(st.integers(1, 2))
    ext = tuple(draw(st.permutations(range(n)))[: draw(st.integers(0, min(2, n)))])
    return build_graph(range(n), edges, ext)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(small_graphs(), st.randoms(use_true_random=False))
def test_pruned_search_equals_unpruned_reference(g, rng):
    # String graphs too go through the search here; their word keys are
    # tested above.
    with mock.patch.object(hlc.canon, "string_path", lambda g: None):
        for graph in (g, permute(g, rng)):
            assert canon_data(graph) == reference_canon_data(graph)


def test_symmetric_families_equal_unpruned_reference():
    rng = random.Random(5)
    for k in range(2, 7):
        for _, g, near in symmetric_families(k):
            for graph in (g, near, permute(g, rng), permute(near, rng)):
                assert canon_data(graph) == reference_canon_data(graph)
    for n in range(2, 8):
        for g in cycle_unions(n):
            for graph in (g, permute(g, rng), permute(g, rng)):
                assert canon_data(graph) == reference_canon_data(graph)
    for k in range(2, 5):
        for g in twin_families(k):
            for graph in (g, permute(g, rng), permute(g, rng)):
                assert canon_data(graph) == reference_canon_data(graph)


@pytest.mark.parametrize("name", ["disjoint", "star", "unary", "flowerbed"])
def test_large_symmetric_graphs(name):
    [(_, g, near)] = [family for family in symmetric_families(20) if family[0] == name]
    h = permute(g, random.Random(name))
    w = isomorphic(g, h)
    assert w is not None and witness_valid(g, h, w)
    assert isomorphic(g, near) is None
    node_order, edge_order = canonical_ordering(g)
    assert sorted(node_order.values()) == list(range(len(g.nodes)))
    assert sorted(edge_order.values()) == list(range(len(g.edges)))


@pytest.mark.parametrize("k", [10, 20, 40])
def test_twins_take_one_search_path(k, monkeypatch):
    """A k-leaf star and k unary edges refine once at the root and once per
    individualized twin, k - 1 of them, on a single search path."""
    calls = []
    refine = hlc.canon._refine

    def counted(prep, colors):
        calls.append(None)
        return refine(prep, colors)

    monkeypatch.setattr(hlc.canon, "_refine", counted)
    for name in ("star", "unary"):
        [(_, g, _)] = [family for family in symmetric_families(k) if family[0] == name]
        calls.clear()
        canon_data(g)
        assert len(calls) == k, name


def test_star_wider_than_recursion_limit():
    k = sys.getrecursionlimit() + 100
    g = build_graph(range(k + 1), [(A, (0, i)) for i in range(1, k + 1)])
    h = permute(g, random.Random(k))
    w = isomorphic(g, h)
    assert w is not None and witness_valid(g, h, w)
    node_order, edge_order = canonical_ordering(g)
    assert sorted(node_order.values()) == list(range(len(g.nodes)))
    assert sorted(edge_order.values()) == list(range(len(g.edges)))
