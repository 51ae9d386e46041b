"""Concrete grammars, oracle predicates, and corpus generators.

The three HL-grammars built here exercise the engine end to end: a string
grammar for a^n b^(n+1), a grammar for all binary graphs without isolated
nodes, and a grammar for the bipartite ones.  Each is accompanied by a
first-principles oracle so that membership answers can be cross-checked
exhaustively at small sizes.
"""

from __future__ import annotations

import itertools
import random

from .calculus import DerivationTree, Prover
from .canon import canonical_ordering, representatives
from .graphs import (
    Hypergraph,
    RankedLabel,
    build_graph,
    dollar,
    handle,
    isolated_node_count,
    relabel,
    string_graph,
)
from .grammars import HRG, HLGrammar, Production
from .hltypes import Division, HLType, Primitive, Product, Sequent

STAR = RankedLabel("*", 2)


def build_sgr() -> HLGrammar:
    """String grammar over {a, b} accepting exactly SG(a^n b^(n+1))."""
    s = Primitive("s", 2)
    p = Primitive("p", 2)
    a = RankedLabel("a", 2)
    b = RankedLabel("b", 2)
    q = Division(s, string_graph([dollar(2), s, p]))
    return HLGrammar(
        alphabet=(a, b),
        distinguished=s,
        correspondence=((a, q), (b, p), (b, s)),
    )


def hgr1_types() -> dict[str, HLType]:
    """The rank-1 helper types and the sixteen edge types of the all-graphs grammar."""
    s = Primitive("s", 0)
    p = Primitive("p", 1)
    d_open = build_graph([0, 1], [(dollar(1), (0,)), (p, (1,))], ext=(0,))
    d_closed = build_graph([0, 1], [(dollar(1), (0,)), (p, (1,))], ext=())
    q = {1: p, 2: Division(p, d_open), 3: Division(s, d_closed)}
    types: dict[str, HLType] = {"s": s, "p": p, "Q1": q[1], "Q2": q[2], "Q3": q[3]}
    for i, j in itertools.product((1, 2, 3), repeat=2):
        types[f"M11_{i}{j}"] = Product(
            build_graph([0, 1], [(q[i], (0,)), (q[j], (1,))], ext=(0, 1))
        )
    for i in (1, 2, 3):
        types[f"M12_{i}"] = Product(build_graph([0, 1], [(q[i], (0,))], ext=(0, 1)))
        types[f"M21_{i}"] = Product(build_graph([0, 1], [(q[i], (1,))], ext=(0, 1)))
    types["M22"] = Product(build_graph([0, 1], [], ext=(0, 1)))
    return types


def build_hgr1() -> HLGrammar:
    """All binary graphs without isolated nodes, over the blank symbol."""
    t = hgr1_types()
    names = [f"M11_{i}{j}" for i, j in itertools.product((1, 2, 3), repeat=2)]
    names += [f"M12_{i}" for i in (1, 2, 3)]
    names += [f"M21_{j}" for j in (1, 2, 3)]
    names += ["M22"]
    return HLGrammar(
        alphabet=(STAR,),
        distinguished=t["s"],
        correspondence=tuple((STAR, t[name]) for name in names),
    )


def hgr2_types() -> dict[str, HLType]:
    p = Primitive("p", 1)
    q = Primitive("q", 1)

    def r(i: int, prim: Primitive) -> HLType:
        if i == 1:
            return prim
        if i == 2:  # hole and companion flower on the same, external node
            return Division(prim, build_graph([0], [(dollar(1), (0,)), (prim, (0,))], ext=(0,)))
        if i == 3:  # companion flower on a private node
            return Division(prim, build_graph([0, 1], [(dollar(1), (0,)), (prim, (1,))], ext=(0,)))
        # both: one companion beside the hole, one on a private node
        return Division(
            prim,
            build_graph([0, 1], [(dollar(1), (0,)), (prim, (0,)), (prim, (1,))], ext=(0,)),
        )

    types: dict[str, HLType] = {"p": p, "q": q}
    for i in (1, 2, 3, 4):
        types[f"R{i}p"] = r(i, p)
        types[f"R{i}q"] = r(i, q)
    for i, j in itertools.product((1, 2, 3, 4), repeat=2):
        types[f"M_{i}{j}"] = Product(
            build_graph([0, 1], [(types[f"R{i}p"], (0,)), (types[f"R{j}q"], (1,))], ext=(0, 1))
        )
    types["S"] = Product(build_graph([0, 1], [(p, (0,)), (q, (1,))], ext=()))
    return types


def build_hgr2() -> HLGrammar:
    """Bipartite binary graphs without isolated nodes, over the blank symbol."""
    t = hgr2_types()
    return HLGrammar(
        alphabet=(STAR,),
        distinguished=t["S"],
        correspondence=tuple(
            (STAR, t[f"M_{i}{j}"]) for i, j in itertools.product((1, 2, 3, 4), repeat=2)
        ),
    )


def build_syntree_hrg() -> HRG:
    """Tree grammar for a toy sentence, with left/right child markers fixed."""
    s = RankedLabel("S", 1)
    np = RankedLabel("NP", 1)
    n = RankedLabel("N", 1)
    the = RankedLabel("the", 1)
    cat = RankedLabel("cat", 1)
    sleeps = RankedLabel("sleeps", 1)
    l = RankedLabel("l", 2)
    r = RankedLabel("r", 2)
    rhs_s = build_graph(
        [0, 1, 2],
        [(np, (0,)), (sleeps, (2,)), (l, (1, 0)), (r, (1, 2))],
        ext=(1,),
    )
    rhs_np = build_graph(
        [0, 1, 2],
        [(the, (0,)), (n, (2,)), (l, (1, 0)), (r, (1, 2))],
        ext=(1,),
    )
    rhs_n = build_graph([0], [(cat, (0,))], ext=(0,))
    return HRG(
        nonterminals=(s, np, n),
        terminals=(the, cat, sleeps, l, r),
        productions=(Production(s, rhs_s), Production(np, rhs_np), Production(n, rhs_n)),
        start=s,
        fixed=frozenset({l, r}),
    )


def syntree() -> Hypergraph:
    """The fully expanded tree generated by :func:`build_syntree_hrg`."""
    the = RankedLabel("the", 1)
    cat = RankedLabel("cat", 1)
    sleeps = RankedLabel("sleeps", 1)
    l = RankedLabel("l", 2)
    r = RankedLabel("r", 2)
    return build_graph(
        [0, 1, 2, 3, 4],
        [
            (sleeps, (2,)),
            (the, (3,)),
            (cat, (4,)),
            (l, (0, 1)),
            (r, (0, 2)),
            (l, (1, 3)),
            (r, (1, 4)),
        ],
        ext=(0,),
    )


def build_sgr_hrg() -> HRG:
    """String-graph HRG equivalent to :func:`build_sgr`."""
    s = RankedLabel("S", 2)
    pp = RankedLabel("P", 2)
    a = RankedLabel("a", 2)
    b = RankedLabel("b", 2)
    return HRG(
        nonterminals=(s, pp),
        terminals=(a, b),
        productions=(
            Production(s, string_graph([a, s, pp])),
            Production(s, string_graph([b])),
            Production(pp, string_graph([b])),
        ),
        start=s,
    )


def in_l1(g: Hypergraph) -> bool:
    """Binary graph, no isolated nodes, no external nodes, nonempty."""
    if g.ext:
        return False
    if len(g.nodes) < 2:
        return False
    if any(len(g.att[e]) != 2 for e in g.edges):
        return False
    return isolated_node_count(g) == 0


def is_bipartite(g: Hypergraph) -> bool:
    """Brute-force two-coloring: every edge must leave part one into part two."""
    for e in g.edges:
        if len(g.att[e]) != 2:
            raise ValueError("bipartiteness is defined for binary graphs only")
    nodes = list(g.nodes)
    for mask in range(2 ** len(nodes)):
        side = {v: (mask >> i) & 1 for i, v in enumerate(nodes)}
        if all(side[g.att[e][0]] == 0 and side[g.att[e][1]] == 1 for e in g.edges):
            return True
    return False


def is_regular(g: Hypergraph) -> bool:
    """Some k >= 1 with indegree(v) = outdegree(v) = k for every node."""
    indeg = {v: 0 for v in g.nodes}
    outdeg = {v: 0 for v in g.nodes}
    for e in g.edges:
        att = g.att[e]
        if len(att) != 2:
            raise ValueError("regularity is defined for binary graphs only")
        outdeg[att[0]] += 1
        indeg[att[1]] += 1
    degrees = {indeg[v] for v in g.nodes} | {outdeg[v] for v in g.nodes}
    return len(degrees) == 1 and degrees != {0}


def hgr1_witness(
    g: Hypergraph,
    *,
    v_begin: int | None = None,
    v_end: int | None = None,
    anchor: dict[int, int] | None = None,
) -> dict[int, HLType]:
    """A relabeling of a binary graph that the all-graphs grammar accepts.

    Every node elects one incident edge (its anchor); one begin node and one
    distinct end node are chosen; each edge's type is then read off a
    four-case table from which nodes anchor to it and the begin/end coloring.
    Defaults pick anchors and endpoints by canonical order so isomorphic
    inputs get corresponding relabelings; explicit choices are for replaying
    a specific construction.
    """
    if not in_l1(g):
        raise ValueError("witness construction needs a binary graph without isolated nodes")
    node_order, edge_order = canonical_ordering(g)
    by_canon = sorted(g.nodes, key=lambda v: node_order[v])
    if v_begin is None:
        v_begin = by_canon[0]
    if v_end is None:
        v_end = by_canon[-1]
    if v_begin == v_end:
        raise ValueError("begin and end nodes must differ")
    if anchor is None:
        anchor = {
            v: min((e for e, _ in g.incidences(v)), key=lambda e: edge_order[e])
            for v in g.nodes
        }
    for v in g.nodes:
        if v not in anchor or anchor[v] not in g.att or v not in set(g.att[anchor[v]]):
            raise ValueError(f"anchor of node {v} must be an incident edge")
    color = {v: 2 for v in g.nodes}
    color[v_begin] = 1
    color[v_end] = 3
    t = hgr1_types()
    assignment: dict[int, HLType] = {}
    for e in g.edges:
        v1, v2 = g.att[e]
        first = anchor[v1] == e
        second = anchor[v2] == e
        if first and second:
            assignment[e] = t[f"M11_{color[v1]}{color[v2]}"]
        elif first:
            assignment[e] = t[f"M12_{color[v1]}"]
        elif second:
            assignment[e] = t[f"M21_{color[v2]}"]
        else:
            assignment[e] = t["M22"]
    return assignment


def all_binary_graphs(edge_counts: tuple[int, ...]) -> list[Hypergraph]:
    """Canonical representatives of ``*``-labelled binary graphs with the
    given edge counts, no external nodes and no isolated nodes.

    Only sorted edge tuples are built: sorting an edge tuple keeps its graph
    up to isomorphism and makes the tuple lexicographically no larger, so the
    first tuple met for each key is the same sorted one that the ordered
    tuples of ``itertools.product`` would meet first."""

    def graphs():
        for k in edge_counts:
            for m in range(2, 2 * k + 1):
                pairs = [(u, v) for u in range(m) for v in range(m) if u != v]
                for combo in itertools.combinations_with_replacement(pairs, k):
                    if len({v for pair in combo for v in pair}) == m:
                        yield build_graph(range(m), [(STAR, pair) for pair in combo], ext=())

    return representatives(graphs())


def random_l1_graph(rng: random.Random, max_edges: int = 5) -> Hypergraph:
    """A random binary graph without isolated or external nodes."""
    k = rng.randint(1, max_edges)
    while True:
        m = rng.randint(2, max(2, 2 * k))
        edges = []
        for _ in range(k):
            u = rng.randrange(m)
            v = rng.randrange(m)
            while v == u:
                v = rng.randrange(m)
            edges.append((STAR, (u, v)))
        g = build_graph(range(m), edges, ext=())
        if in_l1(g):
            return g


def sgr_member_strings(max_len: int = 7) -> list[str]:
    return [("a" * n) + ("b" * (n + 1)) for n in range(max_len) if 2 * n + 1 <= max_len]


def sgr_string_graph(word: str) -> Hypergraph:
    a = RankedLabel("a", 2)
    b = RankedLabel("b", 2)
    return string_graph([a if c == "a" else b for c in word])


def derivable_corpus(prover: Prover | None = None) -> list[DerivationTree]:
    """A deduplicated pool of checked derivations for meta-property tests.

    Gathered from the string grammar's accepted words, small all-graphs
    witnesses, and direct product instances; every subderivation of a found
    tree is itself a corpus entry.  One tree per conclusion, the first met,
    in the order they are met, which does not depend on how keys encode.
    """
    from .lambek import enumerate_lambek_corpus, translate_ltype

    prover = prover or Prover()
    trees: dict[object, DerivationTree] = {}

    def add(tree: DerivationTree) -> None:
        for node in tree.walk():
            trees.setdefault(node.conclusion.canon_key(), node)

    sgr = build_sgr()
    q, p, s = (t for _, t in sgr.correspondence)
    for n in range(4):
        labels = [q] * n + [s] + [p] * n
        result = prover.derive(Sequent(string_graph(labels), sgr.distinguished))
        assert isinstance(result, DerivationTree)
        add(result)
    rng = random.Random(7)
    for _ in range(6):
        g = random_l1_graph(rng, max_edges=3)
        assignment = hgr1_witness(g)
        result = prover.derive(Sequent(relabel(g, assignment), Primitive("s", 0)))
        assert isinstance(result, DerivationTree)
        add(result)
    # Product instances over small string patterns.
    pr2 = Primitive("p", 2)
    qr2 = Primitive("q", 2)
    for labels in ([pr2], [pr2, qr2], [qr2, qr2, pr2]):
        g = string_graph(labels)
        result = prover.derive(Sequent(g, Product(g)))
        assert isinstance(result, DerivationTree)
        add(result)
    # Each distinct Lambek type is translated once, so the counts and keys
    # cached on its translation are shared by every sequent it occurs in.
    translated: dict = {}

    def translate(t):
        if t not in translated:
            translated[t] = translate_ltype(t)
        return translated[t]

    for ants, succ in enumerate_lambek_corpus(max_each=1, max_succ=2):
        seq = Sequent(string_graph([translate(t) for t in ants]), translate(succ))
        result = prover.derive(seq)
        if isinstance(result, DerivationTree):
            add(result)
    return list(trees.values())


def nonderivable_corpus(prover: Prover | None = None) -> list[Sequent]:
    """Small sequents with exhaustive-failure answers (no budget events)."""
    prover = prover or Prover()
    p2 = Primitive("p", 2)
    q2 = Primitive("q", 2)
    sgr = build_sgr()
    q, p, s = (t for _, t in sgr.correspondence)
    out = [
        Sequent(handle(p2), q2),
        Sequent(string_graph([p2, q2]), p2),
        Sequent(string_graph([q, p, s]), sgr.distinguished),
        Sequent(string_graph([p2, q2]), Product(string_graph([q2, p2]))),
        Sequent(string_graph([p2]), Division(p2, string_graph([dollar(2), q2]))),
    ]
    for seq in out:
        result = prover.derive(seq)
        assert not isinstance(result, DerivationTree)
    return out
