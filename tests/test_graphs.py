from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, strategies as st

from hlc.canon import canonical_form, canonical_key, isomorphic
from hlc.fixtures import (
    all_binary_graphs,
    build_hgr1,
    build_hgr2,
    build_sgr,
    build_syntree_hrg,
    syntree,
)
from hlc.grammars import wgnf_to_hl
from hlc.graphs import (
    Hypergraph,
    RankedLabel,
    build_graph,
    dollar,
    flowerbed,
    handle,
    handle_label,
    isolated_node_count,
    relabel,
    relabel_one,
    replace,
    replace_all,
    string_graph,
    string_path,
    validate,
)
from hlc.hltypes import Division, Primitive, Product

A = RankedLabel("a", 2)
B = RankedLabel("b", 2)
C = RankedLabel("c", 2)


def test_validate_handle_ok():
    assert validate(handle(RankedLabel("p", 1))) is None


def test_validate_repeated_attachment():
    g = build_graph([0], [(A, (0, 0))], ())
    assert "repeated attachment" in validate(g)


def test_validate_rank_mismatch():
    g = build_graph([0, 1], [(RankedLabel("q", 2), (0,))], ())
    assert "rank mismatch" in validate(g)


def test_validate_unknown_node_and_repeated_ext():
    g = Hypergraph((0,), (0,), {0: (0, 5)}, {0: A}, ())
    assert "unknown node" in validate(g)
    g2 = build_graph([0, 1], [], (0, 0))
    assert "repeated external" in validate(g2)


def test_handle_shapes():
    p1 = handle(RankedLabel("p", 1))
    assert len(p1.nodes) == 1 and len(p1.edges) == 1 and p1.ext == p1.att[0]
    s0 = handle(RankedLabel("s", 0))
    assert s0.nodes == () and len(s0.edges) == 1 and s0.ext == ()
    q3 = handle(RankedLabel("q", 3))
    assert len(q3.nodes) == 3 and q3.ext == q3.att[0] and len(q3.ext) == 3


@pytest.mark.parametrize("rank", [0, 1, 2])
def test_handle_label_reads_handles(rank):
    label = RankedLabel("h", rank)
    assert handle_label(handle(label)) is label
    p = Primitive("p", rank)
    assert handle_label(handle(p)) is p


@pytest.mark.parametrize(
    "g",
    [
        string_graph([A, B]),  # two edges
        Hypergraph((0, 1), (0,), {0: (1, 0)}, {0: A}, (0, 1)),  # out of external order
        build_graph([0, 1, 2], [(A, (0, 1))], (0, 1)),  # one extra isolated node
        build_graph([0, 1], [], (0, 1)),  # no edge
        build_graph([], [], ()),  # no edge, rank 0
    ],
)
def test_handle_label_refuses_near_misses(g):
    assert handle_label(g) is None


def _handles_by_canon(g) -> bool:
    """The reference: ``g`` is isomorphic to the handle of its one edge's label."""
    return len(g.edges) == 1 and canonical_key(g) == canonical_key(handle(g.lab[g.edges[0]]))


def _type_graphs(t):
    """Every denominator and product body inside a type."""
    if isinstance(t, Division):
        yield t.denominator
        yield from _type_graphs(t.numerator)
        graph = t.denominator
    elif isinstance(t, Product):
        yield t.body
        graph = t.body
    else:
        return
    for e in graph.edges:
        yield from _type_graphs(graph.lab[e])


def test_handle_label_agrees_with_canonical_keys():
    """``handle_label`` finds a handle exactly when the canonical key says
    so: on the binary census under every external sequence, and on every
    denominator and product body of the fixture grammars and of the syntree
    grammar's conversion, trivial divisions kept or not."""
    graphs = [
        Hypergraph(g.nodes, g.edges, g.att, g.lab, ext)
        for g in all_binary_graphs((1, 2))
        for k in range(len(g.nodes) + 1)
        for ext in itertools.permutations(g.nodes, k)
    ]
    syntree_hrg = build_syntree_hrg()
    grammars = [build_sgr(), build_hgr1(), build_hgr2(), wgnf_to_hl(syntree_hrg)]
    # Kept, the trivial production's division has a handle denominator.
    grammars.append(wgnf_to_hl(syntree_hrg, keep_trivial_divisions=True))
    types = [t for g in grammars for t in (g.distinguished, *(t for _, t in g.correspondence))]
    graphs += [d for t in types for d in _type_graphs(t)]
    found = 0
    for g in graphs:
        label = handle_label(g)
        assert (label is not None) == _handles_by_canon(g)
        if label is not None:
            assert label is g.lab[g.edges[0]]
            found += 1
    assert 0 < found < len(graphs)


def test_string_graph_shapes():
    g = string_graph([A, B])
    assert len(g.nodes) == 3 and len(g.edges) == 2
    assert g.ext == (0, 2)
    assert g.att[0] == (0, 1) and g.att[1] == (1, 2)

    words = [RankedLabel(w, 2) for w in ("the", "cat", "sleeps")]
    chain = string_graph(words)
    assert len(chain.nodes) == 4 and [chain.lab[e].name for e in chain.edges] == [
        "the",
        "cat",
        "sleeps",
    ]

    single = string_graph([B])
    assert len(single.nodes) == 2 and single.ext == (0, 1)

    empty = string_graph([])
    assert len(empty.nodes) == 2 and empty.edges == () and len(empty.ext) == 2
    assert validate(empty) is None


WORDS = [()] + [w for n in range(1, 5) for w in itertools.product([A, B, C], repeat=n)]


def test_string_word_inverts_string_graph():
    """``string_path`` walks ``string_graph``'s edges in order, and reads the
    same word off a copy with renamed nodes and edges."""
    from tests.test_canon import permute

    rng = random.Random(0)
    for word in WORDS:
        g = string_graph(word)
        assert string_path(g) == g.edges
        h = permute(g, rng)
        path = string_path(h)
        assert tuple(h.lab[e] for e in path) == word
        nodes = [h.ext[0], *(h.att[e][1] for e in path)] if path else list(h.ext)
        assert all(h.att[e] == (nodes[i], nodes[i + 1]) for i, e in enumerate(path))
        assert nodes[-1] == h.ext[1] and sorted(nodes) == list(h.nodes)


def _with(g: Hypergraph, *, nodes=None, ext=None) -> Hypergraph:
    return Hypergraph(
        g.nodes if nodes is None else nodes, g.edges, g.att, g.lab, g.ext if ext is None else ext
    )


@pytest.mark.parametrize(
    "g",
    [
        _with(string_graph([A, B]), ext=(2, 0)),  # the path runs backwards
        # 0 -> 1 <-> 2 with 3 isolated: |V| = |E| + 1, and the walk from 0 cycles.
        build_graph(range(4), [(A, (0, 1)), (A, (1, 2)), (B, (2, 1))], ext=(0, 3)),
        # The same, ending on ext[1] after |E| steps, which lies on the cycle.
        build_graph(range(4), [(A, (0, 1)), (A, (1, 2)), (B, (2, 1))], ext=(0, 1)),
        build_graph(range(3), [(A, (0, 1)), (B, (0, 2))], ext=(0, 2)),  # branch
        build_graph(range(3), [(A, (0, 2)), (B, (1, 2))], ext=(0, 2)),  # merge
        _with(string_graph([A, B]), nodes=(0, 1, 2, 3)),  # an extra isolated node
        _with(string_graph([]), nodes=(0, 1, 2)),
        build_graph(range(3), [(A, (0, 1)), (RankedLabel("t", 3), (0, 1, 2))], ext=(0, 2)),
        _with(string_graph([A]), ext=()),
        _with(string_graph([A]), ext=(0,)),
        _with(string_graph([A, B]), ext=(0, 1, 2)),
    ],
    ids=[
        "reversed", "cycle", "cycle-end", "branch", "merge", "isolated", "isolated-empty", "rank3",
        "ext0", "ext1", "ext3",
    ],
)
def test_string_word_refuses_other_graphs(g):
    assert validate(g) is None
    assert string_path(g) is None


def test_string_graph_rejects_bad_rank():
    with pytest.raises(ValueError):
        string_graph([RankedLabel("u", 1)])


def test_relabel_to_types():
    s = Primitive("s", 2)
    p = Primitive("p", 2)
    q = Division(s, string_graph([dollar(2), s, p]))
    g = string_graph([A, A, B, B, B])
    f = {0: q, 1: q, 2: s, 3: p, 4: p}
    relabeled = relabel(g, f)
    assert [relabeled.lab[e] for e in relabeled.edges] == [q, q, s, p, p]
    assert relabeled.att == g.att and relabeled.ext == g.ext


def test_relabel_identity_is_isomorphic():
    g = string_graph([A, B])
    assert isomorphic(g, relabel(g, {e: g.lab[e] for e in g.edges})) is not None


def test_relabel_one_marks_hole():
    g = string_graph([A, B])
    marked = relabel_one(g, 1, dollar(2))
    assert marked.lab[0] == A and marked.lab[1] == dollar(2)
    with pytest.raises(ValueError):
        relabel_one(g, 0, RankedLabel("z", 3))
    with pytest.raises(KeyError):
        relabel_one(g, 9, A)


def test_replace_handle_is_identity():
    x = RankedLabel("X", 2)
    h = string_graph([A, B])
    assert isomorphic(replace(handle(x), 0, h), h) is not None


def test_replace_counting_and_rank():
    g = string_graph([A, RankedLabel("X", 2), B])
    h = string_graph([B, B])
    out = replace(g, 1, h)
    assert len(out.nodes) == len(g.nodes) + len(h.nodes) - 2
    assert len(out.edges) == len(g.edges) + len(h.edges) - 1
    assert out.ext == g.ext
    assert validate(out) is None


def test_replace_errors():
    g = string_graph([A])
    with pytest.raises(KeyError):
        replace(g, 7, g)
    with pytest.raises(ValueError):
        replace(g, 0, handle(RankedLabel("u", 1)))


def test_hrg_steps_build_syntree():
    hrg = build_syntree_hrg()
    start = handle(hrg.start)
    step1 = replace(start, 0, hrg.productions[0].rhs)
    np_edge = next(e for e in step1.edges if step1.lab[e].name == "NP")
    step2 = replace(step1, np_edge, hrg.productions[1].rhs)
    n_edge = next(e for e in step2.edges if step2.lab[e].name == "N")
    step3 = replace(step2, n_edge, hrg.productions[2].rhs)
    assert isomorphic(step3, syntree()) is not None


def test_replace_all_matches_both_orders():
    x = RankedLabel("X", 2)
    y = RankedLabel("Y", 2)
    g = string_graph([x, A, y])
    h1 = string_graph([B])
    h2 = string_graph([B, B])
    both = replace_all(g, {0: h1, 2: h2})
    order_a = replace(replace(g, 0, h1), 2, h2)
    order_b = replace(replace(g, 2, h2), 0, h1)
    assert isomorphic(both, order_a) is not None
    assert isomorphic(both, order_b) is not None


def _fold_replace_all(g, assignment):
    """One ``replace`` per edge, in increasing edge order: the identifiers
    that ``replace_all`` promises."""
    out = g
    for e in sorted(assignment):
        out = replace(out, e, assignment[e])
    return out


def _random_graph(rng, rank, labels, *, max_edges=3, extra_nodes=True):
    n = max(rank, *(l.rank for l in labels)) + (rng.randint(0, 2) if extra_nodes else 0)
    nodes = rng.sample(range(n + 3), n)  # ids with gaps, not 0..n-1
    edges = []
    for _ in range(rng.randint(0, max_edges)):
        label = rng.choice(labels)
        edges.append((label, tuple(rng.sample(nodes, label.rank))))
    g = build_graph(nodes, edges, tuple(rng.sample(nodes, rank)))
    # Edge ids with gaps, so that the largest edge is not always the last one.
    ids = sorted(rng.sample(range(2 * len(g.edges) + 1), len(g.edges)))
    return Hypergraph(
        g.nodes,
        tuple(ids),
        {i: g.att[e] for i, e in zip(ids, g.edges)},
        {i: g.lab[e] for i, e in zip(ids, g.edges)},
        g.ext,
    )


def test_replace_all_equals_the_fold_over_replace():
    rng = random.Random(11)
    labels = [A, B, RankedLabel("u", 1), RankedLabel("t", 3)]
    seen = {"edgeless": 0, "no extra nodes": 0, "largest edge emptied": 0}
    for _ in range(600):
        g = _random_graph(rng, rng.randint(0, 3), labels, max_edges=4)
        if not g.edges:
            continue
        targets = rng.sample(g.edges, rng.randint(1, len(g.edges)))
        assignment = {}
        for e in targets:
            h = _random_graph(
                rng, len(g.att[e]), labels,
                max_edges=rng.choice([0, 2]), extra_nodes=rng.random() < 0.7,
            )
            assignment[e] = h
            seen["edgeless"] += not h.edges
            seen["no extra nodes"] += len(h.nodes) == h.rank
            seen["largest edge emptied"] += e == max(g.edges) and not h.edges
        got = replace_all(g, assignment)
        want = _fold_replace_all(g, assignment)
        assert got.nodes == want.nodes
        assert got.edges == want.edges
        assert dict(got.att) == dict(want.att)
        assert dict(got.lab) == dict(want.lab)
        assert got.ext == want.ext
        assert validate(got) is None
    assert min(seen.values()) >= 20, seen
    g = string_graph([A, B])
    assert replace_all(g, {}) is g


def test_replace_all_errors():
    g = string_graph([A, B])
    with pytest.raises(KeyError, match="replace_all: unknown edge 7"):
        replace_all(g, {0: string_graph([B]), 7: string_graph([B])})
    with pytest.raises(ValueError, match=r"replace: rank mismatch \(edge rank 2, graph rank 1\)"):
        replace_all(g, {0: string_graph([B]), 1: handle(RankedLabel("u", 1))})


def test_isolated_node_count():
    assert isolated_node_count(handle(RankedLabel("p", 1))) == 0
    assert isolated_node_count(build_graph([0, 1, 2], [], ())) == 3
    assert isolated_node_count(syntree()) == 0


def test_flowerbed_two_singleton_multisets():
    a1 = RankedLabel("a", 1)
    fb = flowerbed([[a1], [a1]], B)
    assert len(fb.nodes) == 2 and len(fb.edges) == 3
    labels = sorted((fb.lab[e].name, fb.att[e]) for e in fb.edges)
    assert labels == [("a", (0,)), ("a", (1,)), ("b", (0, 1))]
    assert fb.ext == ()
    assert validate(fb) is None


def test_flowerbed_high_rank_flower():
    z3 = RankedLabel("z", 3)
    fb = flowerbed([[z3]], B)
    assert len(fb.nodes) == 3  # one spine node plus two private nodes
    assert len(fb.edges) == 1  # no spine edges when n = 1
    assert fb.att[0][0] == 0
    assert validate(fb) is None


def test_flowerbed_preconditions():
    a1 = RankedLabel("a", 1)
    with pytest.raises(ValueError):
        flowerbed([], B)
    with pytest.raises(ValueError):
        flowerbed([[B]], B)
    with pytest.raises(ValueError):
        flowerbed([[a1]], RankedLabel("b", 1))
    with pytest.raises(ValueError):
        flowerbed([[RankedLabel("n", 0)]], B)


def test_flowerbed_validates_for_random_inputs():
    rng = random.Random(5)
    labels = [RankedLabel("a", 1), RankedLabel("c", 2), RankedLabel("z", 3)]
    for _ in range(50):
        multisets = [
            [rng.choice(labels) for _ in range(rng.randint(0, 3))]
            for _ in range(rng.randint(1, 4))
        ]
        assert validate(flowerbed(multisets, B)) is None


@given(st.lists(st.sampled_from([A, B]), max_size=6))
def test_string_graphs_always_validate(word):
    g = string_graph(word)
    assert validate(g) is None
    assert g.rank == 2 and len(g.edges) == len(word)


@given(st.integers(0, 4))
def test_handles_always_validate(rank):
    g = handle(RankedLabel("h", rank))
    assert validate(g) is None and g.rank == rank


@given(st.data())
def test_replacement_counting_identity(data):
    outer_len = data.draw(st.integers(1, 4))
    inner_len = data.draw(st.integers(0, 4))
    target = data.draw(st.integers(0, outer_len - 1))
    g = string_graph([A] * outer_len)
    h = string_graph([B] * inner_len)
    out = replace(g, target, h)
    assert len(out.nodes) == len(g.nodes) + len(h.nodes) - 2
    assert len(out.edges) == len(g.edges) + len(h.edges) - 1
    assert validate(out) is None


def test_canonical_form_is_bytes():
    assert isinstance(canonical_form(string_graph([A])), bytes)
