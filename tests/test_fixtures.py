from __future__ import annotations

import itertools
import random

import pytest

from hlc.calculus import DerivationTree, check_derivation
from hlc.canon import canonical_key
from hlc.fixtures import (
    all_binary_graphs,
    build_hgr1,
    build_hgr2,
    build_sgr,
    derivable_corpus,
    hgr1_types,
    hgr2_types,
    hgr1_witness,
    in_l1,
    is_bipartite,
    is_regular,
    random_l1_graph,
    sgr_member_strings,
    STAR,
)
from hlc.graphs import RankedLabel, build_graph, relabel
from hlc.hltypes import Sequent, validate_type
from hlc.suites import kite_graph


def test_sgr_member_strings():
    assert sgr_member_strings(7) == ["b", "abb", "aabbb", "aaabbbb"]


def test_all_fixture_types_validate():
    for types in (hgr1_types(), hgr2_types()):
        for t in types.values():
            assert validate_type(t) is None
    for g in (build_sgr(), build_hgr1(), build_hgr2()):
        for _, t in g.correspondence:
            assert validate_type(t) is None


def test_fixture_type_ranks():
    t1 = hgr1_types()
    assert t1["Q1"].rank == 1 and t1["Q2"].rank == 1 and t1["Q3"].rank == 1
    assert t1["M11_11"].rank == 2 and t1["M22"].rank == 2
    assert t1["s"].rank == 0
    t2 = hgr2_types()
    for i in (1, 2, 3, 4):
        assert t2[f"R{i}p"].rank == 1
    assert t2["S"].rank == 0
    assert t2["M_11"].rank == 2


def test_witness_replays_worked_example(prover):
    # Four nodes 0..3, edges 0->1, 0->2, 1->2, 3->2; anchors: nodes 0 and 1
    # elect the first edge, node 2 elects the second, node 3 elects the last;
    # begin node 3, end node 0.
    g = kite_graph()
    anchor = {0: 0, 1: 0, 2: 1, 3: 3}
    assignment = hgr1_witness(g, v_begin=3, v_end=0, anchor=anchor)
    t = hgr1_types()
    assert assignment[0] == t["M11_32"]
    assert assignment[1] == t["M21_2"]
    assert assignment[2] == t["M22"]
    assert assignment[3] == t["M12_1"]
    result = prover.derive(Sequent(relabel(g, assignment), t["s"]))
    assert isinstance(result, DerivationTree)


def test_witness_single_edge(prover):
    g = build_graph([0, 1], [(STAR, (0, 1))], ())
    assignment = hgr1_witness(g, v_begin=0, v_end=1, anchor={0: 0, 1: 0})
    t = hgr1_types()
    assert assignment[0] == t["M11_13"]
    result = prover.derive(Sequent(relabel(g, assignment), t["s"]))
    assert isinstance(result, DerivationTree)
    assert check_derivation(result) is None


def test_witness_triangle(prover):
    g = build_graph([0, 1, 2], [(STAR, (0, 1)), (STAR, (1, 2)), (STAR, (2, 0))], ())
    assignment = hgr1_witness(g)
    t = hgr1_types()
    result = prover.derive(Sequent(relabel(g, assignment), t["s"]))
    assert isinstance(result, DerivationTree)


def test_witness_rejects_bad_input():
    lonely = build_graph([0, 1, 2], [(STAR, (0, 1))], ())
    with pytest.raises(ValueError):
        hgr1_witness(lonely)
    edge = build_graph([0, 1], [(STAR, (0, 1))], ())
    with pytest.raises(ValueError):
        hgr1_witness(edge, v_begin=0, v_end=0)
    with pytest.raises(ValueError):
        hgr1_witness(edge, anchor={0: 5, 1: 0})


def test_bipartite_oracle():
    cycle3 = build_graph([0, 1, 2], [(STAR, (0, 1)), (STAR, (1, 2)), (STAR, (2, 0))], ())
    assert not is_bipartite(cycle3)
    edge = build_graph([0, 1], [(STAR, (0, 1))], ())
    assert is_bipartite(edge)
    cycle2 = build_graph([0, 1], [(STAR, (0, 1)), (STAR, (1, 0))], ())
    assert not is_bipartite(cycle2)
    path2 = build_graph([0, 1, 2], [(STAR, (0, 1)), (STAR, (1, 2))], ())
    assert not is_bipartite(path2)
    star_in = build_graph([0, 1, 2], [(STAR, (0, 1)), (STAR, (2, 1))], ())
    assert is_bipartite(star_in)
    with pytest.raises(ValueError):
        is_bipartite(build_graph([0], [(RankedLabel("u", 1), (0,))], ()))


def test_regular_oracle():
    edge = build_graph([0, 1], [(STAR, (0, 1))], ())
    assert not is_regular(edge)
    cycle2 = build_graph([0, 1], [(STAR, (0, 1)), (STAR, (1, 0))], ())
    assert is_regular(cycle2)
    cycle3 = build_graph([0, 1, 2], [(STAR, (0, 1)), (STAR, (1, 2)), (STAR, (2, 0))], ())
    assert is_regular(cycle3)
    lopsided = build_graph([0, 1], [(STAR, (0, 1)), (STAR, (0, 1))], ())
    assert not is_regular(lopsided)


def test_l1_oracle():
    edge = build_graph([0, 1], [(STAR, (0, 1))], ())
    assert in_l1(edge)
    assert not in_l1(build_graph([0, 1, 2], [(STAR, (0, 1))], ()))  # isolated node
    assert not in_l1(build_graph([0, 1], [(STAR, (0, 1))], (0,)))  # external node
    assert not in_l1(build_graph([], [], ()))  # empty graph
    assert not in_l1(build_graph([0], [(RankedLabel("u", 1), (0,))], ()))  # unary edge


def test_all_binary_graphs_census():
    graphs = all_binary_graphs((1,))
    assert len(graphs) == 1
    for g in all_binary_graphs((1, 2, 3)):
        assert in_l1(g)
    two = all_binary_graphs((2,))
    # Parallel, antiparallel, head-to-head, tail-to-tail, chain, disjoint.
    assert len(two) == 6


def _ordered_tuple_census(edge_counts):
    """The census as every ordered edge tuple builds it (test-only copy)."""
    out = {}
    for k in edge_counts:
        for m in range(2, 2 * k + 1):
            pairs = [(u, v) for u in range(m) for v in range(m) if u != v]
            for combo in itertools.product(pairs, repeat=k):
                if len({v for pair in combo for v in pair}) != m:
                    continue
                g = build_graph(range(m), [(STAR, pair) for pair in combo], ext=())
                out.setdefault(canonical_key(g), g)
    return sorted(out.values(), key=canonical_key)


def test_census_of_edge_multisets_equals_ordered_tuple_census():
    def shape(g):
        return g.nodes, g.edges, g.ext, [(g.att[e], g.lab[e]) for e in g.edges]

    multisets = all_binary_graphs((1, 2, 3))
    ordered = _ordered_tuple_census((1, 2, 3))
    assert len(multisets) == len(ordered)
    for g, h in zip(multisets, ordered):
        assert shape(g) == shape(h)


def test_derivable_corpus_order_does_not_depend_on_key_encoding(monkeypatch):
    """The corpus lists its trees in the order their conclusions are first
    met, so the tests that sample a prefix of it see the same trees whether
    string graphs are keyed by their word or by refinement."""
    import hlc.canon
    from hlc.fmt import print_sequent

    def conclusions():
        return [print_sequent(t.conclusion) for t in derivable_corpus()]

    by_word = conclusions()
    monkeypatch.setattr(hlc.canon, "string_path", lambda g: None)
    by_refinement = conclusions()
    assert len(by_word) == 324
    assert by_word == by_refinement


def test_random_l1_graphs_are_in_l1():
    rng = random.Random(0)
    for _ in range(30):
        assert in_l1(random_l1_graph(rng, max_edges=5))
