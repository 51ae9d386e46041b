"""The count invariant, primitive and node counts, checked against code that
does not use it."""

from __future__ import annotations

from hlc.calculus import DerivationTree, NotDerivable, Prover, check_derivation
from hlc.fixtures import all_binary_graphs, build_hgr1, build_hgr2, in_l1, is_bipartite
from hlc.grammars import MemberWitness, hl_member
from hlc.graphs import RankedLabel, build_graph, dollar, handle, string_graph
from hlc.hltypes import (
    NODES,
    Division,
    Primitive,
    Product,
    Sequent,
    add_counts,
    connective_count,
    dollar_edge,
    is_balanced,
    primitive_counts,
)
from hlc.lambek import enumerate_lambek_corpus, lambek_derive, translate_lsequent
from hlc.matching import Tally, enumerate_context_extractions
from tests.test_matching import pruned_at_uncut_leaves, recount

S2 = Primitive("s", 2)
P2 = Primitive("p", 2)
Q2 = Primitive("q", 2)
SGR_Q = Division(S2, string_graph([dollar(2), S2, P2]))


def counts(nodes: int = 0, **by_name) -> dict:
    out = {("p", name, 2): n for name, n in by_name.items()}
    if nodes:
        out[NODES] = nodes
    return out


def test_counts_follow_the_definition():
    assert dict(primitive_counts(S2)) == counts(s=1)
    # N ÷ D counts #N minus D: its non-$ labels and its two interior nodes.
    assert dict(primitive_counts(SGR_Q)) == counts(p=-1, nodes=-2)
    body = string_graph([S2, P2, P2])
    assert dict(primitive_counts(Product(body))) == counts(s=1, p=2, nodes=2)
    # The two interior nodes cancel SGR_Q's -2.
    assert dict(primitive_counts(string_graph([SGR_Q, S2, P2]))) == counts(s=1)
    # Alphabet symbols and the hole count nothing; the middle node counts one.
    assert dict(primitive_counts(string_graph([RankedLabel("a", 2), dollar(2)]))) == counts(
        nodes=1
    )
    # Opposite counts cancel instead of leaving zero entries behind.
    assert dict(primitive_counts(string_graph([SGR_Q, P2]))) == counts(nodes=-1)
    # Only the interior counts: external and isolated nodes alike.
    lonely = build_graph([0, 1, 2, 3], [(S2, (0, 1))], (0, 3))
    assert dict(primitive_counts(lonely)) == counts(s=1, nodes=2)
    for x in (S2, SGR_Q, Product(body), body, lonely, string_graph([SGR_Q, P2])):
        assert dict(primitive_counts(x)) == recount(x)


def test_add_counts_drops_zeros():
    acc: dict = {}
    add_counts(acc, [(("x",), 0)])  # a zero for an absent key leaves nothing
    assert acc == {}
    add_counts(acc, [(("x",), 2), (NODES, 1)])
    add_counts(acc, [(("x",), 2), (NODES, 0)], -1)
    assert acc == {NODES: 1}


def test_graph_counts_fill_connective_count_in_one_pass():
    g = string_graph([SGR_Q, Product(string_graph([S2, Q2])), P2])
    primitive_counts(g)
    assert g.__dict__["_cc"] == 2
    assert connective_count(g) == 2


def test_every_corpus_tree_node_is_balanced(corpus):
    # The corpus trees pass check_derivation, which knows nothing of counts.
    for tree in corpus:
        for node in tree.walk():
            assert is_balanced(node.conclusion), node.conclusion


def _assert_counts_hold(tree) -> int:
    """The invariant at every node of a tree, recounted from the definition:
    ``int(H) + sum of the labels' counts = #A``, per primitive and in nodes.
    No antecedent has an interior isolated node either, so none of these
    proofs depends on a part's taking one."""
    nodes = 0
    for node in tree.walk():
        seq = node.conclusion
        assert recount(seq.antecedent) == recount(seq.succedent), seq
        g = seq.antecedent
        touched = {v for e in g.edges for v in g.att[e]}
        assert touched.union(g.ext).issuperset(g.nodes), seq
        nodes += 1
    return nodes


def test_counts_hold_on_every_corpus_tree_node(corpus):
    nodes = sum(_assert_counts_hold(tree) for tree in corpus)
    assert nodes > 1000


def test_counts_hold_on_every_three_edge_witness_node():
    """Every node of every three-edge ``hgr1``/``hgr2`` witness tree, each
    tree checked by ``check_derivation``, which knows nothing of counts."""
    graphs = all_binary_graphs((3,))
    witnesses = {"hgr1": 0, "hgr2": 0}
    for name, grammar, oracle in (
        ("hgr1", build_hgr1(), in_l1),
        ("hgr2", build_hgr2(), lambda g: in_l1(g) and is_bipartite(g)),
    ):
        prover = Prover()
        for g in graphs:
            result = hl_member(grammar, g, prover=prover)
            assert isinstance(result, MemberWitness) == oracle(g)
            if isinstance(result, MemberWitness):
                assert isinstance(result.tree, DerivationTree)
                assert check_derivation(result.tree) is None
                _assert_counts_hold(result.tree)
                witnesses[name] += 1
    assert witnesses["hgr1"] > witnesses["hgr2"] > 0


def test_string_derivable_sequents_translate_to_balanced_ones():
    accepted = 0
    for ants, succ in enumerate_lambek_corpus():
        if lambek_derive(ants, succ):
            accepted += 1
            assert is_balanced(translate_lsequent(ants, succ)), (ants, succ)
    assert accepted > 0


def test_unbalanced_sequent_is_refuted_without_search():
    # q s p |- s is derivable; dropping the p unbalances it.
    seq = Sequent(string_graph([SGR_Q, S2]), S2)
    assert not is_balanced(seq)
    result = Prover().derive(seq)
    assert isinstance(result, NotDerivable)
    assert result.stats.nodes_expanded <= 1
    assert result.stats.pruned >= 1


def test_balanced_but_underivable_is_still_searched():
    # p s balances against s p's counts but is in the wrong order.
    seq = Sequent(string_graph([SGR_Q, P2, S2]), S2)
    assert is_balanced(seq)
    result = Prover().derive(seq)
    assert isinstance(result, NotDerivable)
    assert result.stats.nodes_expanded >= 1


def test_pruned_counts_extractions_with_an_unbalanced_part():
    # One expansion, whose premises are all primitive and decided outright,
    # so every prune comes from the typed search at the one pivot, where the
    # prover asks for whole contexts: its numerator s is the succedent.
    seq = Sequent(string_graph([SGR_Q, P2, S2]), S2)
    d = SGR_Q.denominator
    hole = dollar_edge(d)
    slot_order = sorted(e for e in d.edges if e != hole)
    consumed_dom = [v for v in d.nodes if v not in d.ext]

    def pruned(extractions, fixed, whole):
        return pruned_at_uncut_leaves(
            seq.antecedent, d, slot_order, fixed,
            [(extr.phi, extr.part_edges, extr.parts) for extr in extractions],
            pivot=0, consumed_dom=consumed_dom, whole=whole,
        )

    def unbalanced(extractions):
        return sum(
            any(
                primitive_counts(extr.parts[de]) != primitive_counts(d.lab[de])
                for de in extr.parts
            )
            for extr in extractions
        )

    fixed = dict(zip(d.att[hole], seq.antecedent.att[0]))
    whole = list(enumerate_context_extractions(seq.antecedent, 0, SGR_Q, whole=True))
    result = Prover().derive(seq)
    assert isinstance(result, NotDerivable)
    assert result.stats.nodes_expanded == 1
    assert unbalanced(whole) > 0
    # The slot check sees only the leaves the closed-slot cut keeps.
    assert result.stats.pruned == pruned(
        whole, {**fixed, **dict(zip(d.ext, seq.antecedent.ext))}, True
    )
    # A whole context fixes every node but the one between s and p, so no
    # slot closes above the leaf and the cut has nothing to remove.
    assert result.stats.closed == 0
    # The full enumeration at the same pivot still meets the cut.  There the
    # s slot closes once the node between s and p is placed, which may go
    # only to host node 2 (it is consumed, and node 3 is external).  The one
    # cluster offering s is the p edge, which cannot fill it, and the hole's
    # consumed node seals it: that one partial map is cut.
    every = list(enumerate_context_extractions(seq.antecedent, 0, SGR_Q))
    tally = Tally()
    assert list(enumerate_context_extractions(seq.antecedent, 0, SGR_Q, typed=tally)) == []
    assert unbalanced(every) == len(every) > 0
    assert tally.pruned == pruned(every, fixed, False)
    assert tally.closed == 1


def test_axiom_is_balanced():
    for t in (S2, Primitive("u", 0), Primitive("v", 3)):
        assert is_balanced(Sequent(handle(t), t))
    assert not is_balanced(Sequent(build_graph([0, 1], [], (0, 1)), S2))
