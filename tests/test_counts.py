"""The primitive-count invariant, checked against code that does not use it."""

from __future__ import annotations

from hlc.calculus import NotDerivable, Prover
from hlc.graphs import RankedLabel, build_graph, dollar, handle, string_graph
from hlc.hltypes import (
    Division,
    Primitive,
    Product,
    Sequent,
    connective_count,
    dollar_edge,
    is_balanced,
    primitive_counts,
)
from hlc.lambek import enumerate_lambek_corpus, lambek_derive, translate_lsequent
from hlc.matching import enumerate_context_extractions
from tests.test_matching import pruned_at_uncut_leaves

S2 = Primitive("s", 2)
P2 = Primitive("p", 2)
Q2 = Primitive("q", 2)
SGR_Q = Division(S2, string_graph([dollar(2), S2, P2]))


def counts(**by_name) -> dict:
    return {("p", name, 2): n for name, n in by_name.items()}


def test_counts_follow_the_definition():
    assert dict(primitive_counts(S2)) == counts(s=1)
    # N ÷ D counts #N minus the non-$ labels of D.
    assert dict(primitive_counts(SGR_Q)) == counts(p=-1)
    body = string_graph([S2, P2, P2])
    assert dict(primitive_counts(Product(body))) == counts(s=1, p=2)
    assert dict(primitive_counts(string_graph([SGR_Q, S2, P2]))) == counts(s=1)
    # Alphabet symbols and the hole count nothing.
    assert primitive_counts(string_graph([RankedLabel("a", 2), dollar(2)])) == frozenset()
    # Opposite counts cancel instead of leaving zero entries behind.
    assert primitive_counts(string_graph([SGR_Q, P2])) == frozenset()


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
    # so every prune and every cut comes from the typed search at the one pivot.
    seq = Sequent(string_graph([SGR_Q, P2, S2]), S2)
    d = SGR_Q.denominator
    hole = dollar_edge(d)
    extractions = list(enumerate_context_extractions(seq.antecedent, 0, SGR_Q))
    unbalanced = sum(
        any(
            primitive_counts(extr.parts[de]) != primitive_counts(d.lab[de])
            for de in extr.parts
        )
        for extr in extractions
    )
    result = Prover().derive(seq)
    assert isinstance(result, NotDerivable)
    assert result.stats.nodes_expanded == 1
    assert unbalanced > 0
    # The slot check sees only the leaves the closed-slot cut keeps.
    assert result.stats.pruned == pruned_at_uncut_leaves(
        seq.antecedent, d, sorted(e for e in d.edges if e != hole),
        dict(zip(d.att[hole], seq.antecedent.att[0])),
        [(extr.phi, extr.parts) for extr in extractions],
        pivot=0, consumed_dom=[v for v in d.nodes if v not in d.ext],
    )
    # The s slot closes once the node between s and p is placed, which may go
    # only to host node 2 (it is consumed, and node 3 is external).  The one
    # cluster offering s is the p edge, which cannot fill it, and the hole's
    # consumed node seals it: that one partial map is cut.
    assert result.stats.closed == 1


def test_axiom_is_balanced():
    for t in (S2, Primitive("u", 0), Primitive("v", 3)):
        assert is_balanced(Sequent(handle(t), t))
    assert not is_balanced(Sequent(build_graph([0, 1], [], (0, 1)), S2))
