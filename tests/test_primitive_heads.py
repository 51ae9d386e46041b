"""Division elimination at a primitive numerator, tried only as the whole
context of its own succedent, loses no verdict: the prover's answers equal
those of the unreduced search, which tries every pivot with every context."""

from __future__ import annotations

import itertools

from hlc.calculus import (
    DIV_LEFT,
    TIMES_RIGHT,
    DerivationTree,
    DivLeftData,
    Prover,
    check_derivation,
)
from hlc.canon import transport_edge
from hlc.fixtures import all_binary_graphs, build_hgr1, build_hgr2, build_sgr, sgr_string_graph
from hlc.grammars import MemberWitness, hl_member
from hlc.graphs import string_graph
from hlc.hltypes import Division, Primitive, Product, Sequent, connective_count, dollar_edge
from hlc.lambek import enumerate_lambek_corpus, translate_ltype
from hlc.matching import enumerate_context_extractions, enumerate_decompositions


class UnreducedProver(Prover):
    """The search before primitive heads were restricted: division
    elimination at every pivot with every context, then product
    introduction."""

    def _expand(self, nseq: Sequent) -> DerivationTree | None:
        g, succ = nseq.antecedent, nseq.succedent
        cc = connective_count(nseq)
        for e in g.edges:
            lab = g.lab[e]
            if not isinstance(lab, Division):
                continue
            d = lab.denominator
            hole = dollar_edge(d)
            d_edges = [de for de in d.edges if de != hole]
            for extr in enumerate_context_extractions(g, e, lab, typed=self._tally):
                premise_seqs = [Sequent(extr.contracted, succ)] + [
                    Sequent(extr.parts[de], d.lab[de]) for de in d_edges
                ]
                assert sum(connective_count(p) for p in premise_seqs) < cc
                subtrees = self._prove_all(premise_seqs)
                if subtrees is None:
                    continue
                main = subtrees[0]
                actual = main.conclusion.antecedent
                num_edge = (
                    extr.numerator_edge
                    if actual is extr.contracted
                    else transport_edge(extr.contracted, extr.numerator_edge, actual)
                )
                data = DivLeftData(pivot_edge=extr.pivot, numerator_edge=num_edge)
                return DerivationTree(nseq, DIV_LEFT, tuple(subtrees), data)
        if isinstance(succ, Product):
            body = succ.body
            for dec in enumerate_decompositions(g, body, typed=self._tally):
                premise_seqs = [Sequent(dec.parts[m], body.lab[m]) for m in body.edges]
                assert sum(connective_count(p) for p in premise_seqs) < cc
                subtrees = self._prove_all(premise_seqs)
                if subtrees is None:
                    continue
                return DerivationTree(nseq, TIMES_RIGHT, tuple(subtrees))
        return None


class Agreement:
    """Asks both searches, one prover each, and compares their verdicts;
    every tree the prover emits is checked."""

    def __init__(self):
        self.prover, self.reference = Prover(), UnreducedProver()
        self.asked = self.derived = 0
        self.nodes = {"prover": 0, "reference": 0}

    def derive(self, sequent: Sequent) -> None:
        got, want = self._ask(lambda prover: prover.derive(sequent), self.prover, self.reference)
        assert type(got) is type(want), sequent
        if isinstance(got, DerivationTree):
            assert check_derivation(got) is None, sequent

    def member(self, grammar, graph, provers) -> None:
        got, want = self._ask(lambda prover: hl_member(grammar, graph, prover=prover), *provers)
        assert type(got) is type(want), graph
        if isinstance(got, MemberWitness):
            assert check_derivation(got.tree) is None, graph

    def _ask(self, query, prover, reference):
        answers = []
        for name, searcher in (("prover", prover), ("reference", reference)):
            before = searcher.nodes_expanded
            answers.append(query(searcher))
            self.nodes[name] += searcher.nodes_expanded - before
        self.asked += 1
        self.derived += isinstance(answers[0], (DerivationTree, MemberWitness))
        return answers


def _has_nested_numerator(sequent: Sequent) -> bool:
    return any(
        isinstance(label, Division) and not isinstance(label.numerator, Primitive)
        for label in sequent.antecedent.lab.values()
    )


def test_lambek_corpus_verdicts_equal_the_unreduced_search():
    """The corpus at ``max_each/max_succ/max_len`` = 1/2/2, whose
    antecedent divisions all have primitive numerators, and at 2/2/1, whose
    antecedents hold divisions with division numerators."""
    translated: dict = {}

    def translate(t):
        if t not in translated:
            translated[t] = translate_ltype(t)
        return translated[t]

    for (max_each, max_succ, max_len), size in (((1, 2, 2), 33_180), ((2, 2, 1), 24_964)):
        check, nested = Agreement(), 0
        for ants, succ in enumerate_lambek_corpus(
            max_each=max_each, max_succ=max_succ, max_len=max_len
        ):
            sequent = Sequent(string_graph([translate(t) for t in ants]), translate(succ))
            check.derive(sequent)
            nested += _has_nested_numerator(sequent)
        assert check.asked == size and check.derived > 100
        assert (nested > 1000) == (max_each == 2)
        # Here the restriction saves contexts, not goals: with at most two
        # antecedent types, few contracted goals reach an expansion.
        assert check.nodes["prover"] <= check.nodes["reference"]


def _one_edits(word: str, letters: str) -> set[str]:
    """Every word one deletion, insertion, substitution or swap of two
    letters away from ``word``."""
    out = set()
    for i in range(len(word) + 1):
        out.add(word[:i] + word[i + 1:])
        for c in letters:
            out.add(word[:i] + c + word[i:])
            if i < len(word):
                out.add(word[:i] + c + word[i + 1:])
    for i, j in itertools.combinations(range(len(word)), 2):
        swapped = list(word)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        out.add("".join(swapped))
    out.discard("")
    return out


def test_sgr_perturbation_verdicts_equal_the_unreduced_search():
    """``q^n s p^n |- s`` and every one-edit perturbation of it, n <= 5, each
    asked of fresh provers."""
    sgr = build_sgr()
    q, p, s = (t for _, t in sgr.correspondence)
    types = {"q": q, "p": p, "s": s}
    check = Agreement()
    for n in range(6):
        base = "q" * n + "s" + "p" * n
        for word in sorted(_one_edits(base, "qsp") | {base}):
            check.prover, check.reference = Prover(), UnreducedProver()
            check.derive(Sequent(string_graph([types[c] for c in word]), sgr.distinguished))
    assert check.asked > 250 and check.derived == 6
    assert check.nodes["prover"] < check.nodes["reference"]


def test_member_verdicts_equal_the_unreduced_search():
    """Every ``sgr`` word of at most seven letters, and the three-edge census
    for the all-graphs and the bipartite-graphs grammars, one prover pair per
    grammar."""
    check = Agreement()
    queries = [
        (build_sgr(), [
            sgr_string_graph("".join(w))
            for k in range(1, 8) for w in itertools.product("ab", repeat=k)
        ]),
        (build_hgr1(), all_binary_graphs((3,))),
        (build_hgr2(), all_binary_graphs((3,))),
    ]
    for grammar, graphs in queries:
        provers = (Prover(), UnreducedProver())
        for graph in graphs:
            check.member(grammar, graph, provers)
    assert check.asked == 254 + 2 * len(all_binary_graphs((3,)))
    assert check.derived > 20
    assert check.nodes["prover"] < check.nodes["reference"]
