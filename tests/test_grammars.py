from __future__ import annotations

import itertools
import random

import pytest

from hlc.calculus import BudgetExceeded, DerivationTree, Prover, SearchBudget, check_derivation
from hlc.canon import canonical_key, isomorphic
from hlc.fixtures import (
    all_binary_graphs,
    build_hgr1,
    build_hgr2,
    build_sgr,
    build_sgr_hrg,
    build_syntree_hrg,
    in_l1,
    is_bipartite,
    sgr_string_graph,
    syntree,
    STAR,
)
from hlc.grammars import (
    HRG,
    HLGrammar,
    MemberWitness,
    NotMember,
    Production,
    hl_member,
    hrg_generate,
    hrg_member,
    is_wgnf,
    type_set,
    validate_hl_grammar,
    validate_hrg,
    wgnf_to_hl,
)
from hlc.graphs import RankedLabel, build_graph, dollar, handle, relabel, replace, string_graph
from hlc.hltypes import NODES, Division, Primitive, Sequent, add_counts, primitive_counts
from hlc.matching import Tally, enumerate_context_extractions


def test_type_set_sizes():
    assert len(type_set(build_sgr())) == 3
    assert len(type_set(build_hgr1())) == 16
    assert len(type_set(build_hgr2())) == 16
    empty = HLGrammar(alphabet=(STAR,), distinguished=Primitive("s", 0), correspondence=())
    assert type_set(empty) == []


def test_grammar_validation():
    assert validate_hl_grammar(build_sgr()) is None
    assert validate_hl_grammar(build_hgr1()) is None
    assert validate_hl_grammar(build_hgr2()) is None
    bad = HLGrammar(
        alphabet=(RankedLabel("a", 2),),
        distinguished=Primitive("s", 2),
        correspondence=((RankedLabel("a", 2), Primitive("s", 1)),),
    )
    assert "rank mismatch" in validate_hl_grammar(bad)
    assert validate_hrg(build_syntree_hrg()) is None
    assert validate_hrg(build_sgr_hrg()) is None


class CountingProver(Prover):
    """Records every top-level derive result."""

    def __init__(self):
        super().__init__()
        self.results = []

    @property
    def calls(self) -> int:
        return len(self.results)

    def derive(self, s, budget=None):
        result = super().derive(s, budget)
        self.results.append(result)
        return result


def test_grammar_validation_is_cached_and_checked_before_search():
    bad = HLGrammar(
        alphabet=(RankedLabel("a", 2),),
        distinguished=Primitive("s", 2),
        correspondence=((RankedLabel("a", 2), Primitive("s", 1)),),
    )
    report = validate_hl_grammar(bad)
    assert bad.__dict__["_report"] == report
    assert validate_hl_grammar(bad) is report
    prover = CountingProver()
    with pytest.raises(ValueError, match="invalid grammar"):
        hl_member(bad, string_graph([RankedLabel("a", 2)]), prover=prover)
    assert prover.calls == 0
    good = build_sgr()
    assert validate_hl_grammar(good) is None and "_report" in good.__dict__


class ExpansionRecorder(CountingProver):
    """Also records every goal it expands."""

    def __init__(self):
        super().__init__()
        self.expanded = []

    def _expand(self, nseq):
        self.expanded.append(nseq)
        return super()._expand(nseq)


def test_member_prunes_unbalanced_relabelings():
    hgr2 = build_hgr2()
    # Three edges on three nodes: the two-edge graphs leave the closed-slot
    # cut nothing above the leaves to cut.
    graph = next(
        g
        for g in all_binary_graphs((3,))
        if len(g.nodes) == 3 and in_l1(g) and not is_bipartite(g)
    )
    prover = ExpansionRecorder()
    result = hl_member(hgr2, graph, prover=prover)
    assert isinstance(result, NotMember)
    assert result.stats.pruned > 0
    total = len(hgr2.correspondence) ** len(graph.edges)
    assert result.stats.pruned + prover.calls == total
    assert result.stats.nodes_expanded == sum(r.stats.nodes_expanded for r in prover.results)
    assert result.stats.closed == sum(r.stats.closed for r in prover.results)
    # Every numerator here is primitive, so the prover asks only for whole
    # contexts, which leave the closed-slot cut nothing to remove.  The full
    # typed enumeration at the pivots of the goals it expanded meets the cut.
    tally = Tally()
    for goal in prover.expanded:
        g = goal.antecedent
        for e in g.edges:
            if isinstance(g.lab[e], Division):
                for _ in enumerate_context_extractions(g, e, g.lab[e], typed=tally):
                    pass
    assert tally.closed > 0


class RelabelingRecorder(Prover):
    """Records the labels of every goal it is asked to derive."""

    def __init__(self):
        super().__init__()
        self.relabelings = []

    def derive(self, s, budget=None):
        self.relabelings.append({e: s.antecedent.lab[e] for e in s.antecedent.edges})
        return super().derive(s, budget)


def _reference_member(g, graph, seed):
    """``hl_member`` by brute force: scan the correspondence for each label,
    shuffle as ``hl_member`` does, walk ``itertools.product`` and sum each
    relabeling's counts in a dict.  Returns the verdict, the relabelings
    derived, and the pruned, nodes expanded and closed sums."""

    def scan(label):
        return [t for a, t in g.correspondence if a == label]

    rng = random.Random(seed)
    edges = sorted(graph.edges, key=lambda e: len(scan(graph.lab[e])))
    options = []
    for e in edges:
        types = scan(graph.lab[e])
        rng.shuffle(types)
        options.append(types)
    target = dict(primitive_counts(g.distinguished))
    add_counts(target, [(NODES, len(graph.nodes) - len(graph.ext))], -1)
    prover = RelabelingRecorder()
    pruned = nodes = closed = 0
    for types in itertools.product(*options):
        counts: dict = {}
        for t in types:
            add_counts(counts, primitive_counts(t))
        if counts != target:
            pruned += 1
            continue
        goal = Sequent(relabel(graph, dict(zip(edges, types))), g.distinguished)
        result = prover.derive(goal)
        assert not isinstance(result, BudgetExceeded)
        nodes += prover.last_stats.nodes_expanded
        closed += prover.last_stats.closed
        if isinstance(result, DerivationTree):
            return True, prover.relabelings, (pruned, nodes, closed)
    return False, prover.relabelings, (pruned, nodes, closed)


def test_member_matches_a_brute_force_reference():
    """``hl_member`` derives the same relabelings in the same order as the
    brute-force reference, with the same verdict and stats.  The 41- to
    47-letter words widen the packing, and twelve nodes on one edge put the
    hgr1 and hgr2 targets out of its range."""
    census = all_binary_graphs((1, 2))
    crowd = build_graph(range(12), [(STAR, (0, 1))], ())
    words = ["".join(w) for n in range(1, 7) for w in itertools.product("ab", repeat=n)]
    words += ["a" * 40 + "b", "b" + "a" * 41 + "b", "ab" * 3 + "a" * 41]

    def in_sgr(w):
        n = w.count("a")
        return w == "a" * n + "b" * (n + 1)

    cases = [(build_sgr(), sgr_string_graph(w), in_sgr(w)) for w in words]
    cases += [(build_hgr1(), g, in_l1(g)) for g in census + [crowd]]
    cases += [(build_hgr2(), g, in_l1(g) and is_bipartite(g)) for g in census + [crowd]]
    derived = members = 0
    for grammar, graph, expected in cases:
        for seed in (0, 5):
            prover = RelabelingRecorder()
            result = hl_member(grammar, graph, prover=prover, seed=seed)
            member, relabelings, stats = _reference_member(grammar, graph, seed)
            assert isinstance(result, MemberWitness) == member == expected
            assert prover.relabelings == relabelings
            assert (result.stats.pruned, result.stats.nodes_expanded, result.stats.closed) == stats
            derived += len(relabelings)
            members += member
    assert derived > 100 and members > 10


def test_member_reads_one_label_table_per_grammar():
    """A grammar value builds its label table and alphabet set once, on
    first use, and its packed candidates once per packing bound;
    ``types_for`` reads the table and agrees with a scan of the
    correspondence for every alphabet label, one without types included."""
    c = RankedLabel("c", 2)
    sgr = build_sgr()
    extended = HLGrammar(sgr.alphabet + (c,), sgr.distinguished, sgr.correspondence)
    for g in (sgr, extended, build_hgr1(), build_hgr2()):
        assert "_lexicon" not in g.__dict__
        for a in g.alphabet:
            scanned = [t for b, t in g.correspondence if b == a]
            assert [id(t) for t in g.types_for(a)] == [id(t) for t in scanned]
    assert extended.types_for(c) == ()
    lexicon = sgr.__dict__["_lexicon"]
    table = lexicon.table
    for word in ("ab", "abb", "bbb", "abbb", "a" * 40 + "b"):
        hl_member(sgr, sgr_string_graph(word))
    assert sgr.__dict__["_lexicon"] is lexicon and lexicon.table is table
    # 2, 3, 4 and 41 edges round up to 2, 4, 4 and 64 times the largest weight.
    assert len(lexicon.packed) == 3
    a, b = sgr.alphabet
    result = hl_member(extended, string_graph([a, c, b]))
    assert isinstance(result, NotMember) and result.stats.pruned == 0


def test_member_never_recounts_a_relabeled_goal(monkeypatch):
    """``hl_member`` builds each relabeled goal with the counts it has already
    summed, so neither ``derive``'s balance check nor the search walks it; the
    walked goal copies still get the counts that a walk gives."""
    from hlc import hltypes

    goals, walked = [], []
    graph_counts = hltypes._graph_counts

    def recording(g):
        walked.append(g)
        return graph_counts(g)

    class GoalRecorder(Prover):
        def derive(self, s, budget=None):
            goals.append(s.antecedent)
            return super().derive(s, budget)

    monkeypatch.setattr(hltypes, "_graph_counts", recording)
    census = all_binary_graphs((1, 2))
    words = ("b", "ab", "abb", "aab")
    cases = [(build_sgr(), sgr_string_graph(w), w in ("b", "abb")) for w in words]
    cases += [(build_hgr1(), g, in_l1(g)) for g in census]
    cases += [(build_hgr2(), g, in_l1(g) and is_bipartite(g)) for g in census]
    for grammar, graph, expected in cases:
        result = hl_member(grammar, graph, prover=GoalRecorder())
        assert isinstance(result, MemberWitness) == expected
    assert len(goals) > 20
    assert not {id(g) for g in goals} & {id(g) for g in walked}
    for g in goals:
        copy = build_graph(g.nodes, [(g.lab[e], g.att[e]) for e in g.edges], g.ext)
        assert (g.__dict__["_cc"], g.__dict__["_pc"]) == graph_counts(copy)


def test_member_pass_never_recounts_a_normalized_goal(monkeypatch):
    """Over the queries of one seed-0 ``member`` benchmark pass (one prover
    per grammar), ``normalize_trace`` builds its product-elimination and
    division-introduction graphs with their counts, so no ``_graph_counts``
    walk comes from ``Prover._expand``; the counts it sets equal those a walk
    of a cold copy gives."""
    import sys

    from hlc import calculus, hltypes
    from hlc.suites import kite_graph

    expand = calculus.Prover._expand.__code__
    from_expand, normalized = [], []
    graph_counts, normalize_trace = hltypes._graph_counts, calculus.normalize_trace

    def recording(g):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code is not expand:
            frame = frame.f_back
        if frame is not None:
            from_expand.append(g)
        return graph_counts(g)

    def collecting(s):
        nseq, steps = normalize_trace(s)
        if steps:
            normalized.append(nseq.antecedent)
        return nseq, steps

    monkeypatch.setattr(hltypes, "_graph_counts", recording)
    monkeypatch.setattr(calculus, "normalize_trace", collecting)
    census = all_binary_graphs((1, 2, 3))
    lonely = build_graph([0, 1, 2], [(STAR, (0, 1))], ())
    sgr_words = {"a" * n + "b" * (n + 1) for n in range(4)}
    words = ["".join(w) for n in range(1, 8) for w in itertools.product("ab", repeat=n)]
    small = [g for g in census if len(g.edges) <= 2 or len(g.nodes) == 2]
    cases = [
        (build_sgr(), [(sgr_string_graph(w), w in sgr_words) for w in words]),
        (build_hgr1(), [(g, in_l1(g)) for g in census + [kite_graph(), lonely]]),
        (build_hgr2(), [(g, in_l1(g) and is_bipartite(g)) for g in small]),
    ]
    for grammar, queries in cases:
        prover = Prover()
        for graph, expected in queries:
            result = hl_member(grammar, graph, prover=prover)
            assert isinstance(result, MemberWitness) == expected
    assert not from_expand
    assert len(normalized) > 100
    for g in normalized:
        copy = build_graph(g.nodes, [(g.lab[e], g.att[e]) for e in g.edges], g.ext)
        assert (g.__dict__["_cc"], g.__dict__["_pc"]) == graph_counts(copy)


def test_member_sums_budget_hits():
    """One node budget is shared by all the relabelings of a query: an
    inconclusive answer has spent exactly that budget, summed over its
    ``derive`` calls, and names at least one budget hit."""
    graph = build_graph([0, 1, 2], [(STAR, (0, 1)), (STAR, (1, 2)), (STAR, (2, 0))], ())
    full = CountingProver()
    assert isinstance(hl_member(build_hgr1(), graph, prover=full), MemberWitness)
    needed = full.nodes_expanded
    assert full.calls > 1
    for max_nodes in range(1, needed):
        prover = CountingProver()
        result = hl_member(build_hgr1(), graph, SearchBudget(max_nodes), prover=prover)
        assert isinstance(result, BudgetExceeded)
        assert result.stats.budget_hits >= 1
        assert result.stats.nodes_expanded == max_nodes
        assert prover.nodes_expanded == max_nodes
    witness = hl_member(build_hgr1(), graph, SearchBudget(needed))
    assert isinstance(witness, MemberWitness)


def test_sgr_membership(prover):
    sgr = build_sgr()
    member = hl_member(sgr, sgr_string_graph("aabbb"), prover=prover)
    assert isinstance(member, MemberWitness)
    # The witness relabels the two a-edges by the division and the b-edges by
    # one s and two p's.
    labels = sorted(repr(t) for t in member.assignment.values())
    assert sum(1 for t in member.assignment.values() if isinstance(t, Division)) == 2
    assert check_derivation(member.tree) is None
    rejected = hl_member(sgr, sgr_string_graph("ab"), prover=prover)
    assert isinstance(rejected, NotMember)


def test_member_witness_respects_correspondence(prover):
    sgr = build_sgr()
    g = sgr_string_graph("abb")
    member = hl_member(sgr, g, prover=prover)
    assert isinstance(member, MemberWitness)
    for e, t in member.assignment.items():
        assert any(a == g.lab[e] and t == tt for a, tt in sgr.correspondence)


def test_member_rejects_unknown_labels(prover):
    sgr = build_sgr()
    stray = string_graph([RankedLabel("z", 2)])
    with pytest.raises(ValueError):
        hl_member(sgr, stray, prover=prover)


@pytest.mark.parametrize("letter, balances", [("b", True), ("a", False)])
def test_member_refuses_a_graph_of_the_wrong_rank(letter, balances):
    """A rank-3 graph is no member of sgr, whose distinguished type has rank
    2, whether or not a relabeling balances its counts (b by s does, a by q
    does not); the answer comes before any relabeling is tried."""
    sgr = build_sgr()
    label = RankedLabel(letter, 2)
    graph = build_graph([0, 1, 2], [(label, (0, 1))], ext=(0, 1, 2))
    target = primitive_counts(sgr.distinguished)
    assert any(primitive_counts(t) == target for t in sgr.types_for(label)) == balances
    prover = CountingProver()
    result = hl_member(sgr, graph, prover=prover)
    assert isinstance(result, NotMember)
    stats = result.stats
    assert (stats.nodes_expanded, stats.pruned, stats.closed) == (0, 0, 0)
    assert prover.calls == 0


def test_hgr1_single_edge_and_isolated(prover):
    hgr1 = build_hgr1()
    edge = build_graph([0, 1], [(STAR, (0, 1))], ())
    member = hl_member(hgr1, edge, prover=prover)
    assert isinstance(member, MemberWitness)
    lonely = build_graph([0, 1, 2], [(STAR, (0, 1))], ())
    assert isinstance(hl_member(hgr1, lonely, prover=prover), NotMember)


def test_membership_is_isomorphism_invariant(prover):
    from tests.test_canon import permute

    sgr = build_sgr()
    rng = random.Random(4)
    for word, expected in (("abb", True), ("bab", False)):
        g = sgr_string_graph(word)
        for _ in range(5):
            twin = permute(g, rng)
            got = isinstance(hl_member(sgr, twin, prover=prover), MemberWitness)
            assert got == expected


def test_hrg_generate_syntree():
    hrg = build_syntree_hrg()
    graphs = hrg_generate(hrg, max_edges=8, max_steps=8)
    target = canonical_key(syntree())
    assert any(canonical_key(g) == target for g in graphs)


def test_hrg_generate_string_language():
    hrg = build_sgr_hrg()
    graphs = hrg_generate(hrg, max_edges=7, max_steps=15)
    got = {canonical_key(g) for g in graphs}
    want = {canonical_key(sgr_string_graph(w)) for w in ("b", "abb", "aabbb", "aaabbbb")}
    assert got == want


def test_hrg_generate_nonterminating():
    s = RankedLabel("S", 2)
    hrg = HRG(
        nonterminals=(s,),
        terminals=(RankedLabel("a", 2),),
        productions=(Production(s, string_graph([s])),),
        start=s,
    )
    assert hrg_generate(hrg, max_edges=4, max_steps=6) == []


def test_hrg_generate_closed_under_one_step():
    hrg = build_sgr_hrg()
    max_edges, max_steps = 5, 10
    reachable = {}
    frontier = [handle(hrg.start)]
    seen = set()
    while frontier:
        g = frontier.pop()
        key = canonical_key(g)
        if key in seen:
            continue
        seen.add(key)
        nts = [e for e in g.edges if g.lab[e] in set(hrg.nonterminals)]
        if not nts:
            reachable[key] = g
        for e in nts:
            for prod in hrg.productions:
                if prod.lhs == g.lab[e]:
                    succ = replace(g, e, prod.rhs)
                    if len(succ.edges) <= max_edges:
                        frontier.append(succ)
    generated = {canonical_key(g) for g in hrg_generate(hrg, max_edges, max_steps)}
    assert generated == set(reachable)


def test_hrg_member_examples():
    tree_hrg = build_syntree_hrg()
    assert hrg_member(tree_hrg, syntree())
    # Swapping the order markers on the root makes the tree ungrammatical.
    swapped = syntree()
    att = dict(swapped.att)
    att[3], att[4] = att[4], att[3]
    from hlc.graphs import Hypergraph

    mutant = Hypergraph(swapped.nodes, swapped.edges, att, dict(swapped.lab), swapped.ext)
    assert not hrg_member(tree_hrg, mutant)
    unknown = build_graph([0], [(RankedLabel("dog", 1), (0,))], (0,))
    assert not hrg_member(tree_hrg, unknown)


def _anbn_hrg(*, erasing: bool) -> HRG:
    """``S -> a S b | a b`` over string graphs, which is not in WGNF; with
    ``erasing``, ``a b`` becomes ``a T b`` with a rank-1 ``T`` on the middle
    node and an erasing production ``T -> (one node, no edges)``."""
    s, a, b, t = (RankedLabel(n, r) for n, r in (("S", 2), ("a", 2), ("b", 2), ("T", 1)))
    productions = [Production(s, string_graph([a, s, b]))]
    if erasing:
        middle = build_graph([0, 1, 2], [(a, (0, 1)), (t, (1,)), (b, (1, 2))], (0, 2))
        productions += [Production(s, middle), Production(t, build_graph([0], [], (0,)))]
    else:
        productions.append(Production(s, string_graph([a, b])))
    nonterminals = (s, t) if erasing else (s,)
    return HRG(nonterminals, (a, b), tuple(productions), s)


@pytest.mark.parametrize("erasing", [False, True])
def test_hrg_member_outside_wgnf_matches_anbn(erasing):
    hrg = _anbn_hrg(erasing=erasing)
    assert validate_hrg(hrg) is None and not is_wgnf(hrg)
    for n in range(7):
        for word in itertools.product("ab", repeat=n):
            w = "".join(word)
            k = n // 2
            expected = n > 0 and w == "a" * k + "b" * k
            assert hrg_member(hrg, sgr_string_graph(w)) == expected, w


def test_is_wgnf():
    assert is_wgnf(build_syntree_hrg())
    undeclared = build_syntree_hrg()
    strict = HRG(
        nonterminals=undeclared.nonterminals,
        terminals=undeclared.terminals,
        productions=undeclared.productions,
        start=undeclared.start,
        fixed=frozenset(),
    )
    assert not is_wgnf(strict)  # l and r then count as designated terminals
    assert is_wgnf(build_sgr_hrg())
    s = RankedLabel("S", 2)
    a, b = RankedLabel("a", 2), RankedLabel("b", 2)
    two_terminals = HRG(
        nonterminals=(s,),
        terminals=(a, b),
        productions=(Production(s, string_graph([a, b])),),
        start=s,
    )
    assert not is_wgnf(two_terminals)


def test_wgnf_to_hl_matches_string_grammar():
    converted = wgnf_to_hl(build_sgr_hrg())
    sgr = build_sgr()
    # Same shape as the hand-built grammar up to primitive renaming:
    # one division for a, two bare primitives for b.
    assert converted.distinguished == Primitive("S", 2)
    by_label = {}
    for label, t in converted.correspondence:
        by_label.setdefault(label.name, []).append(t)
    assert len(by_label["a"]) == 1 and isinstance(by_label["a"][0], Division)
    assert sorted(repr(t) for t in by_label["b"]) == ["P/2", "S/2"]
    denominator = by_label["a"][0].denominator
    expected = string_graph([dollar(2), Primitive("S", 2), Primitive("P", 2)])
    assert isomorphic(denominator, expected) is not None


def test_wgnf_to_hl_sleeps_production():
    converted = wgnf_to_hl(build_syntree_hrg())
    by_label = {label.name: t for label, t in converted.correspondence}
    sleeps = by_label["sleeps"]
    assert isinstance(sleeps, Division)
    np_prim = Primitive("NP", 1)
    pl, pr = Primitive("p_l", 2), Primitive("p_r", 2)
    expected = build_graph(
        [0, 1, 2],
        [(np_prim, (0,)), (dollar(1), (2,)), (pl, (1, 0)), (pr, (1, 2))],
        (1,),
    )
    assert sleeps.numerator == Primitive("S", 1)
    assert isomorphic(sleeps.denominator, expected) is not None
    assert by_label["l"] == pl and by_label["r"] == pr


def test_wgnf_to_hl_trivial_production_modes(prover):
    s = RankedLabel("S", 1)
    a = RankedLabel("a", 1)
    hrg = HRG(
        nonterminals=(s,),
        terminals=(a,),
        productions=(Production(s, handle(a)),),
        start=s,
    )
    bare = wgnf_to_hl(hrg)
    assert bare.correspondence == ((a, Primitive("S", 1)),)
    kept = wgnf_to_hl(hrg, keep_trivial_divisions=True)
    ((label, t),) = kept.correspondence
    assert isinstance(t, Division)
    assert isomorphic(t.denominator, handle(dollar(1))) is not None
    # Both forms accept the same (only) word of the language.
    for grammar in (bare, kept):
        result = hl_member(grammar, handle(a), prover=prover)
        assert isinstance(result, MemberWitness)


def test_wgnf_to_hl_rejects_non_wgnf():
    s = RankedLabel("S", 2)
    a, b = RankedLabel("a", 2), RankedLabel("b", 2)
    bad = HRG(
        nonterminals=(s,),
        terminals=(a, b),
        productions=(Production(s, string_graph([a, b])),),
        start=s,
    )
    with pytest.raises(ValueError):
        wgnf_to_hl(bad)


def test_member_walks_its_graph_once(monkeypatch):
    """Once the grammar is validated, one ``hl_member`` call validates its
    graph once: each relabeled goal carries its verdict, so ``derive`` finds
    it cached however many goals it is asked."""
    import sys

    from hlc import graphs

    walked = []
    original = graphs.validate

    def counting(g):
        walked.append(g)
        return original(g)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "hlc" and getattr(module, "validate", None) is original:
            monkeypatch.setattr(module, "validate", counting)
    for grammar, graph in (
        (build_sgr(), sgr_string_graph("aabbb")),
        (build_sgr(), sgr_string_graph("bab")),
        (build_hgr1(), all_binary_graphs((1, 2, 3))[-4]),
    ):
        assert validate_hl_grammar(grammar) is None
        walked.clear()
        prover = CountingProver()
        hl_member(grammar, graph, prover=prover)
        assert prover.calls >= 2
        assert walked == [graph]


def _broken_hrgs() -> dict[str, tuple[HRG, str]]:
    """Grammars that ``validate_hrg`` refuses, each with its report."""
    s, a = RankedLabel("S", 2), RankedLabel("a", 2)
    good = Production(s, string_graph([a]))
    wide = Production(s, build_graph([0, 1, 2], [(a, (0, 1))], ext=(0, 1, 2)))
    return {
        "terminal start": (HRG((s,), (a,), (good,), a), "start symbol must be a nonterminal"),
        "rank mismatch": (HRG((s,), (a,), (good, wide), s), "production 1: rank mismatch"),
        "terminal lhs": (
            HRG((s,), (a,), (good, Production(a, string_graph([a]))), s),
            "production 1: left-hand side not a nonterminal",
        ),
    }


@pytest.mark.parametrize("defect", sorted(_broken_hrgs()))
@pytest.mark.parametrize(
    "entry",
    [
        lambda g: hrg_generate(g, 3, 3),
        lambda g: hrg_member(g, string_graph([RankedLabel("a", 2)])),
        wgnf_to_hl,
    ],
    ids=["hrg_generate", "hrg_member", "wgnf_to_hl"],
)
def test_hrg_entry_points_refuse_an_invalid_grammar(defect, entry):
    grammar, report = _broken_hrgs()[defect]
    assert validate_hrg(grammar) == report
    with pytest.raises(ValueError, match=f"^invalid grammar: {report}$"):
        entry(grammar)
