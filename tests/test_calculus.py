from __future__ import annotations

import itertools
import random
import time

import pytest

from hlc.calculus import (
    AXIOM,
    DIV_LEFT,
    DIV_RIGHT,
    TIMES_LEFT,
    TIMES_RIGHT,
    BudgetExceeded,
    DerivationTree,
    DivLeftData,
    NotDerivable,
    Prover,
    SearchBudget,
    check_derivation,
    connective_count,
    cut_compose,
    derive,
    normalize,
)
from hlc.fixtures import hgr1_types
from hlc.graphs import build_graph, dollar, handle, string_graph
from hlc.hltypes import Division, Primitive, Product, Sequent, set_report, validate_sequent

S2 = Primitive("s", 2)
P2 = Primitive("p", 2)
Q2 = Primitive("q", 2)
R2 = Primitive("r", 2)
U2 = Primitive("u", 2)
SGR_Q = Division(S2, string_graph([dollar(2), S2, P2]))


def kite_sequent():
    t = hgr1_types()
    g = build_graph(
        [0, 1, 2, 3],
        [
            (t["M11_32"], (0, 1)),
            (t["M21_2"], (0, 2)),
            (t["M22"], (1, 2)),
            (t["M12_1"], (3, 2)),
        ],
        (),
    )
    return Sequent(g, t["s"])


def test_normalize_expands_antecedent_products():
    u = Product(string_graph([P2, Q2, R2, S2]))
    seq = Sequent(string_graph([P2, Product(string_graph([Q2, R2])), S2]), u)
    normal = normalize(seq)
    assert normal == Sequent(string_graph([P2, Q2, R2, S2]), u)


def test_normalize_rewrites_division_succedent():
    n = Product(string_graph([P2, Q2, R2]))
    seq = Sequent(string_graph([P2, Q2]), Division(n, string_graph([dollar(2), R2])))
    normal = normalize(seq)
    assert normal.succedent == n
    from hlc.canon import isomorphic

    assert isomorphic(normal.antecedent, string_graph([P2, Q2, R2])) is not None


def test_normalize_fixpoint():
    seq = Sequent(string_graph([P2, Q2]), Product(string_graph([P2, Q2])))
    assert normalize(seq) == seq
    again = normalize(normalize(seq))
    assert again == seq


def test_axiom():
    result = derive(Sequent(handle(P2), P2))
    assert isinstance(result, DerivationTree) and result.rule == AXIOM
    assert check_derivation(result) is None


def test_axiom_requires_matching_primitive():
    result = derive(Sequent(handle(P2), Q2))
    assert isinstance(result, NotDerivable)


def test_sgr_sequent_derivation(prover):
    seq = Sequent(string_graph([SGR_Q, SGR_Q, S2, P2, P2]), S2)
    result = prover.derive(seq)
    assert isinstance(result, DerivationTree)
    assert check_derivation(result) is None
    assert result.count_rule(DIV_LEFT) == 2
    assert result.count_rule(AXIOM) == 5


def test_kite_sequent_shape(prover):
    result = prover.derive(kite_sequent())
    assert isinstance(result, DerivationTree)
    assert check_derivation(result) is None
    assert result.count_rule(TIMES_LEFT) == 4
    assert result.count_rule(DIV_LEFT) == 3


def test_invalid_sequent_rejected(prover):
    bad = Sequent(string_graph([P2]), Primitive("s", 0))
    with pytest.raises(ValueError):
        prover.derive(bad)


def test_checker_rejects_fake_axiom():
    fake = DerivationTree(Sequent(string_graph([P2, P2]), P2), AXIOM)
    assert "handle" in check_derivation(fake)
    nonprim = DerivationTree(
        Sequent(handle(Product(string_graph([P2]))), Product(string_graph([P2]))), AXIOM
    )
    assert "non-primitive" in check_derivation(nonprim)


def _swap_parts(tree: DerivationTree, first: int) -> DerivationTree:
    premises = list(tree.premises)
    premises[first], premises[first + 1] = premises[first + 1], premises[first]
    return DerivationTree(tree.conclusion, tree.rule, tuple(premises), tree.rule_data)


def test_checker_rejects_mutated_rule_data(prover):
    seq = Sequent(string_graph([SGR_Q, S2, P2]), S2)
    tree = prover.derive(seq)
    assert isinstance(tree, DerivationTree) and tree.rule == DIV_LEFT
    assert check_derivation(tree) is None
    data = tree.rule_data
    # Point the numerator edge somewhere else: reassembly no longer matches.
    h = tree.premises[0].conclusion.antecedent
    other = next(
        (e for e in h.edges if e != data.numerator_edge), None
    )
    mutated = DerivationTree(
        tree.conclusion,
        tree.rule,
        tree.premises,
        DivLeftData(data.pivot_edge, other),
    )
    assert check_derivation(mutated) is not None
    shuffled = DerivationTree(
        tree.conclusion,
        tree.rule,
        tuple(reversed(tree.premises)),
        data,
    )
    assert check_derivation(shuffled) is not None
    # The rule fixes the part premises to the sorted non-hole denominator
    # edges, here s then p: swapped, they no longer fit their edges.
    assert [p.conclusion.succedent for p in tree.premises[1:]] == [S2, P2]
    assert check_derivation(_swap_parts(tree, 1)) is not None


def test_product_introduction_premises_follow_body_edge_order(prover):
    tree = prover.derive(Sequent(string_graph([P2, Q2]), Product(string_graph([P2, Q2]))))
    assert isinstance(tree, DerivationTree) and tree.rule == TIMES_RIGHT
    assert tree.rule_data is None
    assert [p.conclusion.succedent for p in tree.premises] == [P2, Q2]
    assert check_derivation(tree) is None
    assert check_derivation(_swap_parts(tree, 0)) is not None


def test_tree_walk_has_no_depth_limit():
    # A hand-built chain far deeper than the recursion limit: one axiom under
    # alternating unary rule nodes (not a valid derivation, only a shape).
    depth = 10_000
    seq = Sequent(handle(P2), P2)
    tree = DerivationTree(seq, AXIOM)
    for i in range(depth - 1):
        tree = DerivationTree(seq, (TIMES_LEFT, DIV_RIGHT)[i % 2], (tree,))
    nodes = list(tree.walk())
    assert len(nodes) == depth and nodes[0] is tree and nodes[-1].rule == AXIOM
    assert tree.size() == depth
    assert tree.count_rule(AXIOM) == 1
    assert tree.count_rule(TIMES_LEFT) == 5_000 and tree.count_rule(DIV_RIGHT) == 4_999


def test_walk_is_pre_order(prover):
    tree = prover.derive(Sequent(string_graph([SGR_Q, SGR_Q, S2, P2, P2]), S2))
    assert isinstance(tree, DerivationTree)

    def pre_order(t):
        return [t] + [n for p in t.premises for n in pre_order(p)]

    assert [id(n) for n in tree.walk()] == [id(n) for n in pre_order(tree)]


def test_cut_with_axiom_is_identity(prover):
    seq = Sequent(string_graph([SGR_Q, S2, P2]), S2)
    d1 = prover.derive(seq)
    assert isinstance(d1, DerivationTree)
    d2 = prover.derive(Sequent(handle(S2), S2))
    composed = cut_compose(d1, d2, 0, prover=prover)
    assert isinstance(composed, DerivationTree)
    assert composed.conclusion == seq
    assert check_derivation(composed) is None


def test_cut_grows_string_language(prover):
    big = prover.derive(Sequent(string_graph([SGR_Q, SGR_Q, S2, P2, P2]), S2))
    small = prover.derive(Sequent(string_graph([SGR_Q, S2, P2]), S2))
    assert isinstance(big, DerivationTree) and isinstance(small, DerivationTree)
    # Cutting the longer derivation into the s-labeled edge of the shorter
    # antecedent yields the next word of the language.  The returned tree's
    # conclusion is only isomorphic to the query, so locate the edge in it.
    g = small.conclusion.antecedent
    s_edge = next(e for e in g.edges if g.lab[e] == S2)
    composed = cut_compose(big, small, s_edge, prover=prover)
    assert isinstance(composed, DerivationTree)
    assert composed.conclusion == Sequent(
        string_graph([SGR_Q, SGR_Q, SGR_Q, S2, P2, P2, P2]), S2
    )


def test_cut_requires_matching_label(prover):
    d1 = prover.derive(Sequent(handle(P2), P2))
    d2 = prover.derive(Sequent(handle(S2), S2))
    with pytest.raises(ValueError):
        cut_compose(d1, d2, 0, prover=prover)


def test_budget_exceeded_is_not_refutation(prover):
    seq = kite_sequent()
    tiny = Prover()
    result = tiny.derive(seq, SearchBudget(max_nodes=2))
    assert isinstance(result, (BudgetExceeded, DerivationTree))
    assert isinstance(result, BudgetExceeded)
    assert result.stats.nodes_expanded <= 2
    # A fresh prover without the poisoned budget still succeeds.
    assert isinstance(Prover().derive(seq), DerivationTree)


def test_budget_failures_are_not_memoized_as_refutations():
    seq = kite_sequent()
    prover = Prover()
    first = prover.derive(seq, SearchBudget(max_nodes=2))
    assert isinstance(first, BudgetExceeded)
    second = prover.derive(seq)
    assert isinstance(second, DerivationTree)


def test_iso_invariance(prover):
    from tests.test_canon import permute

    seq = Sequent(string_graph([SGR_Q, S2, P2]), S2)
    rng = random.Random(0)
    for _ in range(10):
        twin = Sequent(permute(seq.antecedent, rng), seq.succedent)
        assert isinstance(prover.derive(twin), DerivationTree)
    bad = Sequent(string_graph([SGR_Q, P2, S2]), S2)
    for _ in range(5):
        twin = Sequent(permute(bad.antecedent, rng), bad.succedent)
        assert isinstance(prover.derive(twin), NotDerivable)


def test_normalization_preserves_derivability(prover, corpus, bad_corpus):
    for tree in corpus[:60]:
        seq = tree.conclusion
        assert isinstance(prover.derive(normalize(seq)), DerivationTree)
    for seq in bad_corpus:
        assert not isinstance(prover.derive(normalize(seq)), DerivationTree)


def test_every_corpus_tree_checks(corpus):
    for tree in corpus:
        assert check_derivation(tree) is None


def test_termination_measure_along_trees(corpus):
    for tree in corpus:
        for node in tree.walk():
            if node.premises:
                total = sum(connective_count(p.conclusion) for p in node.premises)
                assert total < connective_count(node.conclusion)


def test_isolated_node_joins_a_part():
    # A lone isolated node is an instance of a pattern whose single rank-0
    # edge expects a one-node graph: replacement keeps the interior node of
    # the substituted graph, so the isolated host node joins the part.
    one_node = build_graph([0], [], ())
    inner = Product(one_node)
    pattern = build_graph([], [(inner, ())], ())
    seq = Sequent(one_node, Product(pattern))
    tree = Prover().derive(seq)
    assert isinstance(tree, DerivationTree)
    assert check_derivation(tree) is None


def test_twelve_isolated_nodes_derive_in_one_instance():
    # k isolated nodes |- x(M), M being k rank-0 edges labeled x(one node):
    # each part takes one node, and the nodes are interchangeable, so the
    # typed search meets one instance instead of one per node permutation.
    k = 12
    one_node = Product(build_graph([0], [], ()))
    seq = Sequent(build_graph(range(k), [], ()), Product(build_graph([], [(one_node, ())] * k, ())))
    prover = Prover()
    start = time.perf_counter()
    tree = prover.derive(seq)
    assert time.perf_counter() - start < 0.5
    assert isinstance(tree, DerivationTree)
    assert check_derivation(tree) is None
    assert prover.last_stats.pruned == 0


def test_node_budget_on_a_serial_chain():
    # A left-nested division chain exposes one division per contraction, so
    # the subgoals are strictly serial.  The node budget alone bounds the
    # search: the chain is derived with exactly the nodes it needs, and one
    # node fewer spends the whole budget.
    t = P2
    for _ in range(3):
        t = Division(t, string_graph([dollar(2), Q2]))
    seq = Sequent(string_graph([t, Q2, Q2, Q2]), P2)
    full = Prover()
    assert isinstance(full.derive(seq), DerivationTree)
    needed = full.nodes_expanded
    assert needed >= 3
    short = Prover().derive(seq, SearchBudget(max_nodes=needed - 1))
    assert isinstance(short, BudgetExceeded)
    assert short.stats.nodes_expanded == needed - 1 and short.stats.budget_hits >= 1
    assert isinstance(Prover().derive(seq, SearchBudget(max_nodes=needed)), DerivationTree)
    with pytest.raises(ValueError):
        SearchBudget(max_nodes=0)


def test_derive_times_right_with_empty_pattern(prover):
    body = build_graph([0, 1], [], (0, 1))
    seq = Sequent(body, Product(body))
    result = prover.derive(seq)
    assert isinstance(result, DerivationTree)
    assert result.rule == "times_right" and result.premises == ()
    assert check_derivation(result) is None


def test_first_derivable_pivot_stops_the_search(monkeypatch):
    # Both q edges of q q s p p are division pivots, and the first one alone
    # yields a derivation: later pivots' contexts must never be enumerated.
    import hlc.calculus

    goal = Sequent(string_graph([SGR_Q, SGR_Q, S2, P2, P2]), S2)
    pulled: dict[int, int] = {}
    real = hlc.calculus.enumerate_context_extractions

    def counting(host, pivot, *args, **kwargs):
        for extr in real(host, pivot, *args, **kwargs):
            if host is goal.antecedent:
                pulled[pivot] = pulled.get(pivot, 0) + 1
            yield extr

    monkeypatch.setattr(hlc.calculus, "enumerate_context_extractions", counting)
    result = Prover().derive(goal)
    assert isinstance(result, DerivationTree)
    assert check_derivation(result) is None
    assert result.rule_data.pivot_edge == 0
    assert set(pulled) == {0}


def test_long_sgr_sequent_is_derived():
    n = 16
    goal = Sequent(string_graph([SGR_Q] * n + [S2] + [P2] * n), S2)
    result = Prover().derive(goal)
    assert isinstance(result, DerivationTree)
    assert check_derivation(result) is None
    assert result.count_rule(DIV_LEFT) == n


def _one_edit_words(n: int) -> list[str]:
    """``q^n s p^n`` and every word one edit away from it: the last letter
    dropped, a ``p`` added, the ``s`` moved, or a ``q`` and a ``p`` swapped."""
    base = "q" * n + "s" + "p" * n
    rest = base.replace("s", "")
    words = {base, base[:-1]}
    words |= {base[:i] + "p" + base[i:] for i in range(len(base) + 1)}
    words |= {rest[:i] + "s" + rest[i:] for i in range(len(rest) + 1)}
    for i in range(n):
        for j in range(n + 1, 2 * n + 1):
            swapped = list(base)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            words.add("".join(swapped))
    return sorted(words)


def _answers() -> tuple[list, list[Prover]]:
    """Verdict, tree and stats of every string query below, and the provers
    that answered them: fresh provers on q^n s p^n and its one-edit words
    (n <= 6), one shared prover on every sgr word up to length 7 through
    hl_member, and one on the Lambek corpus."""
    from hlc.fixtures import build_sgr, sgr_string_graph
    from hlc.fmt import print_type, tree_to_json
    from hlc.grammars import MemberWitness, hl_member
    from hlc.lambek import enumerate_lambek_corpus, translate_ltype

    def record(result, stats):
        tree = getattr(result, "tree", result)
        shown = tree_to_json(tree) if isinstance(tree, DerivationTree) else None
        return type(result).__name__, shown, stats

    sgr = build_sgr()
    types = dict(zip("qps", (t for _, t in sgr.correspondence)))
    out, provers = [], []
    for n in range(1, 7):
        for word in _one_edit_words(n):
            prover = Prover()
            goal = Sequent(string_graph([types[c] for c in word]), sgr.distinguished)
            out.append(record(prover.derive(goal), prover.last_stats))
            provers.append(prover)
    shared = Prover()
    for length in range(1, 8):
        for letters in itertools.product("ab", repeat=length):
            result = hl_member(sgr, sgr_string_graph("".join(letters)), prover=shared)
            out.append(record(result, result.stats))
            if isinstance(result, MemberWitness):
                out.append(sorted((e, print_type(t)) for e, t in result.assignment.items()))
    # translate_lsequent, with each Lambek type translated once.
    translated: dict = {}

    def translate(t):
        if t not in translated:
            translated[t] = translate_ltype(t)
        return translated[t]

    lambek = Prover()
    for ants, succ in enumerate_lambek_corpus():
        goal = Sequent(string_graph([translate(t) for t in ants]), translate(succ))
        out.append(record(lambek.derive(goal), lambek.last_stats))
    return out, provers + [shared, lambek]


def test_word_key_answers_as_the_canonical_key(monkeypatch):
    """The prover's memo, keyed by canonical keys, answers string goals with
    canon's word keys exactly as with refinement keys: the same verdicts,
    trees, stats and memo sizes."""
    import hlc.canon

    answers, provers = _answers()
    # Every goal of a string sequent is a string sequent, so every memo key
    # here holds a word key.
    assert all(key[1][0] == "W" for p in provers for key in p.memo)
    with monkeypatch.context() as patch:
        patch.setattr(hlc.canon, "string_path", lambda g: None)
        reference, reference_provers = _answers()
    assert all(key[1][0] == "H" for p in reference_provers for key in p.memo)
    assert [len(p.memo) for p in provers] == [len(p.memo) for p in reference_provers]
    assert len(answers) == len(reference)
    for got, expected in zip(answers, reference):
        assert got == expected


def test_checker_ignores_a_seeded_verdict():
    """A verdict seeded on a sequent reaches ``validate_sequent``, so the
    prover's boundary, but never ``check_derivation``, which checks every
    conclusion afresh."""
    p2 = Primitive("p", 2)
    seq = Sequent(handle(p2), Primitive("q", 1))  # a rank mismatch
    set_report(seq, None)
    assert validate_sequent(seq) is None
    report = check_derivation(DerivationTree(seq, AXIOM))
    assert report == "invalid conclusion: rank mismatch: antecedent 2, succedent 1"
