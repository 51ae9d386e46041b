from __future__ import annotations

import itertools
import random

from hlc.calculus import DerivationTree
from hlc.canon import canonical_key
from hlc.fixtures import build_sgr
from hlc.graphs import RankedLabel, build_graph, dollar, handle, replace_all, string_graph
from hlc.hltypes import Division, Primitive, Product, Sequent, dollar_edge
from hlc.lambek import enumerate_lambek_corpus, translate_lsequent
from hlc.matching import enumerate_decompositions
from hlc.models import (
    NOT_ENUMERABLE,
    UNDECIDED,
    Valuation,
    contains_decidable,
    denotation_contains,
    denotation_enumerate,
    is_enumerable,
    random_graphs,
    random_valuation,
    sequent_holds,
    sequent_primitives,
    validate_valuation,
)

A = RankedLabel("a", 2)
B = RankedLabel("b", 2)
P = Primitive("p", 2)
Q = Primitive("q", 2)
S = Primitive("s", 2)


def val(**kw) -> Valuation:
    assignment = tuple(
        (Primitive(name, graphs[0].rank if graphs else 2), tuple(graphs))
        for name, graphs in kw.items()
    )
    return Valuation(alphabet=(A, B), assignment=assignment)


def test_primitive_denotation():
    w = val(p=[string_graph([A])])
    result = denotation_enumerate(w, P)
    assert [canonical_key(g) for g in result] == [canonical_key(string_graph([A]))]
    assert validate_valuation(w) is None


def test_edgeless_product_denotation():
    w = val()
    pattern = build_graph([0, 1], [], (0, 1))
    result = denotation_enumerate(w, Product(pattern))
    assert len(result) == 1
    assert canonical_key(result[0]) == canonical_key(pattern)


def test_parallel_strings_denotation():
    str2 = Primitive("str", 2)
    w = Valuation(
        alphabet=(A,),
        assignment=((str2, (string_graph([A]), string_graph([A, A]))),),
    )
    pattern = build_graph([0, 1], [(str2, (0, 1)), (str2, (0, 1))], (0, 1))
    result = denotation_enumerate(w, Product(pattern))
    # Four substitution pairs collapse to three canonical graphs because the
    # two slots are interchangeable.
    assert len(result) == 3
    raw = [
        replace_all(pattern, {0: g0, 1: g1})
        for g0, g1 in itertools.product(w.graphs(str2), repeat=2)
    ]
    assert len(raw) == 4
    assert {canonical_key(g) for g in raw} == {canonical_key(g) for g in result}


def test_division_not_enumerable():
    w = val()
    t = Division(P, string_graph([dollar(2), Q]))
    assert denotation_enumerate(w, t) is NOT_ENUMERABLE


def test_contains_primitive():
    w = val(p=[string_graph([A])])
    assert denotation_contains(w, P, string_graph([A])) is True
    assert denotation_contains(w, P, string_graph([B])) is False


def test_contains_division_quantifies_over_denominator():
    # s / ($ q) with w(s) = {ab} and w(q) = {b}: a graph g belongs iff
    # appending every member of w(q) lands in w(s).
    t = Division(S, string_graph([dollar(2), Q]))
    w = val(s=[string_graph([A, B])], q=[string_graph([B])])
    assert denotation_contains(w, t, string_graph([A])) is True
    assert denotation_contains(w, t, string_graph([B])) is False
    # Growing w(s) does not make a chain of the wrong length appear.
    w2 = val(s=[string_graph([B]), string_graph([A, B, B])], q=[string_graph([B])])
    t2 = Division(S, string_graph([dollar(2), S, Q]))
    # a . s . q must land in w(s) for every s in w(s), q in w(q):
    # a b b works but a abb b does not.
    assert denotation_contains(w2, t2, string_graph([A])) is False


def test_contains_undecided_on_nested_division():
    inner = Division(S, string_graph([dollar(2), Q]))
    outer = Division(S, string_graph([dollar(2), inner]))
    w = val(s=[string_graph([A])], q=[string_graph([B])])
    assert denotation_contains(w, outer, string_graph([A])) is UNDECIDED
    assert sequent_holds(w, Sequent(string_graph([inner]), S)) is UNDECIDED


def test_contains_product_with_division_label():
    # Division labels are fine inside a product as long as their denominators
    # stay enumerable.
    t = Product(string_graph([Division(S, string_graph([dollar(2), Q])), Q]))
    w = val(s=[string_graph([A, B])], q=[string_graph([B])])
    assert denotation_contains(w, t, string_graph([A, B])) is True
    assert denotation_contains(w, t, string_graph([B, B])) is False


def test_sequent_holds_axiom_and_countermodel():
    w = val(p=[string_graph([A])])
    assert sequent_holds(w, Sequent(handle(P), P)) is True
    w2 = val(p=[string_graph([A])], q=[])
    assert sequent_holds(w2, Sequent(handle(P), Q)) is False


def test_sequent_holds_vacuous_on_empty_denotation():
    w = val(p=[])
    assert sequent_holds(w, Sequent(handle(P), Q)) is True


def test_derivable_sgr_sequent_holds_under_random_valuations(prover):
    sgr = build_sgr()
    q, p, s = (t for _, t in sgr.correspondence)
    seq = Sequent(string_graph([q, q, s, p, p]), s)
    assert isinstance(prover.derive(seq), DerivationTree)
    rng = random.Random(0)
    prims = sequent_primitives(seq)
    for _ in range(50):
        w = random_valuation(rng, prims)
        verdict = sequent_holds(w, seq)
        assert verdict is True or verdict is UNDECIDED
        # The antecedent contains divisions, so UNDECIDED only comes from the
        # enumerability gate; the succedent side stays decidable.
        assert verdict is UNDECIDED


def test_soundness_on_enumerable_sequents(prover):
    seqs = [
        Sequent(handle(P), P),
        Sequent(string_graph([P, Q]), Product(string_graph([P, Q]))),
        Sequent(
            string_graph([P, Product(string_graph([Q, S]))]),
            Product(string_graph([P, Q, S])),
        ),
    ]
    rng = random.Random(1)
    for seq in seqs:
        assert isinstance(prover.derive(seq), DerivationTree)
        prims = sequent_primitives(seq)
        for _ in range(50):
            w = random_valuation(rng, prims)
            assert sequent_holds(w, seq) is True


def division_only_nontheorems(prover, count: int = 20) -> list[Sequent]:
    """Non-derivable sequents over primitives and divisions only, all within
    the exactly checkable fragment."""
    from hlc.models import contains_decidable, is_enumerable

    prims = [P, Q, S]
    divisions = [
        Division(x, string_graph([dollar(2), y]))
        for x in prims
        for y in prims
    ] + [
        Division(x, string_graph([y, dollar(2)]))
        for x in prims
        for y in prims
    ]
    out: list[Sequent] = []
    rng = random.Random(9)
    while len(out) < count:
        ants = [rng.choice(prims) for _ in range(rng.randint(1, 2))]
        succ = rng.choice(prims + divisions)
        seq = Sequent(string_graph(ants), succ)
        if not (is_enumerable(Product(seq.antecedent)) and contains_decidable(succ)):
            continue
        if isinstance(prover.derive(seq), DerivationTree):
            continue
        if any(seq == other for other in out):
            continue
        out.append(seq)
    return out


def test_countermodel_search_refutes_nonderivable(prover):
    rng = random.Random(2)
    sequents = division_only_nontheorems(prover, count=20)
    assert len(sequents) >= 20
    refuted = 0
    unrefuted = []
    for seq in sequents:
        for _ in range(80):
            w = random_valuation(rng, sequent_primitives(seq))
            if sequent_holds(w, seq) is False:
                refuted += 1
                break
        else:
            unrefuted.append(seq)
    # Completeness for the division fragment guarantees a countermodel exists,
    # but not a small one: failures to find one are logged, not fatal.
    for seq in unrefuted:
        print(f"countermodel search exhausted for {seq!r}")
    assert refuted >= len(sequents) - 2


def test_enumeration_matches_brute_force_counts():
    rng = random.Random(3)
    str2 = Primitive("str", 2)
    pool = [string_graph([A]), string_graph([B]), string_graph([A, B])]
    for _ in range(20):
        k = rng.randint(1, 3)
        labels = [str2] * k
        pattern = string_graph(labels)
        graphs = tuple(rng.sample(pool, rng.randint(1, 3)))
        w = Valuation(alphabet=(A, B), assignment=((str2, graphs),))
        enumerated = denotation_enumerate(w, Product(pattern))
        brute = {
            canonical_key(replace_all(pattern, dict(zip(sorted(pattern.edges), pick))))
            for pick in itertools.product(graphs, repeat=k)
        }
        assert {canonical_key(g) for g in enumerated} == brute


def reference_contains(w: Valuation, t, g) -> bool:
    """Membership from the definitions, kept as the reference for the cached
    denotation lookup in ``hlc.models``: a primitive by canonical key, a
    product by nonminimal decompositions, a division by quantifying over the
    denominator's other labels."""
    if g.rank != t.rank:
        return False
    if isinstance(t, Primitive):
        key = canonical_key(g)
        return any(canonical_key(h) == key for h in w.graphs(t))
    if isinstance(t, Product):
        body = t.body
        tried = set()  # parts up to isomorphism, as the enumerator may repeat them
        for dec in enumerate_decompositions(g, body, nonminimal=True):
            key = tuple(canonical_key(dec.parts[m]) for m in sorted(body.edges))
            if key in tried:
                continue
            tried.add(key)
            if all(reference_contains(w, body.lab[m], dec.parts[m]) for m in body.edges):
                return True
        return False
    d = t.denominator
    hole = dollar_edge(d)
    others = sorted(e for e in d.edges if e != hole)
    pools = [denotation_enumerate(w, d.lab[e]) for e in others]
    return all(
        reference_contains(w, t.numerator, replace_all(d, {hole: g, **dict(zip(others, pick))}))
        for pick in itertools.product(*pools)
    )


def reference_holds(w: Valuation, s: Sequent):
    lhs = denotation_enumerate(w, Product(s.antecedent))
    if lhs is NOT_ENUMERABLE or not contains_decidable(s.succedent):
        return UNDECIDED
    return all(reference_contains(w, s.succedent, g) for g in lhs)


def _kind(t) -> str:
    if isinstance(t, Product) and not is_enumerable(t):
        return "product with a division in its body"
    if isinstance(t, Division) and isinstance(t.numerator, Product) and is_enumerable(t.numerator):
        return "division over an enumerable product"
    return "other"


def _substitution(rng: random.Random, w: Valuation, t: Product):
    """A graph built like a member of ``t``: each body edge is replaced by a
    graph the valuation assigns to its label, or else by a random graph."""
    body = t.body
    picks = {}
    for e in body.edges:
        lab = body.lab[e]
        pool = w.graphs(lab) if isinstance(lab, Primitive) else ()
        picks[e] = rng.choice(pool or random_graphs(rng, lab.rank, w.alphabet, count=1))
    return replace_all(body, picks)


def test_membership_matches_reference_on_lambek_corpus():
    rng = random.Random(4)
    corpus = list(enumerate_lambek_corpus())
    verdicts: set[str] = set()
    kinds: set[tuple[str, bool]] = set()
    for ants, succ in rng.sample(corpus, 120):
        s = translate_lsequent(ants, succ)
        t = s.succedent
        for _ in range(2):
            w = random_valuation(rng, sequent_primitives(s), max_edges=1)
            verdict = sequent_holds(w, s)
            assert verdict is reference_holds(w, s), s
            verdicts.add(repr(verdict))
            if not contains_decidable(t):
                continue
            graphs = random_graphs(rng, t.rank, w.alphabet, count=2)
            if isinstance(t, Product):
                graphs.append(_substitution(rng, w, t))
            lhs = denotation_enumerate(w, Product(s.antecedent))
            graphs += [] if lhs is NOT_ENUMERABLE else list(lhs)
            for g in graphs:
                member = denotation_contains(w, t, g)
                assert member is reference_contains(w, t, g), (s, g)
                kinds.add((_kind(t), member))
    assert verdicts == {"True", "False", "UNDECIDED"}
    for kind in ("product with a division in its body", "division over an enumerable product"):
        assert {(kind, True), (kind, False)} <= kinds, kinds
