from __future__ import annotations

import itertools
import random

import pytest

import hlc.models
from hlc.calculus import DerivationTree
from hlc.canon import canonical_key
from hlc.fixtures import build_sgr
from hlc.graphs import (
    Hypergraph,
    RankedLabel,
    build_graph,
    dollar,
    handle,
    handle_label,
    replace,
    replace_all,
    string_graph,
)
from hlc.hltypes import Division, Primitive, Product, Sequent, dollar_edge
from hlc.lambek import Dot, LPrim, enumerate_lambek_corpus, translate_lsequent
from hlc.matching import enumerate_decompositions
from hlc.models import (
    NOT_ENUMERABLE,
    UNDECIDED,
    Valuation,
    contains_decidable,
    denotation_contains,
    denotation_enumerate,
    is_enumerable,
    model_checkable,
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


@pytest.mark.parametrize(
    "t, message",
    [
        (
            Product(build_graph([0, 1], [(RankedLabel("u", 2), (0, 1))], (0, 1))),
            r"invalid type: product body edge 0 not labeled by a type",
        ),
        ("x", r"invalid type: not a type: 'x'"),
        (
            Product(Hypergraph(nodes=(0, 1), edges=(0,), att={0: (0,)}, lab={0: P}, ext=(0, 1))),
            r"invalid type: product body: edge 0: rank mismatch",
        ),
    ],
    ids=["alphabet symbol in the body", "not a type", "edge of the wrong rank"],
)
def test_enumeration_refuses_an_invalid_type(t, message):
    w = val(p=[string_graph([A]), string_graph([A, B])])
    with pytest.raises(ValueError, match=message):
        denotation_enumerate(w, t)


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
    product by decompositions, a division by quantifying over the
    denominator's other labels."""
    if g.rank != t.rank:
        return False
    if isinstance(t, Primitive):
        key = canonical_key(g)
        return any(canonical_key(h) == key for h in w.graphs(t))
    if isinstance(t, Product):
        body = t.body
        tried = set()  # parts up to isomorphism, as the enumerator may repeat them
        for dec in enumerate_decompositions(g, body):
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


def _fold(g, assignment):
    """``replace_all`` as one ``replace`` per edge, in increasing edge order."""
    for e in sorted(assignment):
        g = replace(g, e, assignment[e])
    return g


def _deduped(graphs):
    out = {}
    for g in graphs:
        out.setdefault(canonical_key(g), g)
    return tuple(out[key] for key in sorted(out))


def folded_denotation(w: Valuation, t, cache: dict):
    """The enumeration without flattening, kept as the reference for
    :func:`denotation_enumerate`: a product's body edges draw from the
    deduplicated denotations of their labels, a nested product's included,
    and each pick is substituted edge by edge.  Returns the graphs and their
    canonical keys, cached in ``cache`` by the type's canonical key."""
    key = t.canon_key()
    if key not in cache:
        if isinstance(t, Primitive):
            graphs = _deduped(w.graphs(t))
        else:
            body = t.body
            edges = sorted(body.edges)
            pools = [folded_denotation(w, body.lab[e], cache)[0] for e in edges]
            picks = itertools.product(*pools)
            graphs = _deduped(_fold(body, dict(zip(edges, pick))) for pick in picks)
        cache[key] = (graphs, frozenset(map(canonical_key, graphs)))
    return cache[key]


def folded_contains(w: Valuation, t, g, cache: dict) -> bool:
    """Membership as :func:`hlc.models.denotation_contains` decides it, with
    every enumeration from :func:`folded_denotation`."""
    if g.rank != t.rank:
        return False
    if is_enumerable(t):
        return canonical_key(g) in folded_denotation(w, t, cache)[1]
    if isinstance(t, Product):
        body = t.body
        return any(
            all(folded_contains(w, body.lab[m], dec.parts[m], cache) for m in body.edges)
            for dec in enumerate_decompositions(g, body)
        )
    d = t.denominator
    hole = dollar_edge(d)
    others = sorted(e for e in d.edges if e != hole)
    pools = [folded_denotation(w, d.lab[e], cache)[0] for e in others]
    return all(
        folded_contains(w, t.numerator, _fold(d, {hole: g, **dict(zip(others, pick))}), cache)
        for pick in itertools.product(*pools)
    )


def folded_holds(w: Valuation, s: Sequent):
    lhs = Product(s.antecedent)
    if not is_enumerable(lhs) or not contains_decidable(s.succedent):
        return UNDECIDED
    cache: dict = {}
    return all(
        folded_contains(w, s.succedent, g, cache) for g in folded_denotation(w, lhs, cache)[0]
    )


def _renumbered(rng: random.Random, g):
    """An isomorphic copy of ``g`` with fresh node and edge ids in shuffled order."""
    ids = rng.sample(range(10, 10 + 2 * len(g.nodes)), len(g.nodes))
    f = dict(zip(g.nodes, ids))
    edges = [(g.lab[e], [f[v] for v in g.att[e]]) for e in g.edges]
    rng.shuffle(edges)
    return build_graph(ids, edges, [f[v] for v in g.ext])


def _with_copies(rng: random.Random, w: Valuation) -> Valuation:
    """``w`` with a renumbered copy of some of its graphs listed beside them."""
    assignment = []
    for p, graphs in w.assignment:
        copies = [_renumbered(rng, g) for g in graphs if rng.random() < 0.5]
        assignment.append((p, graphs + tuple(copies)))
    return Valuation(alphabet=w.alphabet, assignment=tuple(assignment))


def _nested(t) -> bool:
    return isinstance(t, Product) and any(isinstance(t.body.lab[e], Product) for e in t.body.edges)


def _leaves(t) -> tuple | None:
    """The primitives of a division-free Lambek type, left to right; None if
    it has a division."""
    if isinstance(t, LPrim):
        return (t.name,)
    if isinstance(t, Dot):
        left, right = _leaves(t.left), _leaves(t.right)
        return None if left is None or right is None else left + right
    return None


def _one_string(ants, succ) -> bool:
    """Whether both sides are division-free and list the same primitives:
    an identity or associativity instance, whose two sides are one type."""
    parts = [_leaves(t) for t in ants]
    return None not in parts and sum(parts, ()) == _leaves(succ)


def test_enumeration_matches_folded_reference_on_lambek_corpus(monkeypatch):
    """Flattened enumeration from the valuation's own lists gives the same
    isomorphism classes, one representative each in canonical order, and the
    same verdicts as the enumeration over nested, deduplicated pools.  The
    reference enumerates both sides of every sequent, so it also checks the
    identity and associativity instances, which ``sequent_holds`` decides
    without enumerating; the corpus's own are added to the sample."""
    calls = _count_enumerations(monkeypatch)
    rng = random.Random(5)
    corpus = list(enumerate_lambek_corpus())
    verdicts: set[str] = set()
    seen = {"nested": 0, "copies": 0, "members": 0}
    unenumerated, one_string = set(), set()
    checks = 0
    for ants, succ in rng.sample(corpus, 200) + [x for x in corpus if _one_string(*x)]:
        s = translate_lsequent(ants, succ)
        if _one_string(ants, succ):
            one_string.add(s.canon_key())
        labels = [s.antecedent.lab[e] for e in s.antecedent.edges]
        # The succedent as the one label of an antecedent nests products deeper.
        enumerable = [Product(s.antecedent), s.succedent, Product(handle(s.succedent))] + labels
        enumerable = [t for t in enumerable if isinstance(t, Product) and is_enumerable(t)]
        for _ in range(2):
            w = random_valuation(rng, sequent_primitives(s), max_edges=1)
            if rng.random() < 0.5:
                w = _with_copies(rng, w)
                seen["copies"] += any(len(gs) > len(_deduped(gs)) for _, gs in w.assignment)
            cache: dict = {}
            for t in enumerable:
                got = denotation_enumerate(w, t)
                keys = [canonical_key(g) for g in got]
                assert keys == sorted(set(keys))
                assert set(keys) == folded_denotation(w, t, cache)[1], (s, t)
                seen["nested"] += _nested(t)
                seen["members"] += len(keys)
            before = len(calls)
            verdict = sequent_holds(w, s)
            assert verdict is folded_holds(w, s), s
            verdicts.add(repr(verdict))
            # A fresh valuation has no cached entry, so a decided sequent
            # that enumerates nothing took the one-entry rule.
            if verdict is not UNDECIDED and len(calls) == before:
                unenumerated.add(s.canon_key())
                checks += 1
            if contains_decidable(s.succedent):
                for g in random_graphs(rng, s.succedent.rank, w.alphabet, count=2):
                    member = denotation_contains(w, s.succedent, g)
                    assert member is folded_contains(w, s.succedent, g, cache), (s, g)
                    verdicts.add(f"member {member}")
    assert {"True", "False", "member True", "member False"} <= verdicts, verdicts
    assert min(seen.values()) >= 20, seen
    assert unenumerated == one_string
    assert checks >= 50, checks


PQ = Product(string_graph([P, Q]))
FLAT = Product(string_graph([P, P, Q]))  # x(p.p.q)
LEFT = Product(string_graph([Product(string_graph([P, P])), Q]))  # x(x(p.p).q)
RIGHT = Product(string_graph([P, PQ]))  # x(p.x(p.q))


def _count_enumerations(monkeypatch) -> list:
    calls = []

    def counting(w, t):
        calls.append(t)
        return denotation_enumerate(w, t)

    monkeypatch.setattr(hlc.models, "denotation_enumerate", counting)
    return calls


def test_products_with_one_flattened_body_share_one_enumeration(monkeypatch):
    calls = _count_enumerations(monkeypatch)
    w = val(p=[string_graph([A]), string_graph([B])], q=[string_graph([A, B])])
    # The antecedent p . x(p.q) flattens to p.p.q as well: both sides name
    # one entry, so the sequent holds without enumerating it.
    assert sequent_holds(w, Sequent(string_graph([P, PQ]), LEFT)) is True
    assert calls == []
    assert denotation_contains(w, FLAT, string_graph([B, A, A, B])) is True
    assert len(calls) == 1
    for t in (FLAT, LEFT, RIGHT):
        assert denotation_contains(w, t, string_graph([B, A, A, B])) is True
        assert denotation_contains(w, t, string_graph([A, B, A])) is False
    assert len(calls) == 1
    # A new valuation enumerates afresh, once.
    w2 = val(p=[string_graph([B])], q=[string_graph([A])])
    for t in (RIGHT, FLAT, LEFT):
        assert denotation_contains(w2, t, string_graph([B, B, A])) is True
    assert len(calls) == 2


def test_handle_product_shares_the_primitive_entry(monkeypatch):
    calls = _count_enumerations(monkeypatch)
    w = val(p=[string_graph([A]), string_graph([A, B])])
    handles = [Product(handle(P)), Product(handle(Product(handle(P))))]
    assert sequent_holds(w, Sequent(handle(P), P)) is True
    for t in [P] + handles:
        assert denotation_contains(w, t, string_graph([A, B])) is True
        assert denotation_contains(w, t, string_graph([B])) is False
    assert len(calls) == 1
    # The entry lists p's own graphs, whichever of the types asks first.
    for t in handles:
        assert denotation_enumerate(w, t) == denotation_enumerate(w, P)


def test_one_entry_sequents_hold_without_enumerating(monkeypatch):
    calls = _count_enumerations(monkeypatch)
    w = val(p=[string_graph([A]), string_graph([A, B])], q=[string_graph([B])])
    sequents = [
        Sequent(handle(P), P),
        Sequent(handle(P), Product(handle(P))),
        Sequent(string_graph([P, PQ]), LEFT),
        Sequent(string_graph([P, P, Q]), RIGHT),
    ]
    for s in sequents:
        assert sequent_holds(w, s) is True, s
    assert calls == []
    for s in sequents:
        assert folded_holds(w, s) is reference_holds(w, s) is True, s


def test_sequents_with_two_entries_still_enumerate(monkeypatch):
    calls = _count_enumerations(monkeypatch)
    rng = random.Random(19)
    s = Sequent(string_graph([P, Q]), Product(string_graph([Q, P])))
    verdicts = set()
    for _ in range(12):
        w = random_valuation(rng, sequent_primitives(s), max_edges=1)
        before = len(calls)
        verdict = sequent_holds(w, s)
        assert len(calls) > before
        assert verdict is folded_holds(w, s) is reference_holds(w, s)
        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_undecidable_sequent_with_one_entry_stays_undecided(monkeypatch):
    calls = _count_enumerations(monkeypatch)
    d = Division(S, string_graph([dollar(2), Q]))
    s = Sequent(handle(d), Product(handle(d)))
    assert hlc.models._entry_key(s.succedent) == hlc.models._entry_key(Product(s.antecedent))
    w = val(s=[string_graph([A, B])], q=[string_graph([B])])
    assert sequent_holds(w, s) is UNDECIDED
    assert calls == []


def reference_entry_key(t):
    """The entry key as flattening and canonicalising give it: every
    product-labelled edge replaced by that product's body until none is
    left, then the handle rule or the flattened body's canonical key."""
    if isinstance(t, Primitive):
        return t.canon_key()
    body = t.body
    while True:
        nested = {e: body.lab[e].body for e in body.edges if isinstance(body.lab[e], Product)}
        if not nested:
            break
        body = replace_all(body, nested)
    label = handle_label(body)
    return ("x", canonical_key(body)) if label is None else label.canon_key()


def _reversed(x):
    return build_graph([0, 1], [(x, (1, 0))], (0, 1))


def _nested_products(rng: random.Random, per_level: int = 20) -> tuple[list, list]:
    """Products nested three deep over P, Q, a division, handles, the
    empty-bodied ``×(ε)`` and a reversed handle: those whose word splices
    (string bodies over labels that splice), and the others (string bodies
    with a label that does not, reversed handles, rank-1 and rank-3 bodies
    and handles, and rank-2 bodies with a rank-1 or a rank-3 edge)."""
    spliced = [P, Q, Division(P, string_graph([dollar(2), Q])), Product(handle(P))]
    other = [Product(string_graph([])), Product(_reversed(P))]
    by_rank = {1: [Primitive("r", 1)], 2: other, 3: [Primitive("t", 3)]}
    words, others = [], []
    for _ in range(3):
        made = []
        for _ in range(per_level):
            words.append(Product(string_graph(rng.choices(spliced, k=rng.randint(1, 3)))))
            x, y = rng.choice(spliced + other), rng.choice(spliced + other)
            mixed = rng.choices(spliced + other, k=rng.randint(0, 2)) + [rng.choice(other)]
            rng.shuffle(mixed)
            body = rng.choice([
                lambda: string_graph(mixed),
                lambda: _reversed(x),
                lambda: build_graph([0, 1], [(x, (0, 1))], (0,)),
                lambda: build_graph([0, 1, 2], [(x, (0, 1)), (y, (1, 2))], (0, 1, 2)),
                lambda: handle(rng.choice(by_rank[rng.choice((1, 3))])),
                lambda: build_graph([0, 1, 2], [(rng.choice(by_rank[3]), (0, 1, 2))], (0, 2)),
                lambda: build_graph([0, 1], [(x, (0, 1)), (rng.choice(by_rank[1]), (1,))], (0, 1)),
            ])()
            made.append(Product(body))
        spliced += words[-per_level:]
        others += made
        for t in made:
            by_rank[t.rank].append(t)
    return words, others


def test_word_keys_equal_the_flattened_keys():
    words, others = _nested_products(random.Random(8))
    for t in words + others:
        assert hlc.models._entry_key(t) == reference_entry_key(t), t
    assert all(hlc.models._word(t) is not None for t in words)
    assert all(hlc.models._word(t) is None for t in others)
    # A body that is not a string graph may still flatten to one.
    pq3 = Product(build_graph([0, 1, 2], [(P, (0, 1)), (Q, (1, 2))], (0, 1, 2)))
    flat_pq = Product(build_graph([0, 1, 2], [(pq3, (0, 1, 2))], (0, 2)))
    for t in (flat_pq, Product(string_graph([flat_pq, P]))):
        assert hlc.models._entry_key(t) == reference_entry_key(t), t
    assert hlc.models._entry_key(flat_pq) == ("x", ("W", (P.canon_key(), Q.canon_key())))


def test_an_empty_nested_word_leaves_a_gap():
    """``×(ε)`` keeps its two external nodes apart, so ``p, ×(ε), p`` is
    not ``p·p``: under ``fixtures/w.val``'s valuation the sequent fails."""
    w = val(p=[string_graph([A]), string_graph([A, B])])
    s = Sequent(string_graph([P, Product(string_graph([])), P]), Product(string_graph([P, P])))
    assert sequent_holds(w, s) is False
    assert folded_holds(w, s) is reference_holds(w, s) is False


def test_shared_entries_keep_the_reference_verdicts():
    rng = random.Random(6)
    hp = Product(handle(P))
    reversed_p = build_graph([0, 1], [(P, (1, 0))], (0, 1))  # not a handle: att is ext reversed
    sequents = [
        Sequent(handle(P), Product(reversed_p)),
        Sequent(reversed_p, hp),
        Sequent(string_graph([P, PQ]), LEFT),
        Sequent(string_graph([Product(string_graph([P, P])), Q]), RIGHT),
        Sequent(string_graph([P, P, Q]), RIGHT),
        Sequent(string_graph([P, Q]), Product(string_graph([Q, P]))),
        Sequent(string_graph([Q, P, Q]), RIGHT),
        Sequent(handle(hp), P),
        Sequent(handle(P), hp),
        Sequent(string_graph([hp, Q]), Product(string_graph([Q, hp]))),
    ]
    verdicts = set()
    for s in sequents:
        for _ in range(6):
            w = random_valuation(rng, sequent_primitives(s), max_edges=1)
            verdict = sequent_holds(w, s)
            assert verdict is folded_holds(w, s) is reference_holds(w, s), s
            verdicts.add(verdict)
    assert verdicts == {True, False}


DUPLICATE = Valuation(
    alphabet=(A, B), assignment=((P, (string_graph([A]),)), (P, (string_graph([B]),)))
)
WRONG_RANK = Valuation(alphabet=(A, B), assignment=((P, (build_graph([0], [], (0,)),)),))


@pytest.mark.parametrize(
    "w, s, message",
    [
        (DUPLICATE, Sequent(handle(P), P), r"invalid valuation: p/2: assigned more than once"),
        (WRONG_RANK, Sequent(string_graph([P, P]), FLAT), r"invalid valuation: p/2: rank mismatch"),
        (WRONG_RANK, Sequent(string_graph([P, P, Q]), FLAT), r"invalid valuation: p/2: rank mismatch"),
        (
            val(p=[string_graph([A])]),
            Sequent(string_graph([dollar(2)]), P),
            r"invalid sequent: antecedent edge 0 labeled \$",
        ),
    ],
    ids=[
        "primitive assigned twice",
        "graph of the wrong rank",
        "graph of the wrong rank, both sides one entry",
        "dollar in the antecedent",
    ],
)
def test_malformed_inputs_raise_at_the_entry_point(w, s, message):
    with pytest.raises(ValueError, match=message):
        sequent_holds(w, s)
    if validate_valuation(w) is not None:
        with pytest.raises(ValueError, match=message):
            denotation_contains(w, P, string_graph([A]))
        with pytest.raises(ValueError, match=message):
            denotation_enumerate(w, Product(handle(P)))


def test_valuation_report_is_cached_on_the_valuation(monkeypatch):
    calls = []

    def counting(w):
        calls.append(w)
        return report(w)

    report = hlc.models._valuation_report
    monkeypatch.setattr(hlc.models, "_valuation_report", counting)
    good = val(p=[string_graph([A])])
    twice = Valuation(alphabet=DUPLICATE.alphabet, assignment=DUPLICATE.assignment)
    for _ in range(2):
        assert sequent_holds(good, Sequent(handle(P), P)) is True
        with pytest.raises(ValueError, match="assigned more than once"):
            sequent_holds(twice, Sequent(handle(P), P))
    assert calls == [good, twice]


def test_model_checkable_is_the_gate_of_sequent_holds():
    """``sequent_holds`` answers UNDECIDED exactly where ``model_checkable``
    says no, and the suites use the same gate."""
    import hlc.suites

    assert hlc.suites.model_checkable is model_checkable
    rng = random.Random(0)
    seen = set()
    for ants, succ in enumerate_lambek_corpus(max_each=1, max_succ=1, max_len=2):
        s = translate_lsequent(ants, succ)
        checkable = model_checkable(s)
        assert checkable == (
            is_enumerable(Product(s.antecedent)) and contains_decidable(s.succedent)
        )
        verdict = sequent_holds(random_valuation(rng, sequent_primitives(s)), s)
        assert (verdict is not UNDECIDED) == checkable
        seen.add(checkable)
    assert seen == {True, False}
