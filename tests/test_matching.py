from __future__ import annotations

import itertools
import math
import random

from hlc import hltypes, matching
from hlc.canon import canonical_key, isomorphic
from hlc.graphs import (
    Hypergraph,
    build_graph,
    dollar,
    handle,
    handle_label,
    replace,
    replace_all,
    string_graph,
    validate,
)
from hlc.hltypes import (
    NODES,
    Division,
    Primitive,
    Product,
    add_counts,
    dollar_edge,
    pack_counts,
    primitive_counts,
)
from hlc.matching import Tally, enumerate_context_extractions, enumerate_decompositions

P = Primitive("p", 2)
Q = Primitive("q", 2)
R = Primitive("r", 2)
S = Primitive("s", 2)
T = Primitive("t", 2)
U = Primitive("u", 2)
P1, Q1, S0 = Primitive("p", 1), Primitive("q", 1), Primitive("s", 0)
Q2 = Division(P1, build_graph([0, 1], [(dollar(1), (0,)), (P1, (1,))], (0,)))
Q3 = Division(S0, build_graph([0, 1], [(dollar(1), (0,)), (P1, (1,))], ()))
DIV = Division(Q, string_graph([P, dollar(2)]))
DIV_WIDE = Division(Q, string_graph([dollar(2), P, Q]))
DIV_PQ = Division(P1, build_graph([0, 1, 2], [(dollar(1), (0,)), (P1, (1,)), (Q1, (2,))], (2,)))


def string_hosts(rng, count):
    """(host, pattern) pairs: strings of up to three and of one or two edges."""
    for _ in range(count):
        host = string_graph([rng.choice([P, Q, R]) for _ in range(rng.randint(0, 3))])
        yield host, string_graph([rng.choice([P, Q, R]) for _ in range(rng.randint(1, 2))])


def rank1_hosts(rng, count):
    """(host, pattern) pairs of rank-0 graphs with unary edges; a host node
    that no edge hits is isolated."""
    for _ in range(count):
        m = rng.randint(1, 3)
        host = build_graph(
            range(m),
            [(rng.choice([P1, Q1]), (rng.randrange(m),)) for _ in range(rng.randint(1, 4))],
            (),
        )
        if validate(host) is not None:
            continue
        yield host, build_graph(
            range(2), [(rng.choice([P1, Q1]), (i,)) for i in range(rng.randint(1, 2))], ()
        )


def string_division_hosts(rng, count):
    """(host, pivot, division) triples: a string around one division edge."""
    for _ in range(count):
        labels = [rng.choice([P, Q]) for _ in range(rng.randint(0, 3))]
        where = rng.randint(0, len(labels))
        d = rng.choice([DIV, DIV_WIDE])
        yield string_graph(labels[:where] + [d] + labels[where:]), where, d


def rank1_division_hosts(rng, count):
    """(host, pivot, division) triples at every division edge of rank-0 hosts
    with unary edges around a ``Q3`` edge."""
    for _ in range(count):
        m = rng.randint(2, 4)
        labels = [rng.choice([P1, Q2]) for _ in range(rng.randint(1, 3))]
        edges = [(Q3, (0,))] + [(l, (rng.randrange(m),)) for l in labels]
        host = build_graph(range(m), edges, ())
        for pivot in host.edges:
            if isinstance(host.lab[pivot], Division):
                yield host, pivot, host.lab[pivot]


def wide_division_hosts(rng, count):
    """(host, pivot, division) triples: unary edges on three to five nodes
    around a division whose denominator places two free nodes, one of them
    external, so that clusters often have several slots."""
    for _ in range(count):
        m = rng.randint(3, 5)
        edges = [(DIV_PQ, (0,))]
        edges += [(rng.choice([P1, Q1]), (rng.randrange(m),)) for _ in range(rng.randint(2, 5))]
        yield build_graph(range(m), edges, ()), 0, DIV_PQ


def with_isolated_nodes(host, k):
    top = max(host.nodes, default=-1)
    extra = tuple(range(top + 1, top + 1 + k))
    return Hypergraph(
        nodes=host.nodes + extra, edges=host.edges, att=host.att, lab=host.lab, ext=host.ext
    )


def reassemble_decomposition(pattern, dec):
    return replace_all(pattern, dict(dec.parts))


def reassemble_division(contracted, numerator_edge, div_type, parts):
    """``contracted[numerator_edge := D[$ := handle(N ÷ D), d := parts[d]]]``."""
    d = div_type.denominator
    filled = replace_all(d, {dollar_edge(d): handle(div_type), **parts})
    return replace(contracted, numerator_edge, filled)


def reassemble_extraction(div_type, extr):
    return reassemble_division(extr.contracted, extr.numerator_edge, div_type, extr.parts)


def decomposition_keys(host, pattern, **kw):
    return {
        tuple(canonical_key(dec.parts[m]) for m in sorted(pattern.edges))
        for dec in enumerate_decompositions(host, pattern, **kw)
    }


def _isolated_outside(host, phi):
    """The host nodes an oracle apportions: isolated, not images."""
    image = set(phi.values())
    return [v for v in host.nodes if v not in image and not host.incidences(v)]


def oracle_decomposition_keys(host, pattern):
    """Try every injective node map, every labeled edge partition and every
    way to give the isolated non-image host nodes, one by one, to parts; keep
    those whose reassembly reproduces the host."""
    keys = set()
    if host.rank != pattern.rank:
        return keys
    fixed = dict(zip(pattern.ext, host.ext))
    if len(set(fixed.values())) != len(fixed):
        return keys
    free = [v for v in pattern.nodes if v not in fixed]
    pat_edges = sorted(pattern.edges)
    for images in itertools.permutations(host.nodes, len(free)):
        phi = dict(fixed)
        phi.update(zip(free, images))
        if len(set(phi.values())) != len(phi):
            continue
        lonely = _isolated_outside(host, phi)
        for assignment in itertools.product(pat_edges, repeat=len(host.edges) + len(lonely)):
            part_edges = {m: set() for m in pat_edges}
            for he, m in zip(sorted(host.edges), assignment):
                part_edges[m].add(he)
            extra = {m: set() for m in pat_edges}
            for v, m in zip(lonely, assignment[len(host.edges):]):
                extra[m].add(v)
            parts = {}
            for m in pat_edges:
                ext = tuple(phi[u] for u in pattern.att[m])
                nodes = set(ext) | extra[m]
                for he in part_edges[m]:
                    nodes.update(host.att[he])
                parts[m] = Hypergraph(
                    nodes=tuple(sorted(nodes)),
                    edges=tuple(sorted(part_edges[m])),
                    att={he: host.att[he] for he in part_edges[m]},
                    lab={he: host.lab[he] for he in part_edges[m]},
                    ext=ext,
                )
            if any(validate(parts[m]) is not None for m in pat_edges):
                continue
            if isomorphic(replace_all(pattern, parts), host) is not None:
                keys.add(tuple(canonical_key(parts[m]) for m in pat_edges))
    return keys


def test_threeway_split_is_found():
    host = string_graph([Primitive(c, 2) for c in "pqrstu"])
    pattern = string_graph([Primitive(f"T{i}", 2) for i in (1, 2, 3)])
    wanted = tuple(
        canonical_key(string_graph([Primitive(a, 2), Primitive(b, 2)]))
        for a, b in (("p", "q"), ("r", "s"), ("t", "u"))
    )
    assert wanted in decomposition_keys(host, pattern)


def test_identity_decomposition():
    host = string_graph([P, Q])
    decs = list(enumerate_decompositions(host, host))
    identity = tuple(canonical_key(handle(l)) for l in (P, Q))
    assert identity in decomposition_keys(host, host)
    for dec in decs:
        assert isomorphic(reassemble_decomposition(host, dec), host) is not None


def test_single_pattern_edge_has_one_decomposition():
    host = string_graph([P, Q])
    pattern = build_graph([0, 1], [(Primitive("T", 2), (0, 1))], (0, 1))
    decs = list(enumerate_decompositions(host, pattern))
    assert len(decs) == 1
    assert isomorphic(decs[0].parts[0], host) is not None


def test_context_extraction_on_chain():
    # host = p r s T t u with T = q / (T2 $ T3): the extraction contracts to p q.
    t2, t3 = Primitive("T2", 2), Primitive("T3", 2)
    div = Division(Q, string_graph([t2, dollar(2), t3]))
    host = string_graph([P, R, S, div, T, U])
    found = False
    for extr in enumerate_context_extractions(host, 3, div):
        assert isomorphic(reassemble_extraction(div, extr), host) is not None
        parts = sorted(canonical_key(extr.parts[de]) for de in extr.parts)
        want = sorted((canonical_key(string_graph([R, S])), canonical_key(string_graph([T, U]))))
        if parts == want and isomorphic(extr.contracted, string_graph([P, Q])) is not None:
            found = True
    assert found


def test_trivial_extraction_from_dollar_handle():
    div = Division(P, handle(dollar(2)))
    host = handle(div)
    extractions = list(enumerate_context_extractions(host, 0, div))
    assert len(extractions) == 1
    assert isomorphic(extractions[0].contracted, handle(P)) is not None
    assert extractions[0].parts == {}


def test_flower_reduction_extraction():
    # Rank-1 helpers: a division whose hole sits next to a companion flower.
    p1, s0 = Primitive("p", 1), Primitive("s", 0)
    q2 = Division(p1, build_graph([0, 1], [(dollar(1), (0,)), (p1, (1,))], (0,)))
    q3 = Division(s0, build_graph([0, 1], [(dollar(1), (0,)), (p1, (1,))], ()))
    host = build_graph([0, 1, 2], [(q3, (0,)), (q2, (1,)), (p1, (2,))], ())
    results = list(enumerate_context_extractions(host, 1, q2))
    assert results
    contracted_targets = [
        extr
        for extr in results
        if isomorphic(
            extr.contracted, build_graph([0, 1], [(q3, (0,)), (p1, (1,))], ())
        )
        is not None
    ]
    assert contracted_targets
    for extr in results:
        assert isomorphic(reassemble_extraction(q2, extr), host) is not None


def test_extraction_reassembly_random():
    rng = random.Random(2)
    div = Division(Q, string_graph([P, dollar(2)]))
    for _ in range(30):
        prefix = [Primitive(rng.choice("pqr"), 2) for _ in range(rng.randint(0, 2))]
        suffix = [Primitive(rng.choice("pqr"), 2) for _ in range(rng.randint(0, 2))]
        host = string_graph(prefix + [P, div] + suffix)
        pivot = len(prefix) + 1
        for extr in enumerate_context_extractions(host, pivot, div):
            assert isomorphic(reassemble_extraction(div, extr), host) is not None


def test_decompositions_match_oracle_small():
    rng = random.Random(3)
    for host, pattern in string_hosts(rng, 40):
        assert decomposition_keys(host, pattern) == oracle_decomposition_keys(host, pattern)


def test_decompositions_match_oracle_rank1():
    rng = random.Random(4)
    for host, pattern in rank1_hosts(rng, 30):
        assert decomposition_keys(host, pattern) == oracle_decomposition_keys(host, pattern)


def test_decompositions_with_isolated_nodes_match_oracle():
    rng = random.Random(5)
    found = 0
    for host, pattern in [*string_hosts(rng, 25), *rank1_hosts(rng, 15)]:
        host = with_isolated_nodes(host, rng.randint(1, 2))
        keys = decomposition_keys(host, pattern)
        assert keys == oracle_decomposition_keys(host, pattern)
        found += bool(keys)
    assert found > 10


def extraction_keys(host, pivot, div_type, **kw):
    return {
        (
            canonical_key(extr.contracted),
            tuple(canonical_key(extr.parts[de]) for de in sorted(extr.parts)),
        )
        for extr in enumerate_context_extractions(host, pivot, div_type, **kw)
    }


def oracle_extraction_keys(host, pivot, div_type):
    """Try every hole-respecting injective map and every way to split the
    remaining edges and, one by one, the isolated non-image host nodes
    between denominator parts and the outside; keep those whose reassembly
    reproduces the host."""
    d = div_type.denominator
    hole = dollar_edge(d)
    d_edges = sorted(e for e in d.edges if e != hole)
    keys = set()
    fixed = dict(zip(d.att[hole], host.att[pivot]))
    if len(set(fixed.values())) != len(fixed):
        return keys
    free = [v for v in d.nodes if v not in fixed]
    others = [e for e in sorted(host.edges) if e != pivot]
    for images in itertools.permutations(host.nodes, len(free)):
        phi = dict(fixed)
        phi.update(zip(free, images))
        if len(set(phi.values())) != len(phi):
            continue
        lonely = _isolated_outside(host, phi)
        for assignment in itertools.product([*d_edges, None], repeat=len(others) + len(lonely)):
            part_edges = {de: set() for de in d_edges}
            outside = set()
            for he, slot in zip(others, assignment):
                if slot is None:
                    outside.add(he)
                else:
                    part_edges[slot].add(he)
            extra = {de: set() for de in d_edges}
            for v, slot in zip(lonely, assignment[len(others):]):
                if slot is not None:
                    extra[slot].add(v)
            parts = {}
            bad = False
            consumed = {phi[v] for v in d.nodes if v not in set(d.ext)}
            for de in d_edges:
                ext = tuple(phi[u] for u in d.att[de])
                nodes = set(ext) | extra[de]
                for he in part_edges[de]:
                    nodes.update(host.att[he])
                consumed.update(nodes - set(phi.values()))
                parts[de] = Hypergraph(
                    nodes=tuple(sorted(nodes)),
                    edges=tuple(sorted(part_edges[de])),
                    att={he: host.att[he] for he in part_edges[de]},
                    lab={he: host.lab[he] for he in part_edges[de]},
                    ext=ext,
                )
                if validate(parts[de]) is not None:
                    bad = True
            if bad:
                continue
            kept = [v for v in host.nodes if v not in consumed]
            fresh = max(host.edges) + 1
            att = {he: host.att[he] for he in outside}
            lab = {he: host.lab[he] for he in outside}
            att[fresh] = tuple(phi[v] for v in d.ext)
            lab[fresh] = div_type.numerator
            contracted = Hypergraph(
                nodes=tuple(sorted(kept)),
                edges=tuple(sorted(att)),
                att=att,
                lab=lab,
                ext=host.ext,
            )
            if validate(contracted) is not None:
                continue
            try:
                composite = reassemble_division(contracted, fresh, div_type, parts)
            except (KeyError, ValueError):
                continue
            if isomorphic(composite, host) is not None:
                keys.add(
                    (canonical_key(contracted), tuple(canonical_key(parts[de]) for de in d_edges))
                )
    return keys


def test_extractions_match_oracle_small():
    rng = random.Random(6)
    for host, pivot, d in string_division_hosts(rng, 25):
        assert extraction_keys(host, pivot, d) == oracle_extraction_keys(host, pivot, d)


def test_extractions_match_oracle_rank1():
    rng = random.Random(12)
    for host, pivot, d in rank1_division_hosts(rng, 25):
        assert extraction_keys(host, pivot, d) == oracle_extraction_keys(host, pivot, d)


def test_extractions_with_isolated_nodes_match_oracle():
    rng = random.Random(13)
    found = 0
    for host, pivot, d in [*string_division_hosts(rng, 20), *rank1_division_hosts(rng, 15)]:
        padded = with_isolated_nodes(host, rng.randint(1, 2))
        keys = extraction_keys(padded, pivot, d)
        assert keys == oracle_extraction_keys(padded, pivot, d)
        # Each isolated node can join a part or stay, so it multiplies the keys.
        found += len(keys) > len(extraction_keys(host, pivot, d))
    assert found > 10


def test_determinism_on_isomorphic_hosts():
    from tests.test_canon import permute

    rng = random.Random(9)
    div = Division(Q, string_graph([P, dollar(2)]))
    host = string_graph([P, P, div, Q])
    twin = permute(host, rng)
    pattern = string_graph([Primitive("X", 2), Primitive("Y", 2)])
    assert len(list(enumerate_decompositions(host, pattern))) == len(
        list(enumerate_decompositions(twin, pattern))
    )
    pivot = next(e for e in host.edges if isinstance(host.lab[e], Division))
    twin_pivot = next(e for e in twin.edges if isinstance(twin.lab[e], Division))
    assert len(list(enumerate_context_extractions(host, pivot, div))) == len(
        list(enumerate_context_extractions(twin, twin_pivot, div))
    )


def test_isolated_node_joins_the_one_part():
    host = build_graph([0, 1, 2], [(P, (0, 1))], (0, 1))  # node 2 isolated
    pattern = build_graph([0, 1], [(Primitive("T", 2), (0, 1))], (0, 1))
    decs = list(enumerate_decompositions(host, pattern))
    assert len(decs) == 1
    assert 2 in decs[0].parts[0].nodes
    assert isomorphic(reassemble_decomposition(pattern, decs[0]), host) is not None


def test_isolated_nodes_are_apportioned_by_count():
    """``k`` isolated nodes against ``s`` rank-0 edges on no nodes: one
    decomposition per count vector, C(k + s - 1, s - 1) of them, each of
    which reassembles to the host."""
    for k in range(5):
        for s in range(1, 5):
            host = build_graph(range(k), [], ())
            pattern = build_graph([], [(Primitive(f"T{i}", 0), ()) for i in range(s)], ())
            decs = list(enumerate_decompositions(host, pattern))
            assert len(decs) == math.comb(k + s - 1, s - 1)
            counts = {tuple(len(dec.parts[m].nodes) for m in sorted(pattern.edges)) for dec in decs}
            assert len(counts) == len(decs)
            for dec in decs:
                assert isomorphic(reassemble_decomposition(pattern, dec), host) is not None


def test_rank_mismatch_yields_nothing():
    host = string_graph([P])
    pattern = build_graph([0], [(Primitive("T", 1), (0,))], (0,))
    assert list(enumerate_decompositions(host, pattern)) == []


def recount(x) -> dict:
    """The counts of a type, label or graph by their definition in
    ``hlc.hltypes``, found afresh with nothing read from or written to a
    cache: +1 per primitive ``p`` for ``p``, ``#N - #D`` for ``N / D``,
    ``#M`` for ``x(M)``, and for a graph the sum over its labels plus
    ``|V| - |ext|`` under ``NODES``.  Zero counts are left out."""
    acc: dict = {}

    def add(counts, sign=1):
        for key, n in counts.items():
            acc[key] = acc.get(key, 0) + sign * n

    if isinstance(x, Hypergraph):
        add({NODES: len(x.nodes) - len(x.ext)})
        for e in x.edges:
            add(recount(x.lab[e]))
    elif isinstance(x, Primitive):
        add({("p", x.name, x.rank): 1})
    elif isinstance(x, Division):
        add(recount(x.numerator))
        add(recount(x.denominator), -1)
    elif isinstance(x, Product):
        add(recount(x.body))
    return {key: n for key, n in acc.items() if n}


def _balanced(parts, labels):
    return all(recount(parts[k]) == recount(labels[k]) for k in parts)


def pruned_at_uncut_leaves(
    host, pattern, slot_order, fixed, instances, *, pivot, consumed_dom, whole
):
    """What ``Tally.pruned`` counts: of the untyped ``(phi, part_edges,
    parts)`` instances, grouped by embedding and part edges (one group per
    slot assignment of the clusters, whatever the isolated nodes do), the
    groups with no all-balanced instance whose embedding the reference
    closed-slot cut keeps (a cut embedding is never offered to the slot
    check)."""
    known, cut, balanced = {}, {}, {}
    for phi, part_edges, parts in instances:
        key = tuple(sorted(phi.items()))
        group = (key, tuple(sorted(part_edges.items())))
        balanced[group] = balanced.get(group, False) or _balanced(parts, pattern.lab)
        if key not in cut:
            cut[key] = _reference_closed_cut(
                host, pattern, slot_order, fixed, phi,
                pivot=pivot, consumed_dom=consumed_dom, whole=whole, known=known,
            )
    return sum(not ok and not cut[group[0]] for group, ok in balanced.items())


def _check_typed_decompositions(host, pattern):
    """Typed keys are the untyped keys of all-balanced instances, and the tally
    counts exactly the cluster assignments with no balanced instance whose
    embedding the closed-slot cut keeps."""
    untyped = list(enumerate_decompositions(host, pattern))
    tally = Tally()
    typed = list(enumerate_decompositions(host, pattern, typed=tally))
    kept = [dec for dec in untyped if _balanced(dec.parts, pattern.lab)]
    assert [_item_fields(dec) for dec in typed] == [_item_fields(dec) for dec in kept]
    assert tally.pruned == pruned_at_uncut_leaves(
        host, pattern, sorted(pattern.edges), dict(zip(pattern.ext, host.ext)),
        [(dec.node_map, dec.part_edges, dec.parts) for dec in untyped],
        pivot=None, consumed_dom=[], whole=True,
    )
    assert decomposition_keys(host, pattern, typed=Tally()) == {
        tuple(canonical_key(dec.parts[m]) for m in sorted(pattern.edges)) for dec in kept
    }
    return len(kept), tally.pruned, tally.closed


def _check_typed_extractions(host, pivot, div_type):
    d = div_type.denominator
    hole = dollar_edge(d)
    untyped = list(enumerate_context_extractions(host, pivot, div_type))
    tally = Tally()
    typed = list(enumerate_context_extractions(host, pivot, div_type, typed=tally))
    kept = [x for x in untyped if _balanced(x.parts, d.lab)]
    assert [_item_fields(x) for x in typed] == [_item_fields(x) for x in kept]
    assert tally.pruned == pruned_at_uncut_leaves(
        host, d, sorted(e for e in d.edges if e != hole), dict(zip(d.att[hole], host.att[pivot])),
        [(x.phi, x.part_edges, x.parts) for x in untyped],
        pivot=pivot, consumed_dom=[v for v in d.nodes if v not in d.ext], whole=False,
    )
    assert extraction_keys(host, pivot, div_type, typed=Tally()) == {
        (canonical_key(x.contracted), tuple(canonical_key(x.parts[de]) for de in sorted(x.parts)))
        for x in kept
    }
    return len(kept), tally.pruned, tally.closed


def test_typed_decompositions_match_filtered_untyped():
    rng = random.Random(3)
    kept = pruned = 0
    for pad in (0, 1):
        for host, pattern in [*string_hosts(rng, 40), *rank1_hosts(rng, 30)]:
            k, s, _ = _check_typed_decompositions(with_isolated_nodes(host, pad), pattern)
            kept, pruned = kept + k, pruned + s
    assert kept > 0 and pruned > 0


def test_typed_extractions_match_filtered_untyped():
    rng = random.Random(6)
    kept = pruned = 0
    for pad in (0, 1):
        for host, pivot, d in [*string_division_hosts(rng, 25), *rank1_division_hosts(rng, 25)]:
            k, s, _ = _check_typed_extractions(with_isolated_nodes(host, pad), pivot, d)
            kept, pruned = kept + k, pruned + s
    # Both leaves (the p node on 1 or on 2) fail the slot check's up-front
    # comparison: the p slot is offered only by the single-slot clusters at
    # the p node's image, and their q edges cannot fill it.  The closed-slot
    # cut stops above the leaves, so their six assignments count as pruned.
    host = build_graph([0, 1, 2], [(DIV_PQ, (0,)), (Q1, (1,)), (Q1, (2,)), (Q1, (2,))], ())
    assert _check_typed_extractions(host, 0, DIV_PQ) == (0, 6, 0)
    # With nodes 1 and 2 on host 1 and 2, the s slot is closed and the cluster
    # of t and p through host node 3 offers only s.  Node 2 is on closed slots
    # only, but it is external, so it seals nothing: node 3 on host 3 splits
    # the cluster, t goes to the t slot, and p, touching no consumed node,
    # stays outside.  Had node 2 sealed it, s would sum t + p + s and be cut.
    # The other leaves are decided by the slot check.
    d = build_graph([0, 1, 2, 3], [(dollar(1), (0,)), (S, (1, 2)), (T, (1, 3))], (2, 3))
    div = Division(Q, d)
    host = build_graph([0, 1, 2, 3], [(div, (0,)), (T, (1, 3)), (P, (3, 2)), (S, (1, 2))], ())
    assert _check_typed_extractions(host, 0, div) == (1, 5, 0)
    assert kept > 0 and pruned > 0


# A test-only copy of the enumerator that the incremental search replaced:
# every injective extension of the fixed map, each walked from the host's
# first edge, stopped at the first slotless cluster, with the typed check
# summing count dicts, recounted from the definition, instead of packed
# integers.


def _reference_cluster_counts(host, edges, interior, known):
    """A cluster's counts: its edges' labels and its interior nodes."""
    key = (edges, len(interior))
    counts = known.get(key)
    if counts is None:
        acc = {}
        for e in edges:
            add_counts(acc, recount(host.lab[e]).items())
        if interior:
            add_counts(acc, [(NODES, len(interior))])
        counts = known[key] = tuple(acc.items())
    return counts


def _brute_choices(slot_lists, weights, targets, lonely_slots=(), lonely=0):
    """Every choice in product order, each followed by every apportionment of
    ``lonely`` isolated nodes to ``lonely_slots`` in
    ``combinations_with_replacement`` order, whose per-slot sums of count
    dicts (an isolated node counts one node) equal the ``targets``; and the
    number of choices that have an apportionment but no kept one."""
    apportionments = list(itertools.combinations_with_replacement(lonely_slots, lonely))
    kept, skipped = [], 0
    for choice in itertools.product(*slot_lists):
        hit = False
        for extra in apportionments:
            sums = {t: {} for t in targets}
            for slot, w in zip(choice + extra, [*weights, *[((NODES, 1),)] * lonely]):
                if slot is not None:
                    add_counts(sums[slot], w)
            if sums == targets:
                kept.append(choice + extra)
                hit = True
        skipped += bool(apportionments) and not hit
    return kept, skipped


def _reference_choices(slot_lists, weights, targets, typed, lonely_slots, lonely):
    if typed is None:
        return (
            choice + extra
            for choice in itertools.product(*slot_lists)
            for extra in itertools.combinations_with_replacement(lonely_slots, lonely)
        )
    kept, skipped = _brute_choices(slot_lists, weights, targets, lonely_slots, lonely)
    typed.pruned += skipped
    return iter(kept)


def _reference_injective_maps(host, fixed, dom, forbidden):
    if len(set(fixed.values())) != len(fixed):
        return
    remaining = [v for v in dom if v not in fixed]
    used = set(fixed.values())
    for images in itertools.product(host.nodes, repeat=len(remaining)):
        if len(set(images)) == len(images) and used.isdisjoint(images) and not any(
            t in forbidden.get(v, ()) for v, t in zip(remaining, images)
        ):
            yield {**fixed, **dict(zip(remaining, images))}


def _reference_clusters(host, image, pivot):
    att, incidences = host.att, host._incidence_map()
    seen = {pivot}
    for start in host.edges:
        if start in seen:
            continue
        seen.add(start)
        stack, edges, hits, interior = [start], [], set(), set()
        while stack:
            e = stack.pop()
            edges.append(e)
            for v in att[e]:
                if v in image:
                    hits.add(v)
                elif v not in interior:
                    interior.add(v)
                    for f, _ in incidences[v]:
                        if f not in seen:
                            seen.add(f)
                            stack.append(f)
        yield frozenset(edges), frozenset(hits), interior


def _reference_closed_cut(
    host, pattern, slot_order, fixed, phi, *, pivot, consumed_dom, whole, known
):
    """Whether the closed-slot cut removes a proper prefix of the full
    embedding ``phi``, stated afresh: at each depth above the leaf where the
    closed slots or the sealers change, the prefix's clusters are found from
    scratch, and a closed slot whose every offering cluster has that one slot
    and touches a sealer's image must sum, in count dicts, to its label's
    counts, less the nodes of at most as many isolated host nodes as the host
    has.  Unless ``whole``, a cluster touching no consumed node may stay
    outside, and only consumed nodes seal."""
    free = sorted(v for v in pattern.nodes if v not in fixed)
    host_ext = frozenset(host.ext)
    incidences = host._incidence_map()
    spare = sum(v not in incidences and v not in host_ext for v in host.nodes)
    previous = None
    for k in range(len(free)):
        rest = set(free[k:])
        closed = [m for m in slot_order if rest.isdisjoint(pattern.att[m])]
        sealers = {
            b for b in pattern.nodes
            if b not in rest
            and (whole or b in consumed_dom)
            and all(m in closed for m in slot_order if b in pattern.att[m])
        }
        changed, previous = (closed, sealers) != previous, (closed, sealers)
        if not changed or not closed:
            continue
        prefix = {v: t for v, t in phi.items() if v not in rest}
        seal_img = {prefix[b] for b in sealers}
        consumed_img = {prefix[v] for v in consumed_dom if v in prefix}
        att_sets = {m: {prefix[u] for u in pattern.att[m] if u in prefix} for m in slot_order}
        sums = {m: {} for m in closed}
        for edges, hits, interior in _reference_clusters(host, set(prefix.values()), pivot):
            slots = []
            if host_ext.isdisjoint(interior):
                slots = [m for m in slot_order if hits <= att_sets[m]]
            if not whole and hits.isdisjoint(consumed_img):
                slots.append(None)
            for m in slots:
                if m not in sums:
                    continue
                if len(slots) > 1 or hits.isdisjoint(seal_img):
                    sums[m] = None
                elif sums[m] is not None:
                    add_counts(sums[m], _reference_cluster_counts(host, edges, interior, known))
        for m, total in sums.items():
            if total is None:
                continue
            gap = recount(pattern.lab[m])
            add_counts(gap, total.items(), -1)
            if gap and (set(gap) != {NODES} or not 0 < gap[NODES] <= spare):
                return True
    return False


def _reference_instances(
    host, pattern, slot_order, fixed, *,
    pivot, consumed_dom, typed, whole, walked, choices, yielding,
):
    host_ext = frozenset(host.ext)
    if any(fixed.get(v) in host_ext for v in consumed_dom):
        return
    incidences = host._incidence_map()
    isolated = [v for v in host.nodes if v not in incidences and v not in host_ext]
    lonely_slots = list(slot_order) if whole else [*slot_order, None]
    edge_ids = sorted(slot_order)
    targets = None
    if typed is not None:
        targets = {m: recount(pattern.lab[m]) for m in edge_ids}
    known: dict = {}
    forbidden = {v: host_ext for v in consumed_dom}
    for phi in _reference_injective_maps(host, fixed, sorted(pattern.nodes), forbidden):
        walked.append(phi)
        consumed_img = {phi[v] for v in consumed_dom}
        image = set(phi.values())
        lonely = [v for v in isolated if v not in image]
        att_sets = {m: {phi[u] for u in pattern.att[m]} for m in slot_order}
        clusters, slot_lists = [], []
        for edges, hits, interior in _reference_clusters(host, image, pivot):
            slots = []
            if host_ext.isdisjoint(interior):
                slots = [m for m in slot_order if hits <= att_sets[m]]
            if not whole and hits.isdisjoint(consumed_img):
                slots.append(None)
            if not slots:
                break
            clusters.append((edges, interior))
            slot_lists.append(slots)
        else:
            if typed is not None and _reference_closed_cut(
                host, pattern, slot_order, fixed, phi,
                pivot=pivot, consumed_dom=consumed_dom, whole=whole, known=known,
            ):
                continue
            weights = None
            if typed is not None:
                weights = [_reference_cluster_counts(host, c, i, known) for c, i in clusters]
            runs = choices(slot_lists, weights, targets, typed, lonely_slots, len(lonely))
            for k, choice in enumerate(runs):
                if k == 0:
                    yielding[0] += 1  # an embedding that yields at least one item
                part_edges = {m: set() for m in edge_ids}
                extra_nodes = {m: set() for m in edge_ids}
                outside, consumed = set(), set(consumed_img)
                for (edges, interior), m in zip(clusters, choice):
                    if m is None:
                        outside.update(edges)
                    else:
                        part_edges[m].update(edges)
                        consumed.update(interior)
                for v, m in zip(lonely, choice[len(clusters):]):
                    if m is not None:
                        extra_nodes[m].add(v)
                        consumed.add(v)
                frozen = {m: frozenset(part_edges[m]) for m in edge_ids}
                parts = {
                    m: matching._subgraph(
                        host, frozen[m], tuple(phi[u] for u in pattern.att[m]), extra_nodes[m]
                    )
                    for m in edge_ids
                }
                yield phi, parts, frozen, outside, consumed


def _graph_fields(g):
    """A graph as plain data, dict orders included (graphs compare by identity)."""
    return g.nodes, g.edges, list(g.att.items()), list(g.lab.items()), g.ext


def _item_fields(item):
    if isinstance(item, matching.Decomposition):
        phi, extra = item.node_map, ()
    else:
        phi = item.phi
        extra = (item.pivot, _graph_fields(item.contracted), item.numerator_edge)
    parts = [(m, _graph_fields(g)) for m, g in item.parts.items()]
    part_edges = [(m, sorted(e), list(e)) for m, e in item.part_edges.items()]
    return list(phi.items()), parts, part_edges, extra


def test_incremental_search_equals_reference(monkeypatch):
    """Both enumerators yield the reference's items in the reference's order,
    with the same ``pruned``; the packed typed check agrees with the
    reference's count dicts.  Slot assignment runs once per reference
    embedding whose every cluster has a slot and whose prefixes the
    reference closed-slot cut keeps, so no leaf is wasted."""
    choice_runs = [0]

    def counted(choices):
        def run(*args):
            choice_runs[0] += 1
            return choices(*args)

        return run

    monkeypatch.setattr(matching, "_choices", counted(matching._choices))
    incremental = matching._instances
    walked: list = []
    yielding = [0]

    def reference(*args, **kw):
        return _reference_instances(
            *args, walked=walked, choices=counted(_reference_choices), yielding=yielding, **kw
        )

    rng = random.Random(21)
    cases = []
    for host, pattern in [*string_hosts(rng, 25), *rank1_hosts(rng, 25)]:
        cases.append((enumerate_decompositions, host, (pattern,), {}))
    for host, pivot, d in [
        *string_division_hosts(rng, 25),
        *rank1_division_hosts(rng, 25),
        *wide_division_hosts(rng, 8),
    ]:
        for whole in (False, True):
            cases.append((enumerate_context_extractions, host, (pivot, d), {"whole": whole}))
    totals = {"items": 0, "pruned": 0, "closed": 0, "leaves": 0, "yielding": 0, "whole": 0}
    for enumerate_, host, args, kw in cases:
        for k in range(3):
            padded = with_isolated_nodes(host, k)
            for typed in (False, True):
                runs = []
                for instances in (reference, incremental):
                    monkeypatch.setattr(matching, "_instances", instances)
                    tally = Tally() if typed else None
                    before = choice_runs[0]
                    items = enumerate_(padded, *args, typed=tally, **kw)
                    fields = [_item_fields(item) for item in items]
                    runs.append((fields, tally and tally.pruned, choice_runs[0] - before))
                assert runs[1] == runs[0]
                totals["items"] += len(runs[0][0])
                totals["whole"] += len(runs[0][0]) if kw.get("whole") else 0
                totals["pruned"] += runs[0][1] or 0
                totals["closed"] += tally.closed if typed else 0
                totals["leaves"] += runs[0][2]
                totals["yielding"] += yielding[0]
                yielding[0] = 0
    assert totals["items"] > 1000 and totals["pruned"] > 100 and totals["closed"] > 0
    assert totals["whole"] > 50
    # The reference walked embeddings that the incremental search never reaches,
    # and some leaves that reach slot assignment yield nothing.
    assert len(walked) > totals["leaves"] > totals["yielding"] > 0


def test_whole_contexts_are_the_extractions_that_contract_to_a_handle():
    """With ``whole``, the enumerator yields, in the same order, exactly the
    extractions of the full enumeration whose contracted graph is the
    numerator's handle: its one edge on the host's external nodes in order,
    and no other node.  Typed, it keeps the balanced ones among them."""
    rng = random.Random(23)
    sgr_q = Division(S, string_graph([dollar(2), S, P]))
    cases = [
        *string_division_hosts(rng, 40),
        *rank1_division_hosts(rng, 40),
        *wide_division_hosts(rng, 8),
    ]
    words = [[rng.choice([sgr_q, S, P]) for _ in range(rng.randint(1, 6))] for _ in range(30)]
    words += [[sgr_q] * a + [S] + [P] * b for a in range(4) for b in range(4)]
    for labels in words:
        host = string_graph(labels)
        cases += [(host, e, sgr_q) for e in host.edges if host.lab[e] == sgr_q]
    seen = {"whole": 0, "other": 0, "typed": 0}

    def fields(item):  # phi is compared as a map: whole contexts fix more of it
        phi, *rest = _item_fields(item)
        return sorted(phi), rest

    for host, pivot, div in cases:
        for k in range(2):
            padded = with_isolated_nodes(host, k)
            for typed in (False, True):
                every = list(enumerate_context_extractions(
                    padded, pivot, div, typed=Tally() if typed else None
                ))
                want = [
                    fields(x) for x in every
                    if handle_label(x.contracted) == div.numerator
                ]
                got = list(enumerate_context_extractions(
                    padded, pivot, div, typed=Tally() if typed else None, whole=True
                ))
                assert [fields(x) for x in got] == want
                seen["whole"] += len(want)
                seen["other"] += len(every) - len(want)
                seen["typed"] += typed and len(want)
    assert min(seen.values()) > 20


def test_closed_slots_leave_one_leaf_per_extraction(monkeypatch):
    """``q^30 s p^30 |- s`` takes 30 division eliminations.  Asked at each of
    their conclusions and pivots, the full typed enumeration, the closed-slot
    cut leaves each extraction one leaf to decide: the first whose s part
    balances, which yields the derivation's instance.  (The prover asks only
    for whole contexts at these primitive-numerator pivots, which leave the
    cut nothing to remove, so the enumerator is called here directly.)"""
    from hlc.calculus import DIV_LEFT, DerivationTree, Prover, check_derivation
    from hlc.fixtures import build_sgr
    from hlc.hltypes import Sequent

    runs = [0]
    choices = matching._choices

    def counted(*args):
        runs[0] += 1
        return choices(*args)

    sgr = build_sgr()
    q, p, s = (t for _, t in sgr.correspondence)
    tree = Prover().derive(Sequent(string_graph([q] * 30 + [s] + [p] * 30), sgr.distinguished))
    assert isinstance(tree, DerivationTree)
    assert check_derivation(tree) is None
    steps = [node for node in tree.walk() if node.rule == DIV_LEFT]
    assert len(steps) == 30
    monkeypatch.setattr(matching, "_choices", counted)
    tally = Tally()
    for node in steps:
        g, pivot = node.conclusion.antecedent, node.rule_data.pivot_edge
        first = next(enumerate_context_extractions(g, pivot, g.lab[pivot], typed=tally))
        main, *parts = (premise.conclusion.antecedent for premise in node.premises)
        assert canonical_key(first.contracted) == canonical_key(main)
        assert [canonical_key(first.parts[de]) for de in sorted(first.parts)] == [
            canonical_key(part) for part in parts
        ]
    assert runs[0] == 30
    assert tally.closed > 0


def _copy(g):
    """A cold copy of ``g``: the same graph, with nothing cached on it."""
    return Hypergraph(nodes=g.nodes, edges=g.edges, att=dict(g.att), lab=dict(g.lab), ext=g.ext)


def _built_graphs(item):
    parts = list(item.parts.values())
    return parts if isinstance(item, matching.Decomposition) else [*parts, item.contracted]


def _typed_and_untyped_items(rng):
    """(typed, item) over the test hosts, extractions and decompositions,
    with and without isolated nodes."""
    cases = [(enumerate_decompositions, h, (m,)) for h, m in string_hosts(rng, 30)]
    cases += [(enumerate_decompositions, h, (m,)) for h, m in rank1_hosts(rng, 30)]
    for host, pivot, d in [
        *string_division_hosts(rng, 30),
        *rank1_division_hosts(rng, 30),
        *wide_division_hosts(rng, 8),
    ]:
        cases.append((enumerate_context_extractions, host, (pivot, d)))
    for enumerate_, host, args in cases:
        for k in range(2):
            padded = with_isolated_nodes(host, k)
            for typed in (False, True):
                tally = Tally() if typed else None
                for item in enumerate_(padded, *args, typed=tally):
                    yield typed, item


def test_built_graphs_carry_their_counts():
    """Every part and contracted graph is built with its connective count, and
    typed with its primitive counts, equal to a recount of a cold copy."""
    seen = {"typed": 0, "untyped": 0, "contracted": 0, "connectives": 0}
    for typed, item in _typed_and_untyped_items(random.Random(41)):
        for g in _built_graphs(item):
            cc, pc = hltypes._graph_counts(_copy(g))
            assert g.__dict__["_cc"] == cc
            if typed:
                assert g.__dict__["_pc"] == pc
            seen["typed" if typed else "untyped"] += 1
            seen["connectives"] += cc > 0
        seen["contracted"] += isinstance(item, matching.ContextExtraction)
    assert min(seen.values()) > 100


def _items_and_tally(calls):
    """The items and the tally of each ``(enumerate_, host, args, typed)`` call."""
    out = []
    for enumerate_, host, args, typed in calls:
        tally = Tally() if typed else None
        items = [_item_fields(item) for item in enumerate_(host, *args, typed=tally)]
        out.append((items, tally and (tally.pruned, tally.closed)))
    return out


def test_cached_setup_equals_cold_setup():
    """A host searched twice, and one graph used both as a product body and
    as a denominator, give the items and tallies of cold copies."""
    rng = random.Random(43)
    d = string_graph([dollar(2), P, Q])
    div = Division(Q, d)
    warm, cold = [], []
    for _ in range(12):
        labels = [rng.choice([P, Q]) for _ in range(rng.randint(1, 4))]
        where = rng.randint(0, len(labels))
        host = string_graph(labels[:where] + [div] + labels[where:])
        plain = string_graph(labels + [rng.choice([P, Q])])
        for typed in (True, False, True):
            warm += [
                (enumerate_context_extractions, host, (where, div), typed),
                (enumerate_decompositions, plain, (d,), typed),
                (enumerate_decompositions, host, (d,), typed),
            ]
            cold_div = Division(Q, _copy(d))
            cold_host = string_graph(labels[:where] + [cold_div] + labels[where:])
            cold += [
                (enumerate_context_extractions, cold_host, (where, cold_div), typed),
                (enumerate_decompositions, _copy(plain), (_copy(d),), typed),
                (enumerate_decompositions, _copy(host), (_copy(d),), typed),
            ]
    warm_runs, cold_runs = _items_and_tally(warm), _items_and_tally(cold)
    assert warm_runs == cold_runs
    assert len(d.__dict__["_match_roles"]) == 2  # one role per use of d
    assert sum(len(items) for items, _ in warm_runs) > 50
    assert sum(sum(tally) for _, tally in warm_runs if tally) > 0


def _old_places(edge_counts, target_counts, nodes):
    """The packing before its bound became the host's alone: the slot labels'
    primitives join the host's, and ``M`` also covers their largest count."""
    keys: set = set()
    bound = nodes
    for counts in edge_counts:
        for key, n in counts:
            keys.add(key)
            bound += abs(n)
    for counts in target_counts:
        for key, n in counts:
            keys.add(key)
            bound = max(bound, abs(n))
    keys.discard(NODES)
    base = 2 * bound + 1
    return {NODES: 1, **{key: base ** (i + 1) for i, key in enumerate(sorted(keys))}}


def test_unreachable_targets_match_the_old_packing(monkeypatch):
    """Slot labels with a primitive the host lacks, or with a count beyond the
    host's bound, pack to the unreachable target, and every search gives the
    items and tally it gave when such labels widened the packing instead."""
    p3 = Product(string_graph([P, P, P]))
    rng = random.Random(47)
    calls = []  # (enumerate_, host, args, slot labels)
    fills = {P: [[P]], Q: [[Q]], R: [[P], [Q]], p3: [[P, P, P], [P, P], [P]]}
    for _ in range(100):
        labels = [rng.choice([P, Q, R, p3]) for _ in range(rng.randint(1, 2))]
        pattern = string_graph(labels)
        # Fill each slot with a string of the host's labels, often a balanced one.
        host = string_graph([a for label in labels for a in rng.choice(fills[label])])
        calls.append((enumerate_decompositions, host, (pattern,), pattern.lab.values()))
    for _ in range(100):
        # R over R counts no R, so a host without another R edge lacks it.
        div = Division(R, string_graph([dollar(2), R, rng.choice([P, Q, p3])]))
        labels = [rng.choice([P, Q, R]) for _ in range(rng.randint(0, 3))]
        where = rng.randint(0, len(labels))
        host = string_graph(labels[:where] + [div] + labels[where:])
        calls.append((enumerate_context_extractions, host, (where, div), div.denominator.lab.values()))
    # Q then an edge counting -1 p and -2 nodes: with its middle node, the
    # host sums to 225 - 15 - 1 = 209 in places 1 (nodes), 15 (p) and 225 (q),
    # M = 7.  A label counting 13 p and 14 nodes (13 p edges in a string, and
    # two isolated nodes) would pack to 14 + 13 * 15 = 209 too, were its
    # counts not beyond M.
    minus_p = Division(S, string_graph([dollar(2), P, S]))
    p13 = Product(build_graph(range(16), [(P, (i, i + 1)) for i in range(13)], (0, 13)))
    aliased = string_graph([Q, minus_p])
    assert pack_counts(primitive_counts(p13), matching._host(_copy(aliased)).packing.places) == 209
    calls.append((enumerate_decompositions, aliased, (handle(p13),), [p13]))
    unreachable = [0]
    target = matching.pack_target

    def counted(counts, packed):
        value = target(counts, packed)
        unreachable[0] += value == packed.unreachable
        return value

    monkeypatch.setattr(matching, "pack_target", counted)
    new = _items_and_tally([(e, _copy(h), args, True) for e, h, args, _ in calls])
    monkeypatch.setattr(matching, "pack_target", target)
    slot_counts = {}

    def old_host(host):
        edge_counts = {e: primitive_counts(host.lab[e]) for e in host.edges}
        places = _old_places(edge_counts.values(), slot_counts[id(host)], len(host.nodes))
        incidences = host._incidence_map()
        return matching._Host(
            ext=frozenset(host.ext),
            isolated=[v for v in host.nodes if v not in incidences and v not in host.ext],
            # every slot label packs in the old places
            packing=hltypes.Packing(places, float("inf"), None),
            packs={e: pack_counts(c, places) for e, c in edge_counts.items()},
            ccs={e: hltypes.connective_count(host.lab[e]) for e in host.edges},
        )

    monkeypatch.setattr(matching, "_host", old_host)
    old_calls = []
    for enumerate_, host, args, labels in calls:
        host = _copy(host)
        slot_counts[id(host)] = [primitive_counts(label) for label in labels]
        old_calls.append((enumerate_, host, args, True))
    assert _items_and_tally(old_calls) == new
    assert unreachable[0] > 50
    assert sum(len(items) for items, _ in new) > 20
    assert sum(sum(tally) for _, tally in new) > 20


def test_matching_premises_are_never_recounted(monkeypatch):
    """In ``q^n s p^n |- s`` and its perturbations, no part or contracted
    graph that matching builds is walked by ``_graph_counts``."""
    from hlc import calculus
    from hlc.fixtures import build_sgr
    from hlc.hltypes import Sequent

    walked, built = [], []
    graph_counts = hltypes._graph_counts

    def recording(g):
        walked.append(g)
        return graph_counts(g)

    def collecting(enumerate_):
        def run(*args, **kw):
            for item in enumerate_(*args, **kw):
                built.extend(_built_graphs(item))
                yield item

        return run

    monkeypatch.setattr(hltypes, "_graph_counts", recording)
    for name in ("enumerate_context_extractions", "enumerate_decompositions"):
        monkeypatch.setattr(calculus, name, collecting(getattr(calculus, name)))
    sgr = build_sgr()
    q, p, s = (t for _, t in sgr.correspondence)
    types = {"q": q, "p": p, "s": s}
    verdicts = []
    # q^8 s p^8, q^12 s p^12, and a swap
    for word in ("q" * 8 + "s" + "p" * 8, "q" * 12 + "s" + "p" * 12, "qqqqqpsqppppp"):
        sequent = Sequent(string_graph([types[c] for c in word]), sgr.distinguished)
        verdicts.append(type(calculus.Prover().derive(sequent)))
    assert verdicts == [calculus.DerivationTree, calculus.DerivationTree, calculus.NotDerivable]
    assert len(built) > 50 and walked
    assert not {id(g) for g in built} & {id(g) for g in walked}


def test_choices_equal_filtered_product():
    """``_choices`` keeps what a brute-force filter over the product of the
    lists and every apportionment of the isolated nodes keeps, in the same
    order, and counts the choices it skips.  A weight ``w`` counts ``w``
    nodes, as a packed vector whose only component is the node count."""
    rng = random.Random(31)
    slots = [0, 1, 2]
    forced = multi = kept_total = lonely_total = 0
    for _ in range(600):
        lists = []
        for _ in range(rng.randint(0, 5)):
            options = [*slots, None]
            lists.append(rng.sample(options, rng.choice([1, 1, 2, 3, 4])))
        weights = [rng.randint(-1, 1) for _ in lists]
        targets = {m: rng.randint(-1, 2) for m in slots}
        lonely_slots = rng.choice([slots, [*slots, None]])
        lonely = rng.choice([0, 0, 1, 2, 3])
        tally = Tally()
        got = list(matching._choices(lists, weights, targets, tally, lonely_slots, lonely))
        want, skipped = _brute_choices(
            lists,
            [((NODES, w),) for w in weights],
            {m: {NODES: n} if n else {} for m, n in targets.items()},
            lonely_slots,
            lonely,
        )
        assert got == want
        assert tally.pruned == skipped
        untyped = list(matching._choices(lists, weights, None, None, lonely_slots, lonely))
        assert untyped == list(_reference_choices(lists, None, None, None, lonely_slots, lonely))
        forced += sum(len(options) == 1 for options in lists)
        multi += sum(len(options) > 1 for options in lists)
        kept_total += len(want)
        lonely_total += len(want) * lonely
    assert forced > 100 and multi > 100 and kept_total > 50 and lonely_total > 50
    # No slot takes an isolated node, so nothing is yielded or skipped.
    tally = Tally()
    assert list(matching._choices([], [], {}, tally, [], 2)) == [] and tally.pruned == 0
    assert list(matching._choices([], [], None, None, [], 2)) == []


def test_packing_is_injective_within_its_bound():
    keys = [NODES] + [("p", c, 2) for c in "abc"]
    for bound in (4, 5):
        # Host edges whose absolute counts sum to ``bound - 1``, and one node,
        # set M = bound.
        edges = [frozenset({(keys[1], 1)})] * (bound - 3)
        edges += [frozenset({(keys[2], -1)}), frozenset({(keys[3], 1)})]
        places, m, _ = matching._packing(edges, 1)
        assert m == bound
        base = 2 * bound + 1
        assert places[NODES] == 1
        assert sorted(places.values()) == [1, base, base**2, base**3]
        cube = list(itertools.product(range(-bound, bound + 1), repeat=len(keys)))
        vectors = [frozenset((k, n) for k, n in zip(keys, c) if n) for c in cube]
        packed = [pack_counts(v, places) for v in vectors]
        assert len(set(packed)) == len(vectors)
        too_small = {k: bound**i for i, k in enumerate(keys)}
        assert len({pack_counts(v, too_small) for v in vectors}) < len(vectors)
        rng = random.Random(bound)
        for _ in range(50):
            u, w = rng.choice(cube), rng.choice(cube)
            total = frozenset((k, a + b) for k, a, b in zip(keys, u, w) if a + b)
            assert pack_counts(total, places) == sum(
                pack_counts(frozenset(zip(keys, x)), places) for x in (u, w)
            )
