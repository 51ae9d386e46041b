"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` (or via
``scripts/run_acceptance.py``) for the one-line-per-criterion report.
"""

from __future__ import annotations

import random

from hlc.calculus import DerivationTree, Prover, normalize
from hlc.canon import canonical_form, isomorphic
from hlc.fixtures import hgr1_types, hgr1_witness, random_l1_graph
from hlc.graphs import (
    RankedLabel,
    dollar,
    handle,
    relabel,
    replace,
    replace_all,
    string_graph,
    validate,
)
from hlc.hltypes import Division, Product, Sequent
from hlc.suites import (
    run_allgraphs,
    run_bipartite,
    run_conversion,
    run_cut,
    run_embedding,
    run_sgr,
    run_soundness,
)
from tests.test_canon import brute_force_isomorphic, permute, random_graph


def _verdict(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def test_c01_sgr_language():
    report = run_sgr(seed=0)
    ok = report["failures"] == 0 and report["elapsed_s"] < 60
    _verdict(
        1,
        "sgr-language",
        ok,
        f"{report['cases']} words, {report['failures']} discrepancies, "
        f"{report['elapsed_s']}s (limit 60s)",
    )


def test_c02_allgraphs():
    report = run_allgraphs(seed=0)
    ok = report["failures"] == 0 and report["elapsed_s"] < 600
    _verdict(
        2,
        "allgraphs-membership",
        ok,
        f"{report['census']} graphs + large instance + isolated rejection, "
        f"{report['failures']} discrepancies, {report['elapsed_s']}s (limit 600s)",
    )


def test_c03_bipartite():
    report = run_bipartite(seed=0)
    _verdict(
        3,
        "bipartite-membership",
        report["failures"] == 0,
        f"{report['cases']} graphs, {report['accepted']} accepted, "
        f"{report['failures']} discrepancies, {report['elapsed_s']}s",
    )


def test_c04_witness_agreement():
    prover = Prover()
    t = hgr1_types()
    rng = random.Random(0)
    failures = 0
    for _ in range(50):
        g = random_l1_graph(rng, max_edges=5)
        assignment = hgr1_witness(g)
        result = prover.derive(Sequent(relabel(g, assignment), t["s"]))
        if not isinstance(result, DerivationTree):
            failures += 1
    _verdict(4, "witness-agreement", failures == 0, f"50 graphs, {failures} failures")


def test_c05_cut_admissibility(corpus):
    report = run_cut(corpus, seed=0, pairs=100)
    _verdict(
        5,
        "cut-admissibility",
        report["failures"] == 0,
        f"{report['cases']} composed pairs, {report['failures']} failures, "
        f"{report['elapsed_s']}s",
    )


def test_c06_reversibility(prover, corpus, bad_corpus):
    cases = 0
    discrepancies = 0

    def wrapped_variants(seq: Sequent):
        # Inverse rewrites of the two reversible rules: compress the whole
        # antecedent into one product edge; divide the succedent by a bare
        # hole; wrap one antecedent edge's label in a product of its handle.
        yield Sequent(handle(Product(seq.antecedent)), seq.succedent)
        r = seq.antecedent.rank
        yield Sequent(seq.antecedent, Division(seq.succedent, handle(dollar(r))))
        if seq.antecedent.edges:
            e = seq.antecedent.edges[0]
            lab = seq.antecedent.lab[e]
            from hlc.graphs import relabel_one

            yield Sequent(
                relabel_one(seq.antecedent, e, Product(handle(lab))), seq.succedent
            )

    pool = [(t.conclusion, True) for t in corpus[:100]]
    pool += [(s, False) for s in bad_corpus]
    for seq, expected in pool:
        variants = [normalize(seq), *wrapped_variants(seq)]
        for variant in variants:
            cases += 1
            got = isinstance(prover.derive(variant), DerivationTree)
            if got != expected:
                discrepancies += 1
    _verdict(
        6,
        "reversibility",
        discrepancies == 0,
        f"{len(pool)} sequents, {cases} rewritten variants, {discrepancies} discrepancies",
    )


def test_c07_soundness(corpus):
    report = run_soundness(corpus, seed=0, valuations=50)
    _verdict(
        7,
        "model-soundness",
        report["failures"] == 0 and report["sequents"] >= 10,
        f"{report['sequents']} sequents x 50 valuations, {report['failures']} false verdicts, "
        f"{report['elapsed_s']}s",
    )


def test_c08_lambek_embedding():
    report = run_embedding(seed=0, samples=200)
    _verdict(
        8,
        "lambek-embedding",
        report["failures"] == 0,
        f"{report['cases']} sequents (stock + enumerated + sampled), "
        f"{report['failures']} discrepancies, {report['elapsed_s']}s",
    )


def test_c09_conversion():
    report = run_conversion(seed=0)
    _verdict(
        9,
        "hrg-conversion",
        report["failures"] == 0,
        f"{report['cases']} membership comparisons, {report['failures']} discrepancies, "
        f"{report['elapsed_s']}s",
    )


def test_c10_structural_properties():
    rng = random.Random(0)
    labels2 = [RankedLabel("a", 2), RankedLabel("b", 2)]

    confluence_fail = counting_fail = canon_fail = iso_fail = 0

    for _ in range(500):
        # Replacement confluence and counting identities on a random host
        # with two replaceable edges.
        n = rng.randint(2, 4)
        host = string_graph([rng.choice(labels2) for _ in range(n)])
        e1, e2 = rng.sample(sorted(host.edges), 2)
        h1 = string_graph([rng.choice(labels2) for _ in range(rng.randint(0, 3))])
        h2 = string_graph([rng.choice(labels2) for _ in range(rng.randint(0, 3))])
        ab = replace(replace(host, e1, h1), e2, h2)
        ba = replace(replace(host, e2, h2), e1, h1)
        both = replace_all(host, {e1: h1, e2: h2})
        if not (
            canonical_form(ab) == canonical_form(ba) == canonical_form(both)
        ):
            confluence_fail += 1
        single = replace(host, e1, h1)
        if not (
            len(single.nodes) == len(host.nodes) + len(h1.nodes) - 2
            and len(single.edges) == len(host.edges) + len(h1.edges) - 1
            and single.rank == host.rank
            and validate(single) is None
        ):
            counting_fail += 1

    for _ in range(500):
        g = random_graph(rng, max_nodes=5, max_edges=5)
        if canonical_form(g) != canonical_form(permute(g, rng)):
            canon_fail += 1

    for _ in range(500):
        g = random_graph(rng, max_nodes=4, max_edges=3)
        h = permute(g, rng) if rng.random() < 0.5 else random_graph(rng, 4, 3)
        if (isomorphic(g, h) is not None) != brute_force_isomorphic(g, h):
            iso_fail += 1

    ok = confluence_fail == counting_fail == canon_fail == iso_fail == 0
    _verdict(
        10,
        "structural-properties",
        ok,
        "500 cases each: "
        f"confluence {confluence_fail}, counting {counting_fail}, "
        f"canonical invariance {canon_fail}, isomorphism-vs-brute-force {iso_fail} failures",
    )
