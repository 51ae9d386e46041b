"""Batch experiment runners behind the command line's ``suite`` command.

Each suite returns a machine-readable report: case and failure counts, the
discrepancies themselves (up to a cap), the seed, and elapsed time.  Reports
are deterministic for a fixed seed.
"""

from __future__ import annotations

import itertools
import random
import time
from typing import Callable

from .calculus import DerivationTree, Prover, SearchBudget, check_derivation, cut_compose
from .canon import canonical_key
from .fixtures import (
    all_binary_graphs,
    build_hgr1,
    build_hgr2,
    build_sgr,
    build_sgr_hrg,
    build_syntree_hrg,
    derivable_corpus,
    is_bipartite,
    in_l1,
    sgr_string_graph,
    syntree,
    STAR,
)
from .graphs import Hypergraph, RankedLabel, build_graph, relabel_one, validate
from .grammars import MemberWitness, hl_member, hrg_member, wgnf_to_hl
from .lambek import (
    Dot,
    LPrim,
    Over,
    Under,
    enumerate_lambek_corpus,
    lambek_derive,
    translate_lsequent,
)
from .models import model_checkable, random_valuation, sequent_holds, sequent_primitives

_MAX_LISTED = 20


def _report(name: str, seed: int, cases: int, discrepancies: list, t0: float, **extra) -> dict:
    return {
        "suite": name,
        "seed": seed,
        "cases": cases,
        "failures": len(discrepancies),
        "discrepancies": discrepancies[:_MAX_LISTED],
        "elapsed_s": round(time.time() - t0, 3),
        **extra,
    }


def _check_tree(discrepancies: list, result, **case) -> None:
    """Add a discrepancy for ``case`` when the tree that a ``hl_member``,
    ``derive`` or ``cut_compose`` result carries fails
    :func:`check_derivation`."""
    tree = result.tree if isinstance(result, MemberWitness) else result
    if isinstance(tree, DerivationTree):
        report = check_derivation(tree)
        if report is not None:
            discrepancies.append({**case, "check": report})


def kite_graph() -> Hypergraph:
    """The four-edge binary graph used as the large acceptance instance."""
    return build_graph(
        [0, 1, 2, 3],
        [(STAR, (0, 1)), (STAR, (0, 2)), (STAR, (1, 2)), (STAR, (3, 2))],
        ext=(),
    )


def run_sgr(seed: int = 0, budget: SearchBudget | None = None) -> dict:
    t0 = time.time()
    grammar = build_sgr()
    prover = Prover()
    expected = {"b", "abb", "aabbb", "aaabbbb"}
    discrepancies = []
    cases = 0
    accepted = []
    for length in range(1, 8):
        for word in ("".join(w) for w in itertools.product("ab", repeat=length)):
            cases += 1
            result = hl_member(grammar, sgr_string_graph(word), budget, prover=prover, seed=seed)
            got = isinstance(result, MemberWitness)
            if got:
                accepted.append(word)
            if got != (word in expected):
                discrepancies.append({"word": word, "member": got})
            _check_tree(discrepancies, result, word=word)
    return _report("sgr", seed, cases, discrepancies, t0, accepted=sorted(accepted))


def run_allgraphs(seed: int = 0, budget: SearchBudget | None = None) -> dict:
    t0 = time.time()
    grammar = build_hgr1()
    prover = Prover()
    discrepancies = []
    graphs = all_binary_graphs((1, 2, 3))
    for i, g in enumerate(graphs):
        result = hl_member(grammar, g, budget, prover=prover, seed=seed)
        got = isinstance(result, MemberWitness)
        if got != in_l1(g):
            discrepancies.append({"graph": i, "edges": len(g.edges), "member": got})
        _check_tree(discrepancies, result, graph=i)
    big = kite_graph()
    big_result = hl_member(grammar, big, budget, prover=prover, seed=seed)
    if not isinstance(big_result, MemberWitness):
        discrepancies.append({"graph": "four-edge", "member": False})
    _check_tree(discrepancies, big_result, graph="four-edge")
    lonely = build_graph([0, 1, 2], [(STAR, (0, 1))], ext=())
    lonely_result = hl_member(grammar, lonely, budget, prover=prover, seed=seed)
    if isinstance(lonely_result, MemberWitness):
        discrepancies.append({"graph": "isolated-node", "member": True})
    _check_tree(discrepancies, lonely_result, graph="isolated-node")
    return _report(
        "allgraphs", seed, len(graphs) + 2, discrepancies, t0, census=len(graphs)
    )


def run_bipartite(seed: int = 0, budget: SearchBudget | None = None) -> dict:
    t0 = time.time()
    grammar = build_hgr2()
    prover = Prover()
    discrepancies = []
    graphs = all_binary_graphs((1, 2, 3))
    accepted = 0
    for i, g in enumerate(graphs):
        result = hl_member(grammar, g, budget, prover=prover, seed=seed)
        got = isinstance(result, MemberWitness)
        want = is_bipartite(g) and in_l1(g)
        accepted += got
        if got != want:
            discrepancies.append(
                {"graph": i, "edges": len(g.edges), "member": got, "oracle": want}
            )
        _check_tree(discrepancies, result, graph=i)
    return _report("bipartite", seed, len(graphs), discrepancies, t0, accepted=accepted)


def run_soundness(corpus: list[DerivationTree], seed: int = 0, valuations: int = 50) -> dict:
    """Every model-checkable conclusion of ``corpus`` (a
    :func:`~hlc.fixtures.derivable_corpus`) must hold under random valuations."""
    t0 = time.time()
    checkable = [t.conclusion for t in corpus if model_checkable(t.conclusion)]
    rng = random.Random(seed)
    discrepancies = []
    cases = 0
    for s in checkable:
        primitives = sequent_primitives(s)
        for _ in range(valuations):
            w = random_valuation(rng, primitives)
            cases += 1
            verdict = sequent_holds(w, s)
            if verdict is not True:
                discrepancies.append({"sequent": repr(s), "verdict": repr(verdict)})
    return _report(
        "soundness", seed, cases, discrepancies, t0, sequents=len(checkable)
    )


def run_cut(corpus: list[DerivationTree], seed: int = 0, pairs: int = 100) -> dict:
    """Cut random pairs of ``corpus`` derivations (a
    :func:`~hlc.fixtures.derivable_corpus`) and re-derive each composite."""
    t0 = time.time()
    prover = Prover()
    by_succedent: dict[object, list] = {}
    for tree in corpus:
        by_succedent.setdefault(tree.conclusion.succedent.canon_key(), []).append(tree)
    candidates = []
    for tree in corpus:
        g = tree.conclusion.antecedent
        for e in sorted(g.edges):
            key = g.lab[e].canon_key()
            if key in by_succedent:
                candidates.append((tree, e, key))
    rng = random.Random(seed)
    discrepancies = []
    for i in range(pairs):
        d2, e, key = candidates[rng.randrange(len(candidates))]
        d1 = rng.choice(by_succedent[key])
        result = cut_compose(d1, d2, e, prover=prover)
        if not isinstance(result, DerivationTree):
            discrepancies.append({"pair": i, "result": type(result).__name__})
        _check_tree(discrepancies, result, pair=i)
    return _report("cut", seed, pairs, discrepancies, t0, candidates=len(candidates))


def _random_ltype(rng: random.Random, prims, budget: int):
    if budget == 0:
        return rng.choice(prims)
    left_budget = rng.randint(0, budget - 1)
    ctor = rng.choice((Under, Over, Dot))
    return ctor(
        _random_ltype(rng, prims, left_budget),
        _random_ltype(rng, prims, budget - 1 - left_budget),
    )


def run_embedding(seed: int = 0, samples: int = 200) -> dict:
    """String-calculus derivability versus hypergraph derivability of the
    translation: the three stock sequents, a full small enumeration, and a
    seeded sample of sequents with up to six connectives."""
    t0 = time.time()
    prover = Prover()
    np_, n_, s_, p_, q_ = (LPrim(x) for x in ("np", "n", "s", "p", "q"))
    stock = [
        ((Over(np_, n_), n_, Under(np_, s_)), s_),
        ((np_,), Over(s_, Under(np_, s_))),
        ((p_,), Over(Dot(p_, q_), q_)),
    ]
    cases = list(stock)
    cases += list(enumerate_lambek_corpus(max_each=1, max_succ=1, max_len=2))
    rng = random.Random(seed)
    prims = (p_, q_)
    for _ in range(samples):
        size = rng.randint(1, 3)
        total = rng.randint(0, 6)
        splits = [rng.randint(0, total) for _ in range(size)]
        head = max(0, total - sum(splits))
        ants = tuple(_random_ltype(rng, prims, b) for b in splits)
        succ = _random_ltype(rng, prims, head)
        cases.append((ants, succ))
    discrepancies = []
    for ants, succ in cases:
        string_side = lambek_derive(ants, succ)
        result = prover.derive(translate_lsequent(ants, succ))
        graph_side = isinstance(result, DerivationTree)
        if string_side != graph_side:
            discrepancies.append(
                {"sequent": f"{list(ants)} -> {succ}", "string": string_side, "graph": graph_side}
            )
        _check_tree(discrepancies, result, sequent=f"{list(ants)} -> {succ}")
    for ants, succ in stock:
        if not lambek_derive(ants, succ):
            discrepancies.append({"sequent": f"{list(ants)} -> {succ}", "string": False})
    return _report("embedding", seed, len(cases), discrepancies, t0)


def syntree_mutants(count: int = 20) -> list[Hypergraph]:
    """Deterministic structural corruptions of the generated tree."""
    base = syntree()
    mutants: list[Hypergraph] = []
    l = RankedLabel("l", 2)
    r = RankedLabel("r", 2)
    # Swap the order markers on each branching node.
    pairs = [(3, 4), (5, 6)]
    for le, re_ in pairs:
        g = relabel_one(relabel_one(base, le, r), re_, l)
        mutants.append(g)
    # Relabel each unary edge by each other unary terminal.
    unary = {0: "sleeps", 1: "the", 2: "cat"}
    for e, _ in unary.items():
        for other in ("sleeps", "the", "cat"):
            if other != unary[e]:
                mutants.append(relabel_one(base, e, RankedLabel(other, 1)))
    # Drop one edge at a time (keeping the carrier).
    for e in sorted(base.edges):
        edges = [ee for ee in sorted(base.edges) if ee != e]
        mutants.append(
            Hypergraph(
                nodes=base.nodes,
                edges=tuple(edges),
                att={ee: base.att[ee] for ee in edges},
                lab={ee: base.lab[ee] for ee in edges},
                ext=base.ext,
            )
        )
    # Reverse each binary edge.
    for e in (3, 4, 5, 6):
        att = dict(base.att)
        att[e] = (att[e][1], att[e][0])
        mutants.append(Hypergraph(base.nodes, base.edges, att, dict(base.lab), base.ext))
    out = []
    seen = {canonical_key(base)}
    for g in mutants:
        if validate(g) is not None:
            continue
        key = canonical_key(g)
        if key not in seen:
            seen.add(key)
            out.append(g)
    return out[:count]


def run_conversion(seed: int = 0, budget: SearchBudget | None = None) -> dict:
    t0 = time.time()
    prover = Prover()
    discrepancies = []
    cases = 0
    # String case: every word over {a, b} up to seven letters.
    sgr_hrg = build_sgr_hrg()
    converted = wgnf_to_hl(sgr_hrg)
    for length in range(1, 8):
        for word in ("".join(w) for w in itertools.product("ab", repeat=length)):
            cases += 1
            g = sgr_string_graph(word)
            via_hrg = hrg_member(sgr_hrg, g)
            result = hl_member(converted, g, budget, prover=prover, seed=seed)
            via_hl = isinstance(result, MemberWitness)
            if via_hrg != via_hl:
                discrepancies.append({"word": word, "hrg": via_hrg, "hl": via_hl})
            _check_tree(discrepancies, result, word=word)
    # Tree case: the generated tree plus mutated non-members.
    tree_hrg = build_syntree_hrg()
    tree_converted = wgnf_to_hl(tree_hrg)
    for i, g in enumerate([syntree()] + syntree_mutants()):
        cases += 1
        via_hrg = hrg_member(tree_hrg, g)
        result = hl_member(tree_converted, g, budget, prover=prover, seed=seed)
        via_hl = isinstance(result, MemberWitness)
        if via_hrg != via_hl:
            discrepancies.append({"tree": i, "hrg": via_hrg, "hl": via_hl})
        _check_tree(discrepancies, result, tree=i)
    return _report("conversion", seed, cases, discrepancies, t0)


# Suite name -> runner taking (seed, budget).  Soundness, cut and embedding
# run their provers with the default budget, as they always have; soundness
# and cut each build the derivable corpus they check.
SUITES: dict[str, Callable[[int, SearchBudget | None], dict]] = {
    "sgr": run_sgr,
    "allgraphs": run_allgraphs,
    "bipartite": run_bipartite,
    "soundness": lambda seed, budget: run_soundness(derivable_corpus(), seed),
    "cut": lambda seed, budget: run_cut(derivable_corpus(), seed),
    "embedding": lambda seed, budget: run_embedding(seed),
    "conversion": run_conversion,
}


def run_suite(name: str, seed: int = 0, budget: SearchBudget | None = None) -> dict:
    runner = SUITES.get(name)
    if runner is None:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    return runner(seed, budget)
