"""The four verdict workloads.

Each workload is a seeded list of queries.  A query builds fresh input
objects before it is timed (canon caches on the graph value, so reusing an
object would time a cache hit), asks the library for one verdict, and is
checked afterwards against an answer that does not come from the code under
test:

* ``member``: ``hl_member`` over three grammars, one ``Prover`` per grammar
  and pass as ``hlc suite`` does; answers from the ``a^n b^(n+1)`` rule and
  the ``in_l1``/``is_bipartite`` oracles.  Exhaustive rejection over
  relabelings exercises ``grammars`` and the ``calculus`` memo.
* ``derive``: ``Prover().derive``, with a fresh ``Prover`` as ``hlc derive``
  has, on ``q^n s p^n |- s`` and its one-edit perturbations; derivable iff
  the label string is ``q^n s p^n``.  Division context extraction in
  ``matching`` dominates.
* ``iso``: ``isomorphic`` on permuted copies (isomorphic by construction) and
  near-misses whose degree sequence differs.  ``canon`` does the work; the
  symmetric families carry its factorial blow-up.
* ``models``: ``sequent_holds`` on translations of sequents the string
  decider derives, under seeded valuations; soundness says every verdict is
  ``True``.

Library entry points are called through their modules so that a traced pass
sees them.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable

from hlc import calculus, canon, grammars, models
from hlc.fixtures import (
    STAR,
    all_binary_graphs,
    build_hgr1,
    build_hgr2,
    build_sgr,
    in_l1,
    is_bipartite,
    random_l1_graph,
    sgr_string_graph,
)
from hlc.graphs import RankedLabel, build_graph, flowerbed, string_graph
from hlc.hltypes import Sequent
from hlc.lambek import enumerate_lambek_corpus, lambek_derive, translate_lsequent
from hlc.suites import kite_graph, model_checkable

@dataclass(frozen=True)
class Query:
    kind: str
    build: Callable[[], tuple]  # fresh input objects for one ask
    expected: object


def _tree_problem(tree, sequent) -> str | None:
    """Why an emitted tree fails to prove ``sequent``, or None."""
    if tree.conclusion.canon_key() != sequent.canon_key():
        return "tree proves another sequent"
    report = calculus.check_derivation(tree)
    return None if report is None else f"tree fails check_derivation: {report}"


def _graph_spec(g) -> tuple:
    return (g.nodes, tuple((g.lab[e], g.att[e]) for e in g.edges), g.ext)


def _build(spec):
    nodes, edges, ext = spec
    return build_graph(nodes, edges, ext)


class Member:
    def __init__(self, seed: int):
        self.seed = seed
        self.grammars = {"sgr": build_sgr(), "hgr1": build_hgr1(), "hgr2": build_hgr2()}
        queries = []
        for length in range(1, 8):
            for letters in itertools.product("ab", repeat=length):
                word = "".join(letters)
                n = word.count("a")
                expected = word == "a" * n + "b" * (n + 1)
                queries.append(Query("sgr", lambda w=word: (sgr_string_graph(w),), expected))
        census = all_binary_graphs((1, 2, 3))
        lonely = build_graph([0, 1, 2], [(STAR, (0, 1))], ext=())
        for g in census + [kite_graph(), lonely]:
            spec = _graph_spec(g)
            queries.append(Query("hgr1", lambda s=spec: (_build(s),), in_l1(g)))
        for g in census:
            if len(g.edges) <= 2 or len(g.nodes) == 2:
                spec = _graph_spec(g)
                expected = in_l1(g) and is_bipartite(g)
                queries.append(Query("hgr2", lambda s=spec: (_build(s),), expected))
        self.queries = queries

    def new_pass(self):
        return {kind: calculus.Prover() for kind in self.grammars}

    def ask(self, provers, query, inputs):
        (graph,) = inputs
        return grammars.hl_member(
            self.grammars[query.kind], graph, prover=provers[query.kind], seed=self.seed
        )

    def check(self, query, inputs, verdict) -> str | None:
        if isinstance(verdict, calculus.BudgetExceeded):
            return "budget exceeded"
        got = isinstance(verdict, grammars.MemberWitness)
        if got != query.expected:
            return f"member={got}, expected {query.expected}"
        return _tree_problem(verdict.tree, verdict.relabeled) if got else None


def _perturbations(n: int) -> dict[str, list[str]]:
    """Every label string one edit away from ``q^n s p^n``, by kind of edit."""
    base = "q" * n + "s" + "p" * n
    rest = base.replace("s", "")
    swaps = set()
    for i in range(n):
        for j in range(n + 1, 2 * n + 1):
            swapped = list(base)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            swaps.add("".join(swapped))
    kinds = {
        "drop": {base[:-1]},
        "add": {base[:i] + "p" + base[i:] for i in range(len(base) + 1)},
        "move": {rest[:i] + "s" + rest[i:] for i in range(len(rest) + 1)} - {base},
        "swap": swaps,
    }
    return {kind: sorted(strings) for kind, strings in kinds.items()}


class Derive:
    MAX_N = 9
    # Rejection cost grows steeply with n and varies with where the edit
    # lands.  Up to EXHAUSTIVE_N every perturbation is asked, so the median
    # and p90 fall on a fixed set of queries; above it the seed picks one
    # perturbation of each kind.
    EXHAUSTIVE_N = 6

    def __init__(self, seed: int):
        sgr = build_sgr()
        q, p, s = (t for _, t in sgr.correspondence)
        self.types = {"q": q, "p": p, "s": s}
        self.goal = sgr.distinguished
        rng = random.Random(seed)
        queries = []
        for n in range(1, self.MAX_N + 1):
            base = "q" * n + "s" + "p" * n
            by_kind = _perturbations(n)
            if n <= self.EXHAUSTIVE_N:
                near = sorted(set().union(*by_kind.values()))
            else:
                near = [rng.choice(by_kind[kind]) for kind in sorted(by_kind)]
            for labels in [base] + near:
                queries.append(Query(f"n{n}", lambda w=labels: (self._sequent(w),), labels == base))
        self.queries = queries

    def _sequent(self, labels: str) -> Sequent:
        return Sequent(string_graph([self.types[c] for c in labels]), self.goal)

    def new_pass(self):
        return None

    def ask(self, _, query, inputs):
        (sequent,) = inputs
        return calculus.Prover().derive(sequent)

    def check(self, query, inputs, verdict) -> str | None:
        if isinstance(verdict, calculus.BudgetExceeded):
            return "budget exceeded"
        got = isinstance(verdict, calculus.DerivationTree)
        if got != query.expected:
            return f"derivable={got}, expected {query.expected}"
        return _tree_problem(verdict, inputs[0]) if got else None


A2 = RankedLabel("a", 2)
U1 = RankedLabel("u", 1)
F2 = RankedLabel("f", 2)
B2 = RankedLabel("b", 2)


def _symmetric_family(k: int) -> list[tuple[str, object, object]]:
    """(family, graph, near-miss with another degree sequence) at size k >= 2."""
    disjoint = [(A2, (2 * i, 2 * i + 1)) for i in range(k)]
    star = [(A2, (0, i)) for i in range(1, k + 1)]
    unary = [(U1, (i,)) for i in range(k)]
    return [
        (
            "disjoint",
            build_graph(range(2 * k), disjoint),
            build_graph(range(2 * k), disjoint[:-1] + [(A2, (1, 2 * k - 1))]),
        ),
        ("star", build_graph(range(k + 1), star), build_graph(range(k + 1), star[:-1] + [(A2, (1, k))])),
        ("unary", build_graph(range(k), unary), build_graph(range(k), unary[:-1] + [(U1, (0,))])),
        ("flowerbed", flowerbed([[F2] * k, [F2]], B2), flowerbed([[F2] * (k - 1), [F2] * 2], B2)),
    ]


def _degree_signature(g) -> list:
    """Sorted per-node incidence profiles: differing signatures rule out isomorphism."""
    profile = {v: [] for v in g.nodes}
    for e in g.edges:
        for pos, v in enumerate(g.att[e]):
            profile[v].append((repr(g.lab[e].canon_key()), pos))
    return sorted(sorted(p) for p in profile.values())


def _permuted_spec(rng: random.Random, g) -> tuple:
    """A copy of ``g`` under a seeded renaming of nodes and reordering of edges."""
    targets = list(g.nodes)
    rng.shuffle(targets)
    rename = dict(zip(g.nodes, targets))
    edges = [(g.lab[e], tuple(rename[v] for v in g.att[e])) for e in g.edges]
    rng.shuffle(edges)
    return (targets, tuple(edges), tuple(rename[v] for v in g.ext))


def _near_miss(rng: random.Random, g):
    """``g`` with one attachment moved so that its degree signature changes."""
    want = _degree_signature(g)
    moves = [(e, pos, v) for e in g.edges for pos in range(len(g.att[e])) for v in g.nodes]
    rng.shuffle(moves)
    for e, pos, v in moves:
        att = list(g.att[e])
        if v in att:
            continue
        att[pos] = v
        edges = [(g.lab[x], tuple(att) if x == e else g.att[x]) for x in g.edges]
        h = build_graph(g.nodes, edges, g.ext)
        if _degree_signature(h) != want:
            return h
    extra = max(g.nodes) + 1
    return build_graph([*g.nodes, extra], [(g.lab[x], g.att[x]) for x in g.edges], g.ext)


class Iso:
    MAX_K = 7
    # 48 symmetric + 62 census + 114 random queries = 224 a pass, so p90 is
    # the 23rd-costliest query (star5-) in every pass count, not a boundary
    # between two queries whose costs differ by a third.
    RANDOM_GRAPHS = 57

    def __init__(self, seed: int):
        rng = random.Random(seed)
        pairs = []
        for k in range(2, self.MAX_K + 1):
            for family, g, near in _symmetric_family(k):
                pairs.append((f"{family}{k}", g, near))
        asymmetric = all_binary_graphs((1, 2, 3))
        asymmetric += [random_l1_graph(rng) for _ in range(self.RANDOM_GRAPHS)]
        for g in asymmetric:
            pairs.append(("asym", g, _near_miss(rng, g)))
        queries = []
        for kind, g, near in pairs:
            if _degree_signature(g) == _degree_signature(near):
                raise AssertionError(f"near-miss for {kind} keeps the degree signature")
            base = _graph_spec(g)
            for other, expected in ((g, True), (near, False)):
                spec = _permuted_spec(rng, other)
                queries.append(Query(kind, lambda a=base, b=spec: (_build(a), _build(b)), expected))
        self.queries = queries

    def new_pass(self):
        return None

    def ask(self, _, query, inputs):
        return canon.isomorphic(*inputs)

    def check(self, query, inputs, verdict) -> str | None:
        if (verdict is not None) != query.expected:
            return f"isomorphic={verdict is not None}, expected {query.expected}"
        if verdict is not None and not canon.witness_valid(*inputs, verdict):
            return "witness fails witness_valid"
        return None


ALPHABET = (RankedLabel("u", 2), RankedLabel("w", 1))  # random_valuation's default


def _valuation(primitives, sizes: random.Random, content: random.Random) -> models.Valuation:
    """A valuation drawn as ``models.random_valuation`` draws one, except that
    graph, node and edge counts and edge labels come from ``sizes`` while
    attachments and external nodes come from ``content``."""
    floor = max(1, *(label.rank for label in ALPHABET))
    assignment = []
    for p in primitives:
        graphs = []
        for _ in range(sizes.randint(0, 2)):
            nodes = list(range(sizes.randint(max(floor, p.rank), max(floor, p.rank) + 2)))
            edges = []
            for _ in range(sizes.randint(0, 2)):
                label = sizes.choice(ALPHABET)
                edges.append((label, tuple(content.sample(nodes, label.rank))))
            graphs.append(build_graph(nodes, edges, tuple(content.sample(nodes, p.rank))))
        assignment.append((p, tuple(graphs)))
    return models.Valuation(alphabet=ALPHABET, assignment=tuple(assignment))


class Models:
    VALUATIONS = 16

    def __init__(self, seed: int):
        sequents = [
            (ants, succ)
            for ants, succ in enumerate_lambek_corpus(max_each=1, max_succ=2)
            if lambek_derive(ants, succ) and model_checkable(translate_lsequent(ants, succ))
        ]
        # A few large valuations dominate the run time, so the sizes come from
        # a stream shared by every seed and the seed draws the graphs' content:
        # seeds then differ in inputs without differing in their mix of sizes.
        queries = []
        for i, (ants, succ) in enumerate(sequents):
            for j in range(self.VALUATIONS):
                keys = (f"sizes:{i}:{j}", f"{seed}:{i}:{j}")
                build = lambda a=ants, s=succ, k=keys: self._inputs(a, s, k)
                queries.append(Query("holds", build, True))
        self.queries = queries

    @staticmethod
    def _inputs(ants, succ, keys):
        sequent = translate_lsequent(ants, succ)
        sizes, content = (random.Random(key) for key in keys)
        return _valuation(models.sequent_primitives(sequent), sizes, content), sequent

    def new_pass(self):
        return None

    def ask(self, _, query, inputs):
        return models.sequent_holds(*inputs)

    def check(self, query, inputs, verdict) -> str | None:
        if verdict is models.UNDECIDED:
            return "UNDECIDED where soundness decides"
        return None if verdict is True else f"holds={verdict!r}, expected True"


def build(name: str, seed: int):
    return {"member": Member, "derive": Derive, "iso": Iso, "models": Models}[name](seed)
