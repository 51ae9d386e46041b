"""Finite language models: valuations, denotations, and truth of sequents.

A valuation assigns a finite set of graphs over a fixed ranked alphabet to
each primitive type.  It extends to products by substitution and to divisions
by quantifying over the denominator labels' denotations; a sequent holds when
the denotation of its antecedent's product is included in the succedent's.

Exact checking is possible precisely when every universal quantifier ranges
over an enumerable denotation, i.e. when the types in denominator positions
contain no division.  Outside that fragment the answer is ``UNDECIDED``,
which is a first-class result and never conflated with falsehood.

Inside it, membership of a graph ``g`` in ``[[t]]`` has three cases:

* ``t`` enumerable (division-free, primitives included): ``[[t]]`` is finite
  and :func:`denotation_enumerate` lists it exactly, up to isomorphism.  A
  product's body is first flattened: each product-labelled edge is replaced
  by that product's body until every edge is primitive, since hyperedge
  replacement is associative (``×(G[e := ×(H)])`` and ``×(G[e := H])`` have
  the same members up to isomorphism).  The valuation's graphs for each
  body edge's primitive are then substituted as listed, isomorphic copies
  included, and only the substituted graphs are deduplicated by canonical
  key.  So ``g`` belongs iff its canonical key is among the listed graphs'
  keys.  Each such denotation is enumerated once per valuation and cached
  on it, keyed by what determines it: a primitive's key, or a product's
  flattened body's canonical key (cached on the product), where a body that
  flattens to the handle of one label ``A`` is keyed as ``A`` itself.  So
  ``×(p·p·q)``, ``×((p·p)·q)`` and ``×(p·×(p·q))`` share one entry, as do
  ``×(handle(p))`` and ``p``.

  A string product's key needs no flattened body.  Splice lemma: replacing
  an edge of a path by a string graph with a nonempty word ``v`` gives a
  path again, whose word has ``v`` in that edge's place, since the word's
  two ends are fused with the edge's two nodes and its inner nodes are
  fresh.  So a product whose body is a string graph, each product on it
  having a nonempty word in turn, flattens to the string graph of the
  concatenated word, and ``canon`` keys a string graph by its word.  The
  exception is an empty nested word: the empty word's graph keeps its two
  external nodes apart, so ``×(p·×(ε)·p)`` flattens to two ``p`` edges with
  a gap between them, not to ``p·p``.  Such products, and those with a
  nested body that is not a string graph, are flattened and canonicalised.

  A sequent whose succedent has the same key
  as the antecedent's product, such as ``p, ×(p·q) ⊢ ×(×(p·p)·q)``, holds
  as ``X ⊆ X`` and enumerates none; any other sequent takes the
  antecedent's product through the same cache.  Membership is up to
  isomorphism throughout: a valuation's own graphs stand for their
  isomorphism classes.
* ``t`` a product with a division in its body: ``[[t]]`` may be infinite, so
  ``g`` belongs iff some decomposition of ``g`` along the body puts every
  part in its label's denotation.  Decompositions apportion the isolated
  nodes of ``g`` to parts by count, which suffices up to isomorphism.
* ``t`` a division ``N ÷ D``: ``g`` belongs iff filling D's hole with ``g``
  and its other edges with every choice from their (enumerable) denotations
  always gives a member of ``[[N]]``.  A primitive edge draws from the
  valuation's list as it stands, a product edge from its cached
  denotation.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .canon import canonical_key, representatives
from .graphs import (
    Hypergraph,
    RankedLabel,
    build_graph,
    handle_label,
    replace_all,
    string_path,
    validate,
)
from .hltypes import (
    Division,
    HLType,
    Primitive,
    Product,
    Sequent,
    cached_report,
    dollar_edge,
    require_valid,
    set_report,
    validate_sequent,
    validate_type,
)
from .matching import enumerate_decompositions


class _Sentinel:
    def __init__(self, name: str):
        self._name = name

    def __repr__(self) -> str:
        return self._name

    def __bool__(self) -> bool:
        raise TypeError(f"{self._name} is not a truth value")


UNDECIDED = _Sentinel("UNDECIDED")
NOT_ENUMERABLE = _Sentinel("NOT_ENUMERABLE")


@dataclass(frozen=True)
class Valuation:
    alphabet: tuple[RankedLabel, ...]
    assignment: tuple[tuple[Primitive, tuple[Hypergraph, ...]], ...]

    def graphs(self, p: Primitive) -> tuple[Hypergraph, ...]:
        for prim, graphs in self.assignment:
            if prim == p:
                return graphs
        return ()


def validate_valuation(w: Valuation) -> str | None:
    """None or the first violation; the verdict is cached on the valuation."""
    return cached_report(w, _valuation_report)


def _valuation_report(w: Valuation) -> str | None:
    for i, (p, graphs) in enumerate(w.assignment):
        if any(p == q for q, _ in w.assignment[:i]):
            return f"{p!r}: assigned more than once"
        for g in graphs:
            report = validate(g)
            if report is not None:
                return f"{p!r}: {report}"
            if g.rank != p.rank:
                return f"{p!r}: rank mismatch (graph rank {g.rank})"
            for e in g.edges:
                if g.lab[e] not in w.alphabet:
                    return f"{p!r}: label {g.lab[e]!r} outside the alphabet"
    return None


def is_enumerable(t: HLType) -> bool:
    """Division-free types have finitely enumerable denotations."""
    if isinstance(t, Primitive):
        return True
    if isinstance(t, Product):
        return all(is_enumerable(t.body.lab[e]) for e in t.body.edges)
    return False


def contains_decidable(t: HLType) -> bool:
    """Membership is exactly decidable when every denominator-position type
    is enumerable."""
    if isinstance(t, Primitive):
        return True
    if isinstance(t, Product):
        return all(contains_decidable(t.body.lab[e]) for e in t.body.edges)
    if isinstance(t, Division):
        d = t.denominator
        hole = dollar_edge(d)
        return all(
            is_enumerable(d.lab[e]) for e in d.edges if e != hole
        ) and contains_decidable(t.numerator)
    return False


def model_checkable(s: Sequent) -> bool:
    """Whether :func:`sequent_holds` decides ``s`` rather than answering UNDECIDED."""
    g = s.antecedent
    return all(is_enumerable(g.lab[e]) for e in g.edges) and contains_decidable(s.succedent)


def _flat(t: Product) -> Hypergraph:
    """``t``'s body with every product-labelled edge replaced by that
    product's body, round after round, until no edge is product-labelled;
    built once and cached on the product."""
    body = t.__dict__.get("_flat")
    if body is None:
        body = t.body
        while True:
            nested = {e: body.lab[e].body for e in body.edges if isinstance(body.lab[e], Product)}
            if not nested:
                break
            body = replace_all(body, nested)
        t._flat = body
    return body


def _word(t: Product) -> tuple | None:
    """The word of ``t``'s flattened body, as label keys, when splicing gives
    it: ``t.body`` is a string graph and every product on its path has a
    nonempty word.  Otherwise None.  Computed once and cached on the
    product, without building the flattened body."""
    if "_word" not in t.__dict__:
        body = t.body
        path = string_path(body)
        word = None if path is None else []
        for e in path or ():
            lab = body.lab[e]
            letters = _word(lab) if isinstance(lab, Product) else (lab.canon_key(),)
            if not letters:  # no word to splice, or an empty one: a gap
                word = None
                break
            word += letters
        t._word = word if word is None else tuple(word)
    return t._word


def denotation_enumerate(w: Valuation, t: HLType):
    """The exact denotation of an enumerable type, as a tuple of one
    representative per isomorphism class in canonical order;
    ``NOT_ENUMERABLE`` for types containing a division.

    Each class is represented by the first of its members met: for a
    primitive ``p``, and for a product whose flattened body is the handle of
    ``p``, the first in the valuation's list for ``p``; for any other
    product, the first that substituting the valuation's graphs into the
    flattened body gives, picks taken in ``itertools.product`` order over
    the body's sorted edges.  Raises ``ValueError`` on an invalid
    valuation or type."""
    require_valid("valuation", validate_valuation(w))
    require_valid("type", validate_type(t))
    if not is_enumerable(t):
        return NOT_ENUMERABLE
    if isinstance(t, Product):
        body = _flat(t)
        label = handle_label(body)
        if label is None:
            edges = body.edges
            picks = itertools.product(*(w.graphs(body.lab[e]) for e in edges))
            graphs = (replace_all(body, dict(zip(edges, pick))) for pick in picks)
            return tuple(representatives(graphs))
        t = label
    return tuple(representatives(w.graphs(t)))


def _entry_key(t: HLType) -> object:
    """The key that enumerable ``t``'s denotation is cached under, cached
    on a product: a primitive's key, or the canonical key of a product's
    flattened body, ``("x", key)``, where a body that flattens to the handle
    of one label ``A`` is keyed as ``A``, since ``[[×(handle(A))]] = [[A]]``.
    A product with a :func:`_word` takes that key from the word, as
    :mod:`hlc.canon` keys a string graph; any other is flattened and
    canonicalised.  Types with one key have one denotation under every
    valuation."""
    if isinstance(t, Primitive):
        return t.canon_key()
    key = t.__dict__.get("_entry")
    if key is None:
        word = _word(t)
        if word is None:
            body = _flat(t)
            label = handle_label(body)
            key = ("x", canonical_key(body)) if label is None else label.canon_key()
        else:
            key = word[0] if len(word) == 1 else ("x", ("W", word))
        t._entry = key
    return key


def _denotation(w: Valuation, t: HLType) -> tuple[tuple[Hypergraph, ...], frozenset]:
    """The denotation of enumerable ``t`` and its canonical keys, enumerated
    once and cached on the valuation value under :func:`_entry_key`."""
    cache = w.__dict__.setdefault("_denotations", {})
    key = _entry_key(t)
    den = cache.get(key)
    if den is None:
        graphs = denotation_enumerate(w, t)
        den = cache[key] = (graphs, frozenset(map(canonical_key, graphs)))
    return den


def denotation_contains(w: Valuation, t: HLType, g: Hypergraph):
    """Exact membership of ``g`` in the denotation of ``t``, or UNDECIDED.
    Raises ``ValueError`` on an invalid valuation, type or graph."""
    require_valid("valuation", validate_valuation(w))
    require_valid("type", validate_type(t))
    require_valid("graph", validate(g))
    if not contains_decidable(t):
        return UNDECIDED
    return _contains(w, t, g)


def _contains(w: Valuation, t: HLType, g: Hypergraph) -> bool:
    if g.rank != t.rank:
        return False
    if is_enumerable(t):
        return canonical_key(g) in _denotation(w, t)[1]
    if isinstance(t, Product):
        body = t.body
        # A division in the body leaves [[t]] possibly infinite, so decompose.
        for dec in enumerate_decompositions(g, body):
            if all(_contains(w, body.lab[m], dec.parts[m]) for m in body.edges):
                return True
        return False
    assert isinstance(t, Division)
    d = t.denominator
    hole = dollar_edge(d)
    others = sorted(e for e in d.edges if e != hole)
    pools = [
        w.graphs(lab) if isinstance(lab, Primitive) else _denotation(w, lab)[0]
        for lab in (d.lab[e] for e in others)
    ]
    for pick in itertools.product(*pools):
        filled = replace_all(d, {hole: g, **dict(zip(others, pick))})
        if not _contains(w, t.numerator, filled):
            return False
    return True


def sequent_holds(w: Valuation, s: Sequent):
    """Truth of a sequent: every instance of the antecedent's product belongs
    to the succedent's denotation.  UNDECIDED outside the exact fragment.
    An enumerable succedent with the antecedent's product's entry key
    denotes the same set, so the sequent holds and nothing is enumerated.
    Raises ``ValueError`` on an invalid valuation or sequent."""
    require_valid("valuation", validate_valuation(w))
    require_valid("sequent", validate_sequent(s))
    if not model_checkable(s):
        return UNDECIDED
    lhs = Product(s.antecedent)
    set_report(lhs, None)  # the sequent's report checks what the product's would
    if is_enumerable(s.succedent) and _entry_key(s.succedent) == _entry_key(lhs):
        return True
    return all(_contains(w, s.succedent, g) for g in _denotation(w, lhs)[0])


def random_graphs(
    rng: random.Random,
    rank: int,
    alphabet: tuple[RankedLabel, ...],
    *,
    count: int,
    max_edges: int = 2,
) -> list[Hypergraph]:
    """Small random graphs of the given rank over the alphabet, valid by
    construction (attachments and external nodes drawn without repetition)."""
    floor = max(rank, 1, max((l.rank for l in alphabet), default=1))
    out = []
    for _ in range(count):
        k = rng.randint(0, max_edges)
        nodes = list(range(rng.randint(floor, floor + 2)))
        edges = []
        for _ in range(k):
            lab = rng.choice(alphabet)
            edges.append((lab, tuple(rng.sample(nodes, lab.rank))))
        ext = tuple(rng.sample(nodes, rank))
        out.append(build_graph(nodes, edges, ext))
    return out


def random_valuation(
    rng: random.Random,
    primitives: list[Primitive],
    alphabet: tuple[RankedLabel, ...] = (RankedLabel("u", 2), RankedLabel("w", 1)),
    *,
    max_graphs: int = 2,
    max_edges: int = 2,
) -> Valuation:
    """A seeded random finite valuation covering the given primitives."""
    assignment = []
    for p in primitives:
        count = rng.randint(0, max_graphs)
        graphs = tuple(random_graphs(rng, p.rank, alphabet, count=count, max_edges=max_edges))
        assignment.append((p, graphs))
    return Valuation(alphabet=alphabet, assignment=tuple(assignment))


def sequent_primitives(s: Sequent) -> list[Primitive]:
    """All primitive types occurring anywhere in a sequent, deduplicated."""
    seen: dict[object, Primitive] = {}
    stack: list[object] = [s.succedent, s.antecedent]  # popped last to first
    while stack:
        x = stack.pop()
        if isinstance(x, Hypergraph):
            stack += [x.lab[e] for e in reversed(x.edges) if isinstance(x.lab[e], HLType)]
        elif isinstance(x, Primitive):
            seen.setdefault(x.canon_key(), x)
        elif isinstance(x, Division):
            stack += (x.denominator, x.numerator)
        elif isinstance(x, Product):
            stack.append(x.body)
    return [seen[k] for k in sorted(seen)]
