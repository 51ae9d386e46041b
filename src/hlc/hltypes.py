"""The type language and sequents.

Types are primitives, divisions N ÷ D, and products ×(M).  A division's
denominator D is a hypergraph with exactly one ``$``-labeled edge (the hole)
and all other edges labeled by types; the division's rank is the rank of the
hole.  A product's body M is a hypergraph all of whose edges are labeled by
types; its rank is the rank of the body.

Types are compared (and hashed) up to isomorphism of their component graphs:
two divisions with isomorphic denominators are the same type.

**Counts.**  Every type, label and graph carries a signed count per
primitive and one *node count* (:func:`primitive_counts`).  A primitive ``p``
counts +1 for ``p`` and no nodes; ``N ÷ D`` counts ``#N − #D``; ``×(M)``
counts ``#M``; a graph counts the sum over its edge labels, where alphabet
symbols and ``$`` count nothing, plus ``int(G) = |V(G)| − |ext(G)|`` nodes.
The node count is one more coordinate of the same vector, under the reserved
key :data:`NODES`.  A sequent ``G ⊢ A`` is *balanced* when ``#G = #A``.
Every derivable sequent is balanced (van Benthem's count invariant, lifted to
hypergraphs, with a node coordinate), because the axiom is balanced and every
rule concludes a balanced sequent from balanced premises.  Substituting ``H``
for an edge ``e`` of ``G`` fuses ``ext(H)`` with ``att(e)`` and keeps the
interior nodes of ``H`` apart, so ``#G[e := H] = #G − #lab(e) + #H``: both
sequences are repetition-free (:func:`hlc.graphs.validate`), so fusion
identifies exactly ``|ext(H)|`` nodes.  Per rule:

* axiom ``p-handle ⊢ p``: one edge, labeled ``p``, and no interior node.
* ×L, from ``G[e := M] ⊢ A`` to ``G ⊢ A`` with ``lab(e) = ×(M)``:
  ``#G[e := M] = #G − #×(M) + #M = #G``.
* ×R, from ``H_m ⊢ lab(m)`` for every edge ``m`` of ``M`` to
  ``M[m := H_m] ⊢ ×(M)``: ``#M[m := H_m] = #M + Σ (#H_m − #lab(m)) = #×(M)``.
* ÷R, from ``D[$ := G] ⊢ N`` to ``G ⊢ N ÷ D``: ``#D[$ := G] = #D + #G``
  (``$`` counts nothing), which is ``#N`` exactly when ``#G = #N − #D``.
* ÷L, from ``H ⊢ A`` (``H`` with an ``N``-labeled edge ``e``) and
  ``H_d ⊢ lab(d)`` for every non-``$`` edge ``d`` of ``D``, to
  ``H[e := D[$ := N ÷ D, d := H_d]] ⊢ A``: the conclusion counts
  ``#H − #N + #D + (#N − #D) + Σ (#H_d − #lab(d)) = #H``, which is ``#A``.

So an unbalanced sequent is underivable without any search, and the
imbalance of a conclusion is the sum of its premises' imbalances.

**Packing.**  Where many count vectors are summed and compared, each is
packed into one integer (:class:`Packing`).  Fix the ``k`` keys in play, the
node count and the primitives, and a bound ``M``; with ``B = 2M + 1`` a
vector ``c`` packs to ``sum(c_i * B**i)``, with the node count at ``i = 0``
and the primitives after it in sorted order.  Packing is additive, so a sum
of vectors packs to the sum of their packings.  Call a vector *in range*
when its keys are among the ``k`` and its components lie in ``[-M, M]``; it
packs to at most ``M * (B**k - 1) / (B - 1) < B**k`` in size.  Packing is
injective on vectors in range: every component of the difference ``d`` of
two of them lies in ``[-2M, 2M]``, and were ``sum(d_i * B**i)`` zero with
``d`` nonzero, its lowest nonzero component would be
``d_j = -sum(d_i * B**(i-j) for i > j)``, a nonzero multiple of ``B`` of size
at most ``2M < B``, which cannot be.  A vector out of range equals no vector
in range, so :func:`pack_target` packs it to ``B**k``, which no vector in
range reaches.  Hence a packed vector in range equals a packed target
exactly when their counts are equal.  :mod:`hlc.matching` packs a host's
slot sums this way, and :func:`hlc.grammars.hl_member` each relabeling's
sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from . import canon
from .graphs import Hypergraph, is_dollar, validate


class HLType:
    """Base class; concrete types implement ``rank`` and ``canon_key``."""

    def canon_key(self):
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HLType):
            return NotImplemented
        return self.canon_key() == other.canon_key()

    def __hash__(self) -> int:
        return hash(self.canon_key())


class Primitive(HLType):
    """A named primitive type of fixed rank."""

    __slots__ = ("name", "rank", "_key", "_pc", "_report")

    def __init__(self, name: str, rank: int):
        self.name = name
        self.rank = rank
        self._key = ("p", name, rank)
        self._pc = None
        self._report = False  # validate_type's verdict, once known

    def canon_key(self):
        return self._key

    def __repr__(self) -> str:
        return f"{self.name}/{self.rank}"


class Division(HLType):
    """N ÷ D: graphs that fill D's hole so that the filled graph has type N."""

    def __init__(self, numerator: HLType, denominator: Hypergraph):
        self.numerator = numerator
        self.denominator = denominator
        self._key = None
        self._cc = None
        self._pc = None
        self._report = False

    @property
    def rank(self) -> int:
        return len(self.denominator.att[dollar_edge(self.denominator)])

    def canon_key(self):
        if self._key is None:
            self._key = ("d", self.numerator.canon_key(), canon.canonical_key(self.denominator))
        return self._key

    def __repr__(self) -> str:
        return f"({self.numerator!r} div {self.denominator!r})"


class Product(HLType):
    """×(M): all substitution instances of the type-labeled pattern M."""

    def __init__(self, body: Hypergraph):
        self.body = body
        self._key = None
        self._cc = None
        self._pc = None
        self._report = False

    @property
    def rank(self) -> int:
        return self.body.rank

    def canon_key(self):
        if self._key is None:
            self._key = ("x", canon.canonical_key(self.body))
        return self._key

    def __repr__(self) -> str:
        return f"x({self.body!r})"


def dollar_edge(d: Hypergraph) -> int:
    """The unique ``$``-labeled edge of a denominator, cached on it."""
    cached = d.__dict__.get("_hole")
    if cached is None:
        found = [e for e in d.edges if is_dollar(d.lab[e])]
        if len(found) != 1:
            raise ValueError(f"denominator must have exactly one $ edge, found {len(found)}")
        cached = found[0]
        object.__setattr__(d, "_hole", cached)
    return cached


_UNCHECKED = object()


def cached_report(x: object, report) -> str | None:
    """``report(x)``, found once and cached on the frozen value ``x``."""
    cached = x.__dict__.get("_report", _UNCHECKED)
    if cached is _UNCHECKED:
        cached = report(x)
        set_report(x, cached)
    return cached


def set_report(x: object, report: str | None) -> None:
    """Cache on a fresh value ``x`` the verdict that its builder knows."""
    object.__setattr__(x, "_report", report)


def refusal(what: str, report: str) -> str:
    """The one text that refuses invalid input: ``invalid {what}: {report}``."""
    return f"invalid {what}: {report}"


def require_valid(what: str, report: str | None) -> None:
    """Refuse invalid input: raise ``ValueError`` with its :func:`refusal` if reported."""
    if report is not None:
        raise ValueError(refusal(what, report))


def validate_type(t: object) -> str | None:
    """Check a type tree recursively; None or the first violation.  The
    verdict is cached on the type value, so a subtree is checked once."""
    if not isinstance(t, HLType):
        return f"not a type: {t!r}"
    report = t._report
    if report is False:
        report = t._report = _type_report(t)
    return report


def _type_report(t: HLType) -> str | None:
    if isinstance(t, Primitive):
        if t.rank < 0:
            return "negative primitive rank"
        return None
    if isinstance(t, Division):
        d = t.denominator
        report = validate(d)
        if report is not None:
            return f"denominator: {report}"
        try:
            hole = dollar_edge(d)
        except ValueError as exc:
            return str(exc)
        for e in d.edges:
            if e == hole:
                continue
            lab = d.lab[e]
            if not isinstance(lab, HLType):
                return f"denominator edge {e} not labeled by a type"
            sub = validate_type(lab)
            if sub is not None:
                return sub
        sub = validate_type(t.numerator)
        if sub is not None:
            return sub
        if t.numerator.rank != d.rank:
            return (
                f"numerator/denominator rank mismatch "
                f"({t.numerator.rank} vs {d.rank})"
            )
        return None
    if isinstance(t, Product):
        report = validate(t.body)
        if report is not None:
            return f"product body: {report}"
        for e in t.body.edges:
            lab = t.body.lab[e]
            if not isinstance(lab, HLType):
                return f"product body edge {e} not labeled by a type"
            sub = validate_type(lab)
            if sub is not None:
                return sub
        return None
    return f"not a type: {t!r}"


@dataclass(frozen=True, eq=False)
class Sequent:
    """Antecedent hypergraph labeled by types, plus a succedent type."""

    antecedent: Hypergraph
    succedent: HLType

    def canon_key(self):
        cached = self.__dict__.get("_key")
        if cached is None:
            cached = ("S", canon.canonical_key(self.antecedent), self.succedent.canon_key())
            object.__setattr__(self, "_key", cached)
        return cached

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequent):
            return NotImplemented
        return self.canon_key() == other.canon_key()

    def __hash__(self) -> int:
        return hash(self.canon_key())

    def __repr__(self) -> str:
        return f"<Sequent {self.antecedent!r} |- {self.succedent!r}>"


def validate_sequent(s: Sequent) -> str | None:
    """:func:`sequent_report`, cached on the sequent."""
    return cached_report(s, sequent_report)


def sequent_report(s: Sequent) -> str | None:
    """Check rank match, absence of ``$``, and all antecedent label types."""
    report = validate(s.antecedent)
    if report is not None:
        return f"antecedent: {report}"
    sub = validate_type(s.succedent)
    if sub is not None:
        return f"succedent: {sub}"
    for e in s.antecedent.edges:
        lab = s.antecedent.lab[e]
        if is_dollar(lab):
            return f"antecedent edge {e} labeled $"
        if not isinstance(lab, HLType):
            return f"antecedent edge {e} not labeled by a type"
        sub = validate_type(lab)
        if sub is not None:
            return f"antecedent edge {e}: {sub}"
    if s.antecedent.rank != s.succedent.rank:
        return (
            f"rank mismatch: antecedent {s.antecedent.rank}, "
            f"succedent {s.succedent.rank}"
        )
    return None


def connective_count(x: object) -> int:
    """Number of ÷ and × constructors in a type, label, graph, or sequent."""
    if isinstance(x, Sequent):
        cached = x.__dict__.get("_cc")
        if cached is None:
            cached = connective_count(x.antecedent) + connective_count(x.succedent)
            object.__setattr__(x, "_cc", cached)
        return cached
    if isinstance(x, Hypergraph):
        cached = x.__dict__.get("_cc")
        if cached is None:
            cached = _graph_counts(x)[0]
        return cached
    if isinstance(x, Primitive):
        return 0
    if isinstance(x, Division):
        if x._cc is None:
            x._cc = 1 + connective_count(x.numerator) + connective_count(x.denominator)
        return x._cc
    if isinstance(x, Product):
        if x._cc is None:
            x._cc = 1 + connective_count(x.body)
        return x._cc
    return 0  # ranked labels and $


Counts = frozenset[tuple[tuple, int]]  # (primitive canon key or NODES, nonzero count) pairs
NO_COUNTS: Counts = frozenset()
NODES = ("nodes",)  # the node count's key, which no primitive's canon key equals


def add_counts(acc: dict, counts: Counts, sign: int = 1) -> None:
    """Add ``sign`` times ``counts`` into ``acc`` in place, dropping zeros, so
    that two accumulators are equal exactly when their counts are."""
    for key, n in counts:
        total = acc.get(key, 0) + sign * n
        if total:
            acc[key] = total
        else:
            acc.pop(key, None)


class Packing(NamedTuple):
    """Count vectors over fixed keys, each packed into one integer (see the
    module docstring)."""

    places: dict  # count key -> place value, 1 for NODES
    bound: int  # M: a vector is in range when no component lies beyond it
    unreachable: int  # B**k, which no vector in range packs to


def packing(keys, bound: int) -> Packing:
    """The packing over :data:`NODES` and the primitive keys among ``keys``,
    with ``M = bound``."""
    base = 2 * bound + 1
    places = {key: base ** (i + 1) for i, key in enumerate(sorted(set(keys) - {NODES}))}
    places[NODES] = 1
    return Packing(places, bound, base ** len(places))


def pack_counts(counts: Counts, places: dict) -> int:
    """A count vector whose every key has a place as one integer,
    ``sum(n * places[key])``."""
    return sum(n * places[key] for key, n in counts)


def pack_target(counts: Counts, p: Packing) -> int:
    """A count vector packed, or ``p.unreachable`` when it is out of range."""
    places, bound = p.places, p.bound
    total = 0
    for key, n in counts:
        place = places.get(key)
        if place is None or abs(n) > bound:
            return p.unreachable
        total += n * place
    return total


def _graph_counts(g: Hypergraph) -> tuple[int, Counts]:
    """One pass over the edges that caches both the connective count and the
    counts of a graph, its ``int(G)`` interior nodes included."""
    cc = 0
    acc: dict = {}
    if len(g.nodes) != len(g.ext):
        acc[NODES] = len(g.nodes) - len(g.ext)
    for e in g.edges:
        lab = g.lab[e]
        cc += connective_count(lab)
        add_counts(acc, primitive_counts(lab))
    pc = frozenset(acc.items())
    object.__setattr__(g, "_cc", cc)
    object.__setattr__(g, "_pc", pc)
    return cc, pc


def set_counts(g: Hypergraph, cc: int, pc: Counts | None = None) -> None:
    """Cache on a fresh graph the connective count ``cc`` and, unless ``None``,
    the counts ``pc`` (node count included) that its builder knows, so that
    neither is found by a walk of its edges."""
    object.__setattr__(g, "_cc", cc)
    if pc is not None:
        object.__setattr__(g, "_pc", pc)


def primitive_counts(x: object) -> Counts:
    """Signed count per primitive, and node count under :data:`NODES`, of a
    type, label, or graph (see the module docstring); cached on the value,
    like :func:`connective_count`."""
    if isinstance(x, Hypergraph):
        cached = x.__dict__.get("_pc")
        if cached is None:
            cached = _graph_counts(x)[1]
        return cached
    if isinstance(x, Primitive):
        if x._pc is None:
            x._pc = frozenset({(x._key, 1)})
        return x._pc
    if isinstance(x, Division):
        if x._pc is None:
            acc = dict(primitive_counts(x.numerator))
            add_counts(acc, primitive_counts(x.denominator), -1)
            x._pc = frozenset(acc.items())
        return x._pc
    if isinstance(x, Product):
        if x._pc is None:
            x._pc = primitive_counts(x.body)
        return x._pc
    return NO_COUNTS  # ranked labels and $


def is_balanced(s: Sequent) -> bool:
    """Antecedent and succedent have equal counts, node count included; every
    derivable sequent is balanced."""
    return primitive_counts(s.antecedent) == primitive_counts(s.succedent)
