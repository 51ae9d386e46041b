"""Backward proof search for hypergraph sequents.

The calculus has one axiom (``p-handle |- p`` for primitive ``p``) and four
rules: division elimination and introduction, product elimination and
introduction.  Product elimination and division introduction are reversible,
so search first *normalizes* a sequent by applying them eagerly (expanding
antecedent product labels and rewriting division succedents); on a normal
sequent only the axiom, division elimination, and product introduction can
conclude, and both rules are enumerated exhaustively via :mod:`hlc.matching`.

The rules are those of the hypergraph Lambek calculus (arXiv 2112.11033),
read through hyperedge replacement (Habel, *Hyperedge Replacement: Grammars
and Languages*, LNCS 643, 1992): ``G[e := H]`` removes ``e``, fuses the
external nodes of ``H`` with ``e``'s attachment nodes, and keeps every
interior node of ``H``, isolated or not.  The rule instances are those of
this replacement, so an isolated node of a goal may belong to any part of a
product introduction or division elimination.

Every backward step removes exactly one connective, so the search space is
finite; a failure answer is exact unless a budget was hit along the way:
``NotDerivable`` means the search came back empty over every rule instance
of this calculus that the lemma below keeps.

**Primitive heads.**  Division elimination at a pivot ``N ÷ D`` whose
numerator ``N`` is primitive is tried only when the succedent is ``N``, and
only with contexts that cover the whole antecedent, so that its main premise
is the axiom ``N-handle |- N``.  This loses no derivation:

*Lemma.*  Every derivable normal sequent ``G |- C`` that is not
all-primitive has a derivation whose last rule is product introduction,
division elimination at a pivot whose numerator is not primitive, or
division elimination at a pivot whose primitive numerator is ``C``, with the
axiom as main premise.

*Proof,* by induction on the connective count.  A normal sequent with a
connective is concluded by division elimination or product introduction
only, so take a derivation whose last
rule is division elimination at ``A = N ÷ D``, ``N`` primitive, with main
premise ``H |- C``, where ``H`` holds ``A``'s fresh ``N``-labeled edge ``f``
in place of ``A``'s region.  ``H`` has no product label and ``C`` is not a
division, so ``H |- C`` is normal.  If it is all-primitive, only the axiom
derives it, so ``C = N`` and ``H`` is ``N``'s handle, the whole context.
Otherwise the induction hypothesis gives ``H |- C`` a derivation whose last
rule is product introduction or division elimination at a pivot ``B``, and
``B`` is not ``f``, whose label is primitive.  Two cases remain:

* ``f`` lies in a part, of the product introduction or of ``B``'s context.
  Substituting ``A``'s region for ``f`` in that part gives a part that
  division elimination at ``A`` derives from the part and ``A``'s own
  premises, and the same last rule, with that part, concludes ``G |- C``.
* ``f`` lies outside ``B``'s region, in the main premise ``K |- C`` of the
  elimination at ``B``.  Then ``B`` is not the axiom case (a handle's only
  edge is ``B``'s fresh one), so ``B``'s numerator is not primitive, and
  the two eliminations commute: ``A``'s and ``B``'s regions are disjoint,
  and ``B``'s consumed nodes are not attached to ``f``, so division
  elimination at ``A`` derives ``K[f := A's region] |- C``, and elimination
  at ``B`` then concludes ``G |- C``.

Both cases are instances of hyperedge replacement, isolated nodes included,
since substituting a graph for an edge commutes with substitutions at other
edges.  In each, the last rule is one the lemma allows.  With a product
succedent there is no axiom, so a primitive-numerator pivot is never the
last step there.  The search tries every instance of the allowed rules and
proves the premises by the same search, so by induction on the connective
count it finds a derivation whenever one exists.
Every derivable sequent is balanced, in its primitive counts and in its
node count (see :mod:`hlc.hltypes`), so an unbalanced goal is refuted at
once, and rule instances are enumerated with the typed slot check of
:mod:`hlc.matching`, which never builds one with an unbalanced premise.
The stats count the unbalanced goal and the slot assignments that check
skipped as ``pruned``, and the partial maps its closed-slot cut removed as
``closed``.  Division pivots are tried lazily in edge order, so the search
stops at the first pivot that yields a derivation and never enumerates the
contexts of later ones.
Results are memoized per isomorphism class of the normalized sequent, keyed
by :meth:`hlc.hltypes.Sequent.canon_key`, and shared across calls on the
same :class:`Prover`.  A hit on an isomorphic copy finds its numerator edge
by :func:`hlc.canon.transport_edge`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .canon import canonical_key, transport_edge
from .graphs import handle, handle_label, replace, replace_all
from .hltypes import (
    Division,
    Primitive,
    Product,
    Sequent,
    add_counts,
    connective_count,
    dollar_edge,
    is_balanced,
    primitive_counts,
    require_valid,
    sequent_report,
    set_counts,
    validate_sequent,
)
from .matching import Tally, enumerate_context_extractions, enumerate_decompositions

AXIOM = "axiom"
DIV_LEFT = "div_left"
DIV_RIGHT = "div_right"
TIMES_LEFT = "times_left"
TIMES_RIGHT = "times_right"

DEFAULT_MAX_NODES = 1_000_000


@dataclass(frozen=True)
class DivLeftData:
    pivot_edge: int  # conclusion antecedent edge carrying the division type
    numerator_edge: int  # the numerator-labeled edge in premises[0]'s antecedent


@dataclass(frozen=True)
class TimesLeftData:
    edge: int  # conclusion antecedent edge carrying the product type


@dataclass(frozen=True)
class DerivationTree:
    """A rule-instance tree; re-checkable independently of the prover.

    The rule fixes the order of the premises: division elimination has the
    main premise first, then one premise per non-hole denominator edge in
    edge-id order; product introduction has one premise per body edge in
    edge-id order.
    """

    conclusion: Sequent
    rule: str
    premises: tuple["DerivationTree", ...] = ()
    rule_data: object = None

    def walk(self):
        """Every node in pre-order, without recursion, so any depth is fine."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.premises))

    def size(self) -> int:
        return sum(1 for _ in self.walk())

    def count_rule(self, rule: str) -> int:
        return sum(node.rule == rule for node in self.walk())


@dataclass(frozen=True)
class SearchBudget:
    """The cap on nodes expanded by one query: one ``derive`` call, or one
    whole ``hl_member`` call over all its relabelings.

    There is no depth cap, because search terminates without one: each
    backward step leaves every premise at least one connective short of its
    conclusion (the assert in ``Prover._expand``), normalization only removes
    connectives, and ``Prover._prove`` decides all-primitive sequents before
    its budget check.  So a branch takes at most ``cc(goal)`` backward steps.
    The search recurses a few frames per step, though, so a goal nested
    deeper than the interpreter's recursion limit allows raises
    ``RecursionError`` (``hlc`` reports it as inconclusive).
    """

    max_nodes: int = DEFAULT_MAX_NODES

    def __post_init__(self):
        if self.max_nodes <= 0:
            raise ValueError("the node budget must be positive")


@dataclass(frozen=True)
class SearchStats:
    nodes_expanded: int
    budget_hits: int
    memo_size: int
    # Candidates the count check (primitive and node counts) discarded
    # unsearched: in Prover.derive an unbalanced goal plus the slot
    # assignments the typed check in matching skipped at a leaf; in
    # hl_member, relabelings.
    pruned: int = 0
    # Partial maps the closed-slot cut in matching removed, each with every
    # leaf below it (Tally.closed); hl_member sums it over its relabelings.
    closed: int = 0


@dataclass(frozen=True)
class NotDerivable:
    stats: SearchStats


@dataclass(frozen=True)
class BudgetExceeded:
    stats: SearchStats


def normalize_trace(s: Sequent) -> tuple[Sequent, list[tuple[str, int | None, Sequent]]]:
    """Apply the reversible rules eagerly; return the normal form and the
    applied steps (for rebuilding the corresponding derivation segment).

    Each graph built is given its counts (see :mod:`hlc.hltypes`): ×L keeps
    them and removes one connective; ÷R counts ``#D + #G`` and
    ``cc(D) + cc(G)``."""
    steps: list[tuple[str, int | None, Sequent]] = []
    current = s
    while True:
        g = current.antecedent
        prod_edge = next((e for e in g.edges if isinstance(g.lab[e], Product)), None)
        if prod_edge is not None:
            steps.append((TIMES_LEFT, prod_edge, current))
            expanded = replace(g, prod_edge, g.lab[prod_edge].body)
            set_counts(expanded, connective_count(g) - 1, primitive_counts(g))
            current = Sequent(expanded, current.succedent)
            continue
        if isinstance(current.succedent, Division):
            div = current.succedent
            steps.append((DIV_RIGHT, None, current))
            d = div.denominator
            filled = replace(d, dollar_edge(d), g)
            counts = dict(primitive_counts(d))
            add_counts(counts, primitive_counts(g))
            set_counts(filled, connective_count(d) + connective_count(g), frozenset(counts.items()))
            current = Sequent(filled, div.numerator)
            continue
        return current, steps


def normalize(s: Sequent) -> Sequent:
    """Expand antecedent products and rewrite division succedents to a fixpoint.

    Derivability is preserved in both directions.
    """
    return normalize_trace(s)[0]


def _wrap_trace(tree: DerivationTree, steps) -> DerivationTree:
    for kind, edge, conclusion in reversed(steps):
        if kind == TIMES_LEFT:
            tree = DerivationTree(conclusion, TIMES_LEFT, (tree,), TimesLeftData(edge))
        else:
            tree = DerivationTree(conclusion, DIV_RIGHT, (tree,))
    return tree


class Prover:
    """Backward proof search with a memo table shared across calls.

    The memo holds one entry per isomorphism class of normalized sequents,
    keyed by ``Sequent.canon_key()``, and is append-only; failure is recorded
    only when the subtree search was exhaustive (no budget event occurred
    inside it).  ``last_stats`` holds the stats of the latest ``derive``,
    whatever it returned.
    """

    def __init__(self):
        self.memo: dict[object, DerivationTree | bool] = {}
        self.nodes_expanded = 0
        self.last_stats: SearchStats | None = None
        self._budget_hits = 0
        self._tally = Tally()
        self._node_cap = 0

    def derive(
        self, s: Sequent, budget: SearchBudget | None = None
    ) -> DerivationTree | NotDerivable | BudgetExceeded:
        require_valid("sequent", validate_sequent(s))
        budget = budget or SearchBudget()
        start_nodes, start_hits = self.nodes_expanded, self._budget_hits
        start_pruned, start_closed = self._tally.pruned, self._tally.closed
        self._node_cap = self.nodes_expanded + budget.max_nodes
        if is_balanced(s):
            tree = self._prove(s)
        else:
            tree = None
            self._tally.pruned += 1
        stats = self.last_stats = SearchStats(
            nodes_expanded=self.nodes_expanded - start_nodes,
            budget_hits=self._budget_hits - start_hits,
            memo_size=len(self.memo),
            pruned=self._tally.pruned - start_pruned,
            closed=self._tally.closed - start_closed,
        )
        if tree is not None:
            return tree
        if self._budget_hits > start_hits:
            return BudgetExceeded(stats)
        return NotDerivable(stats)

    def _prove(self, s: Sequent) -> DerivationTree | None:
        nseq, steps = normalize_trace(s)
        quick = self._primitive_answer(nseq)
        if quick is not None:
            return _wrap_trace(quick, steps) if quick else None
        key = nseq.canon_key()
        cached = self.memo.get(key)
        if cached is not None:
            if cached is False:
                return None
            return _wrap_trace(cached, steps)
        if self.nodes_expanded >= self._node_cap:
            self._budget_hits += 1
            return None
        self.nodes_expanded += 1
        hits_before = self._budget_hits
        tree = self._expand(nseq)
        if tree is not None:
            self.memo[key] = tree
            return _wrap_trace(tree, steps)
        if self._budget_hits == hits_before:
            self.memo[key] = False
        return None

    def _primitive_answer(self, nseq: Sequent) -> DerivationTree | None | bool:
        """Decide all-primitive sequents outright: without connectives only
        the axiom can conclude, so derivability is a handle-shape check.
        Returns None when not applicable."""
        succ = nseq.succedent
        if not isinstance(succ, Primitive):
            return None
        if connective_count(nseq) != 0:
            return None
        if handle_label(nseq.antecedent) == succ:
            return DerivationTree(nseq, AXIOM)
        return False

    def _expand(self, nseq: Sequent) -> DerivationTree | None:
        """Try division elimination at each division pivot in edge order, then
        product introduction; return the first derivation.  The axiom never
        applies here: ``_prove`` has already decided every all-primitive
        sequent, and a primitive's handle is all-primitive.  A pivot with a
        primitive numerator is tried only when that numerator is the
        succedent, and only with whole contexts, whose main premise is the
        axiom; the module docstring proves that no verdict changes.

        The enumerators run with the typed slot check, so every part premise
        they yield is balanced.  The conclusion is balanced too (``derive``
        refutes an unbalanced goal, normalization keeps balance, and every
        premise searched is balanced), and then so is the main premise of
        division elimination: the region it replaces counts
        ``#D + #(N ÷ D) + Σ (#H_d − #lab(d))`` (``#D`` holds the ``int(D)``
        nodes that the region consumes), which is ``#N`` when every
        ``#H_d = #lab(d)``, and the fresh edge counts ``#N``, so
        ``#contracted = #g``.
        No premise list needs a balance filter here.

        The enumerators build each premise graph with its counts: a part's
        counts are its label's, its connective count is the sum over its
        edges, and the contracted graph's are, by the same formula, ``#g``
        and ``cc(g) − cc(N ÷ D) − Σ cc(H_d) + cc(N)``.  So the assert
        below and the sort in ``_prove_all`` cost O(1) per premise.
        """
        g, succ = nseq.antecedent, nseq.succedent
        cc = connective_count(nseq)
        for e in g.edges:
            lab = g.lab[e]
            if not isinstance(lab, Division):
                continue
            # A primitive numerator is eliminated only as the whole context
            # of its own succedent (see the module docstring).
            whole = isinstance(lab.numerator, Primitive)
            if whole and lab.numerator != succ:
                continue
            d = lab.denominator
            hole = dollar_edge(d)
            d_edges = [de for de in d.edges if de != hole]
            for extr in enumerate_context_extractions(g, e, lab, typed=self._tally, whole=whole):
                premise_seqs = [Sequent(extr.contracted, succ)] + [
                    Sequent(extr.parts[de], d.lab[de]) for de in d_edges
                ]
                assert sum(connective_count(p) for p in premise_seqs) < cc
                subtrees = self._prove_all(premise_seqs)
                if subtrees is None:
                    continue
                main = subtrees[0]
                actual = main.conclusion.antecedent
                num_edge = (
                    extr.numerator_edge
                    if actual is extr.contracted
                    else transport_edge(extr.contracted, extr.numerator_edge, actual)
                )
                data = DivLeftData(pivot_edge=extr.pivot, numerator_edge=num_edge)
                return DerivationTree(nseq, DIV_LEFT, tuple(subtrees), data)
        if isinstance(succ, Product):
            body = succ.body
            for dec in enumerate_decompositions(g, body, typed=self._tally):
                premise_seqs = [Sequent(dec.parts[m], body.lab[m]) for m in body.edges]
                assert sum(connective_count(p) for p in premise_seqs) < cc
                subtrees = self._prove_all(premise_seqs)
                if subtrees is None:
                    continue
                return DerivationTree(nseq, TIMES_RIGHT, tuple(subtrees))
        return None

    def _prove_all(self, premise_seqs):
        # Cheapest goals first to fail fast; trees reassembled in rule order.
        order = sorted(range(len(premise_seqs)), key=lambda i: connective_count(premise_seqs[i]))
        found: dict[int, DerivationTree] = {}
        for i in order:
            sub = self._prove(premise_seqs[i])
            if sub is None:
                return None
            found[i] = sub
        return [found[i] for i in range(len(premise_seqs))]


def derive(
    s: Sequent, budget: SearchBudget | None = None, *, prover: Prover | None = None
) -> DerivationTree | NotDerivable | BudgetExceeded:
    """Search for a derivation of ``s``; see :class:`Prover`."""
    return (prover or Prover()).derive(s, budget)


def check_derivation(t: DerivationTree) -> str | None:
    """Re-verify a derivation tree against the rule schemata, by reassembly.

    Returns None if every node is a correct instance of its cited rule with
    the recorded rule data, otherwise a description of the first violation
    in pre-order.
    """
    for node in t.walk():
        report = _check_node(node)
        if report is not None:
            return report
    return None


def _check_node(t: DerivationTree) -> str | None:
    """The first way ``t`` fails to instantiate its rule from its premises'
    conclusions, or None; the conclusion is checked afresh, never cached."""
    report = sequent_report(t.conclusion)
    if report is not None:
        return f"invalid conclusion: {report}"
    g, succ = t.conclusion.antecedent, t.conclusion.succedent
    try:
        if t.rule == AXIOM:
            if t.premises:
                return "axiom with premises"
            if not isinstance(succ, Primitive):
                return "axiom with non-primitive succedent"
            if canonical_key(g) != canonical_key(handle(succ)):
                return "axiom antecedent is not the succedent's handle"
        elif t.rule == TIMES_LEFT:
            data = t.rule_data
            if len(t.premises) != 1:
                return "product elimination needs one premise"
            lab = g.lab.get(data.edge)
            if not isinstance(lab, Product):
                return "product elimination edge not labeled by a product"
            premise = t.premises[0]
            if premise.conclusion.succedent != succ:
                return "product elimination premise succedent mismatch"
            expected = replace(g, data.edge, lab.body)
            if canonical_key(premise.conclusion.antecedent) != canonical_key(expected):
                return "product elimination premise antecedent mismatch"
        elif t.rule == DIV_RIGHT:
            if len(t.premises) != 1:
                return "division introduction needs one premise"
            if not isinstance(succ, Division):
                return "division introduction with non-division succedent"
            premise = t.premises[0]
            if premise.conclusion.succedent != succ.numerator:
                return "division introduction premise succedent mismatch"
            d = succ.denominator
            expected = replace(d, dollar_edge(d), g)
            if canonical_key(premise.conclusion.antecedent) != canonical_key(expected):
                return "division introduction premise antecedent mismatch"
        elif t.rule == DIV_LEFT:
            data = t.rule_data
            lab = g.lab.get(data.pivot_edge)
            if not isinstance(lab, Division):
                return "division elimination pivot not labeled by a division"
            d = lab.denominator
            hole = dollar_edge(d)
            d_edges = [e for e in d.edges if e != hole]
            if len(t.premises) != 1 + len(d_edges):
                return "division elimination premise count mismatch"
            main, parts = t.premises[0], t.premises[1:]
            if main.conclusion.succedent != succ:
                return "division elimination main premise succedent mismatch"
            h = main.conclusion.antecedent
            if data.numerator_edge not in h.lab:
                return "division elimination numerator edge missing"
            if h.lab[data.numerator_edge] != lab.numerator:
                return "division elimination numerator edge label mismatch"
            for de, premise in zip(d_edges, parts):
                if premise.conclusion.succedent != d.lab[de]:
                    return "division elimination part premise succedent mismatch"
            fill = {de: p.conclusion.antecedent for de, p in zip(d_edges, parts)}
            fill[hole] = handle(lab)
            composite = replace(h, data.numerator_edge, replace_all(d, fill))
            if canonical_key(composite) != canonical_key(g):
                return "division elimination reassembly does not match the conclusion"
        elif t.rule == TIMES_RIGHT:
            if not isinstance(succ, Product):
                return "product introduction with non-product succedent"
            body = succ.body
            if len(t.premises) != len(body.edges):
                return "product introduction premise count mismatch"
            for m, premise in zip(body.edges, t.premises):
                if premise.conclusion.succedent != body.lab[m]:
                    return "product introduction premise succedent mismatch"
            composite = replace_all(
                body, {m: p.conclusion.antecedent for m, p in zip(body.edges, t.premises)}
            )
            if canonical_key(composite) != canonical_key(g):
                return "product introduction reassembly does not match the conclusion"
        else:
            return f"unknown rule {t.rule!r}"
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        return f"rule data does not fit: {exc}"
    return None


def cut_compose(
    d1: DerivationTree,
    d2: DerivationTree,
    e0: int,
    *,
    prover: Prover | None = None,
    budget: SearchBudget | None = None,
) -> DerivationTree | BudgetExceeded:
    """Substitute the first derivation's sequent into an edge of the second.

    With ``d1`` deriving H -> A and ``d2`` deriving G -> B where edge ``e0`` of
    G is labeled A, returns a checking derivation of G[e0/H] -> B, found by a
    fresh search (cut is admissible, so only a budget can stop it; an outright
    search failure would be a prover bug and raises).
    """
    for name, tree in (("first", d1), ("second", d2)):
        report = check_derivation(tree)
        if report is not None:
            raise ValueError(f"{name} derivation does not check: {report}")
    a = d1.conclusion.succedent
    g = d2.conclusion.antecedent
    if e0 not in g.lab:
        raise KeyError(f"cut edge {e0} not in the second antecedent")
    if g.lab[e0] != a:
        raise ValueError("cut edge label must equal the first succedent")
    composed = Sequent(replace(g, e0, d1.conclusion.antecedent), d2.conclusion.succedent)
    if budget is None:
        budget = SearchBudget(max_nodes=max(DEFAULT_MAX_NODES, 10_000 * (d1.size() + d2.size())))
    result = (prover or Prover()).derive(composed, budget)
    if isinstance(result, (DerivationTree, BudgetExceeded)):
        return result
    raise RuntimeError("cut composite did not re-derive; this indicates a prover bug")
