"""Grammars over hypergraphs.

An HL-grammar pairs a ranked alphabet with a distinguished type and a finite
label-to-type relation; a graph belongs to its language iff some relabeling of
its edges by corresponding types yields a derivable sequent against the
distinguished type.

A hyperedge replacement grammar (HRG) rewrites nonterminal edges by production
right-hand sides, starting from the start symbol's handle.  Generation here is
bounded and exhaustive, which gives an honest desk-scale membership oracle.
A production may mark some terminals as *fixed* technical labels: they do not
count as the designated terminal of a weak-Greibach-normal-form production and
translate to dedicated primitive types under conversion.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, NamedTuple

from .calculus import (
    BudgetExceeded,
    DerivationTree,
    NotDerivable,
    Prover,
    SearchBudget,
    SearchStats,
)
from .canon import canonical_key, representatives
from .graphs import (
    Hypergraph, RankedLabel, dollar, handle, handle_label, relabel, replace, validate
)
from .hltypes import (
    Division,
    HLType,
    NODES,
    Packing,
    Primitive,
    Sequent,
    add_counts,
    cached_report,
    connective_count,
    pack_counts,
    pack_target,
    packing,
    primitive_counts,
    require_valid,
    set_counts,
    set_report,
    validate_type,
)


@dataclass(frozen=True)
class HLGrammar:
    alphabet: tuple[RankedLabel, ...]
    distinguished: HLType
    correspondence: tuple[tuple[RankedLabel, HLType], ...]

    def types_for(self, label: RankedLabel) -> tuple[HLType, ...]:
        """The types corresponding to ``label``, in correspondence order."""
        return tuple(t for t, _ in _lexicon(self).table.get(label, ()))


def validate_hl_grammar(g: HLGrammar) -> str | None:
    """None or the first violation; the verdict is cached on the grammar."""
    return cached_report(g, _hl_grammar_report)


def _hl_grammar_report(g: HLGrammar) -> str | None:
    for a, t in g.correspondence:
        if a not in g.alphabet:
            return f"correspondence label {a!r} not in the alphabet"
        report = validate_type(t)
        if report is not None:
            return f"type for {a!r}: {report}"
        if a.rank != t.rank:
            return f"rank mismatch in correspondence for {a!r}"
    return validate_type(g.distinguished)


class _Lexicon(NamedTuple):
    """What every membership query needs of a grammar, found once and cached
    on it (see :func:`hl_member`)."""

    alphabet: frozenset[RankedLabel]
    table: dict  # label -> ((type, counts), ...), in correspondence order
    keys: frozenset  # the count keys of the corresponding types
    weight: int  # the largest summed absolute counts of a corresponding type
    packed: dict  # M -> (its packing, label -> ((type, packed counts), ...))


def _lexicon(g: HLGrammar) -> _Lexicon:
    """The grammar's :class:`_Lexicon`, cached on it."""
    cached = g.__dict__.get("_lexicon")
    if cached is None:
        table: dict = {}
        for a, t in g.correspondence:
            table.setdefault(a, []).append((t, primitive_counts(t)))
        counts = [c for pairs in table.values() for _, c in pairs]
        cached = _Lexicon(
            alphabet=frozenset(g.alphabet),
            table={a: tuple(pairs) for a, pairs in table.items()},
            keys=frozenset(key for c in counts for key, _ in c),
            weight=max((sum(abs(n) for _, n in c) for c in counts), default=0),
            packed={},
        )
        object.__setattr__(g, "_lexicon", cached)
    return cached


def _packed(lexicon: _Lexicon, edges: int) -> tuple[Packing, dict]:
    """A packing in which every relabeling of ``edges`` edges sums in range,
    and each label's types with their packed counts; cached per ``M``, which
    rounds the edge count up to a power of two so that few are made."""
    bound = lexicon.weight << max(edges - 1, 0).bit_length()
    cached = lexicon.packed.get(bound)
    if cached is None:
        p = packing(lexicon.keys, bound)
        weights = {
            a: tuple((t, pack_counts(c, p.places)) for t, c in pairs)
            for a, pairs in lexicon.table.items()
        }
        cached = lexicon.packed[bound] = (p, weights)
    return cached


def type_set(g: HLGrammar) -> list[HLType]:
    """The range of the correspondence, without duplicates."""
    seen: dict[object, HLType] = {}
    for _, t in g.correspondence:
        seen.setdefault(t.canon_key(), t)
    return list(seen.values())


@dataclass(frozen=True)
class Production:
    lhs: RankedLabel
    rhs: Hypergraph


@dataclass(frozen=True)
class HRG:
    nonterminals: tuple[RankedLabel, ...]
    terminals: tuple[RankedLabel, ...]
    productions: tuple[Production, ...]
    start: RankedLabel
    fixed: frozenset[RankedLabel] = frozenset()  # technical terminals (e.g. tree-order markers)


def validate_hrg(g: HRG) -> str | None:
    """None or the first violation; the verdict is cached on the grammar."""
    return cached_report(g, _hrg_report)


def _hrg_report(g: HRG) -> str | None:
    if set(g.nonterminals) & set(g.terminals):
        return "nonterminals and terminals must be disjoint"
    if g.start not in g.nonterminals:
        return "start symbol must be a nonterminal"
    if not g.fixed <= set(g.terminals):
        return "fixed labels must be terminals"
    known = set(g.nonterminals) | set(g.terminals)
    for i, prod in enumerate(g.productions):
        if prod.lhs not in g.nonterminals:
            return f"production {i}: left-hand side not a nonterminal"
        if prod.rhs.rank != prod.lhs.rank:
            return f"production {i}: rank mismatch"
        report = validate(prod.rhs)
        if report is not None:
            return f"production {i}: {report}"
        for e in prod.rhs.edges:
            if prod.rhs.lab[e] not in known:
                return f"production {i}: unknown label {prod.rhs.lab[e]!r}"
    return None


@dataclass(frozen=True)
class MemberWitness:
    assignment: dict[int, HLType]  # edge -> chosen type
    relabeled: Sequent
    tree: DerivationTree
    stats: SearchStats  # summed over the relabelings tried, as in NotMember


@dataclass(frozen=True)
class NotMember:
    stats: SearchStats


def _relabelings(
    edges: list[int], candidates: list[list[tuple[HLType, int]]], target: int
) -> Iterator[dict[int, HLType] | None]:
    """Every relabeling of ``edges`` by their ``candidates`` (each a type and
    its packed counts), in ``itertools.product`` order, or ``None`` for one
    whose packed counts sum to other than ``target``.  The running sums keep
    the balance check one integer comparison per relabeling."""
    n = len(edges)
    if not n:
        yield {} if target == 0 else None
        return
    chosen: dict[int, HLType] = {}
    sums = [0] * n  # sums[i]: the packed counts of the picks for edges[:i]
    pick = [-1] * n  # pick[i]: the candidate of edges[i] on the current path
    last_edge, last_options = edges[-1], candidates[-1]
    i = 0
    while i >= 0:
        if i == n - 1:
            rest = target - sums[i]
            for t, w in last_options:
                if w == rest:
                    chosen[last_edge] = t
                    yield dict(chosen)
                else:
                    yield None
            i -= 1
            continue
        options = candidates[i]
        pick[i] += 1
        if pick[i] == len(options):
            pick[i] = -1
            i -= 1
            continue
        t, w = options[pick[i]]
        chosen[edges[i]] = t
        sums[i + 1] = sums[i] + w
        i += 1


def hl_member(
    g: HLGrammar,
    graph: Hypergraph,
    budget: SearchBudget | None = None,
    *,
    prover: Prover | None = None,
    seed: int = 0,
) -> MemberWitness | NotMember | BudgetExceeded:
    """Decide membership of ``graph`` in the grammar's language.

    Tries every relabeling of the edges by corresponding types; memoized
    derivability makes isomorphic relabelings cheap.  A relabeling whose
    counts (the graph's interior nodes plus its types', see
    :mod:`hlc.hltypes`) differ from the distinguished type's is unbalanced, so
    underivable, and is skipped before any sequent is built (``pruned`` in the
    stats; ``nodes_expanded`` and ``closed`` sum those of every ``derive``,
    a witness's stats included).  A graph of another rank than the
    distinguished type's is answered ``NotMember`` at once: no relabeling of
    it is a sequent.  A balanced relabeling is built with its counts (the
    distinguished type's), the sum of its types' connective counts and its
    verdict of validity, so ``derive`` walks it neither to count nor to
    validate.  It is valid: its structure is that of ``graph``, which was
    validated; ``relabel`` checks every rank; every new label is a type from
    the validated correspondence, so a valid type and not ``$``; the
    distinguished type is validated; and the two ranks are compared before any relabeling.

    What a query needs of the grammar, each label's types with their counts
    and the alphabet as a set, is found once and cached on the grammar
    value.  Each relabeling's counts are summed as one packed integer (see
    :mod:`hlc.hltypes`), with ``M`` the largest summed absolute counts of a
    corresponding type times the edge count rounded up to a power of two.
    Every relabeling then sums in range, so its packed sum equals the packed
    target exactly when the counts do; a target out of range, such as one
    with more interior nodes than any relabeling counts, packs to a value no
    sum reaches.  The packed candidates are cached on the grammar per ``M``.

    Candidate order is seeded-shuffled so that accepted graphs are usually
    found long before the assignment space is exhausted; a NotMember answer
    always means the space was exhausted without a budget event.

    ``budget`` bounds the whole query: each ``derive`` gets the nodes the
    earlier relabelings left.  A node budget is hit only when it is spent, so
    the first hit ends the query, as does a balanced relabeling met with no
    nodes left.
    """
    require_valid("grammar", validate_hl_grammar(g))
    require_valid("graph", validate(graph))
    lexicon = _lexicon(g)
    packed, weights = _packed(lexicon, len(graph.edges))
    options_of: dict[int, tuple[tuple[HLType, int], ...]] = {}
    for e in graph.edges:
        if graph.lab[e] not in lexicon.alphabet:
            raise ValueError(f"edge {e} labeled outside the grammar alphabet: {graph.lab[e]!r}")
        options_of[e] = weights.get(graph.lab[e], ())
    prover = prover or Prover()
    if graph.rank != g.distinguished.rank:
        return NotMember(SearchStats(0, 0, len(prover.memo)))
    rng = random.Random(seed)
    edges = sorted(options_of, key=lambda e: len(options_of[e]))
    candidates: list[list[tuple[HLType, int]]] = []
    for e in edges:
        options = list(options_of[e])
        rng.shuffle(options)
        candidates.append(options)
    target_counts = primitive_counts(g.distinguished)
    # The types must count the distinguished type's nodes less the graph's own.
    balance = dict(target_counts)
    add_counts(balance, [(NODES, len(graph.nodes) - len(graph.ext))], -1)
    target = pack_target(balance.items(), packed)
    cap = (budget or SearchBudget()).max_nodes
    pruned = 0
    nodes = closed = 0
    for assignment in _relabelings(edges, candidates, target):
        if assignment is None:
            pruned += 1
            continue
        if nodes == cap:
            return BudgetExceeded(SearchStats(nodes, 1, len(prover.memo), pruned, closed))
        relabeled = relabel(graph, assignment)
        set_counts(relabeled, sum(map(connective_count, assignment.values())), target_counts)
        seq = Sequent(relabeled, g.distinguished)
        set_report(seq, None)
        result = prover.derive(seq, SearchBudget(max_nodes=cap - nodes))
        last = prover.last_stats
        nodes += last.nodes_expanded
        closed += last.closed
        if isinstance(result, NotDerivable):
            continue
        stats = SearchStats(nodes, last.budget_hits, len(prover.memo), pruned, closed)
        if isinstance(result, DerivationTree):
            return MemberWitness(assignment=assignment, relabeled=seq, tree=result, stats=stats)
        return BudgetExceeded(stats)
    return NotMember(SearchStats(nodes, 0, len(prover.memo), pruned, closed))


def hrg_generate(g: HRG, max_edges: int, max_steps: int) -> list[Hypergraph]:
    """All terminal graphs reachable within the step bound while every
    intermediate graph stays within the edge bound; canonical duplicates
    removed.  Breadth-first over canonical states, so any derivation order
    that respects the bounds is covered."""
    require_valid("grammar", validate_hrg(g))
    if max_edges <= 0 or max_steps <= 0:
        raise ValueError("bounds must be positive")
    nonterminals = set(g.nonterminals)
    start = handle(g.start)
    frontier = {canonical_key(start): start}
    seen = set(frontier)
    results: list[Hypergraph] = []
    for _ in range(max_steps):
        if not frontier:
            break
        next_frontier: dict[object, Hypergraph] = {}
        for graph in frontier.values():
            nt_edges = [e for e in sorted(graph.edges) if graph.lab[e] in nonterminals]
            if not nt_edges:
                results.append(graph)
                continue
            for e in nt_edges:
                for prod in g.productions:
                    if prod.lhs != graph.lab[e]:
                        continue
                    successor = replace(graph, e, prod.rhs)
                    if len(successor.edges) > max_edges:
                        continue
                    key = canonical_key(successor)
                    if key not in seen:
                        seen.add(key)
                        next_frontier[key] = successor
        frontier = next_frontier
    for graph in frontier.values():
        if not any(graph.lab[e] in nonterminals for e in graph.edges):
            results.append(graph)
    return representatives(results)


def _membership_bounds(g: HRG, n_edges: int) -> tuple[int, int]:
    # A WGNF derivation of an n-edge graph applies exactly n productions and
    # never holds more than n edges; otherwise fall back to generous bounds,
    # padding the edge bound when erasing productions can overshoot.
    max_rhs = max((len(p.rhs.edges) for p in g.productions), default=0)
    if is_wgnf(g):
        return n_edges, max(n_edges, 1)
    steps = max(1, n_edges * (1 + max_rhs))
    erasing = any(not p.rhs.edges for p in g.productions)
    edge_bound = n_edges + (steps if erasing else 0)
    return max(edge_bound, 1), steps


def hrg_member(g: HRG, graph: Hypergraph) -> bool:
    """Bounded-exhaustive membership: generate everything of the right size."""
    require_valid("grammar", validate_hrg(g))
    if any(graph.lab[e] not in g.terminals for e in graph.edges):
        return False
    max_edges, max_steps = _membership_bounds(g, len(graph.edges))
    key = canonical_key(graph)
    return any(canonical_key(h) == key for h in hrg_generate(g, max_edges, max_steps))


def designated_terminal_edges(g: HRG, rhs: Hypergraph) -> list[int]:
    """Edges of a right-hand side labeled by non-fixed terminals."""
    terminals = set(g.terminals) - g.fixed
    return [e for e in sorted(rhs.edges) if rhs.lab[e] in terminals]


def is_wgnf(g: HRG) -> bool:
    """Every production carries exactly one designated terminal edge."""
    return all(len(designated_terminal_edges(g, p.rhs)) == 1 for p in g.productions)


def _nonterminal_primitive(x: RankedLabel) -> Primitive:
    return Primitive(x.name, x.rank)


def _fixed_primitive(x: RankedLabel) -> Primitive:
    return Primitive(f"p_{x.name}", x.rank)


def wgnf_to_hl(g: HRG, *, keep_trivial_divisions: bool = False) -> HLGrammar:
    """Convert a weak-Greibach-normal-form HRG into an equivalent HL-grammar.

    Each production contributes one correspondence: the designated terminal
    edge becomes the denominator hole, every nonterminal edge is relabeled by
    a primitive standing for that nonterminal, and every fixed terminal by its
    dedicated primitive.  A production whose right-hand side is just the
    terminal's handle collapses to a bare primitive correspondence unless
    ``keep_trivial_divisions`` is set (the two forms are interderivable).
    """
    require_valid("grammar", validate_hrg(g))
    if not is_wgnf(g):
        raise ValueError("grammar is not in weak Greibach normal form")
    nonterminals = set(g.nonterminals)
    correspondence: list[tuple[RankedLabel, HLType]] = []
    seen = set()
    for prod in g.productions:
        terminal_edge = designated_terminal_edges(g, prod.rhs)[0]
        a = prod.rhs.lab[terminal_edge]
        lhs_type = _nonterminal_primitive(prod.lhs)
        relabeling: dict[int, object] = {}
        for e in prod.rhs.edges:
            lab = prod.rhs.lab[e]
            if e == terminal_edge:
                relabeling[e] = dollar(a.rank)
            elif lab in nonterminals:
                relabeling[e] = _nonterminal_primitive(lab)
            else:  # a valid grammar in WGNF leaves only fixed terminals
                relabeling[e] = _fixed_primitive(lab)
        denominator = relabel(prod.rhs, relabeling)
        t: HLType
        if handle_label(denominator) is not None and not keep_trivial_divisions:
            t = lhs_type
        else:
            t = Division(lhs_type, denominator)
        key = (a, t.canon_key())
        if key not in seen:
            seen.add(key)
            correspondence.append((a, t))
    for x in sorted(g.fixed, key=lambda l: (l.name, l.rank)):
        correspondence.append((x, _fixed_primitive(x)))
    alphabet = tuple(sorted(set(g.terminals), key=lambda l: (l.name, l.rank)))
    return HLGrammar(
        alphabet=alphabet,
        distinguished=_nonterminal_primitive(g.start),
        correspondence=tuple(correspondence),
    )
