"""Command-line interface.

Exit codes: 0 affirmative result, 1 negative result, 2 usage or format error,
3 inconclusive (the node budget ran out, ``derive`` or ``member`` nested
deeper than the interpreter's recursion limit, or a model check fell outside
the exact fragment).  ``--budget-nodes`` is the one search setting: it caps the
nodes expanded by one query, that is one ``derive``, or one membership
question of ``member`` or ``suite`` over all its relabelings.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .calculus import (
    DEFAULT_MAX_NODES,
    BudgetExceeded,
    DerivationTree,
    Prover,
    SearchBudget,
    check_derivation,
)
from .canon import isomorphic
from .fixtures import in_l1, is_bipartite, is_regular
from .fmt import (
    ParseError,
    parse_graph,
    parse_hl_grammar,
    parse_hrg,
    parse_sequent,
    parse_valuation_lines,
    print_graph,
    print_hl_grammar,
    print_type,
    tree_to_json,
)
from .grammars import MemberWitness, hl_member, hrg_generate, is_wgnf, wgnf_to_hl
from .hltypes import require_valid
from .matching import enumerate_decompositions
from .models import UNDECIDED, Valuation, sequent_holds, validate_valuation
from .suites import SUITES, run_suite

EXIT_YES = 0
EXIT_NO = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise SystemExit(f"error: cannot read {path}: {exc}") from exc


def _positive(raw, source: str) -> int:
    """``raw`` as an int; a value that is not a positive integer is a usage
    error that names ``source``."""
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value <= 0:
        raise SystemExit(f"error: {source} must be a positive integer, not {raw!r}")
    return value


def _budget(args) -> SearchBudget:
    return SearchBudget(max_nodes=_positive(args.budget_nodes, "--budget-nodes"))


def _add_budget_flag(sub) -> None:
    sub.add_argument("--budget-nodes", type=int, default=DEFAULT_MAX_NODES)


def _budget_exceeded(budget: SearchBudget, result: BudgetExceeded) -> int:
    print(
        f"budget exceeded: node budget {budget.max_nodes} spent "
        f"({result.stats.nodes_expanded} nodes expanded)"
    )
    return EXIT_INCONCLUSIVE


def _checked_emit(tree: DerivationTree, emit_tree: str | None) -> bool:
    """Check a tree the search produced and write it to ``--emit-tree``, if
    given; False, after reporting an internal error, when the check fails."""
    report = check_derivation(tree)
    if report is not None:
        print(f"internal error: produced tree fails verification: {report}")
        return False
    if emit_tree:
        Path(emit_tree).write_text(json.dumps(tree_to_json(tree), indent=1))
    return True


def cmd_derive(args) -> int:
    seq = parse_sequent(_read(args.sequent))
    budget = _budget(args)
    result = Prover().derive(seq, budget)
    if isinstance(result, DerivationTree):
        if not _checked_emit(result, args.emit_tree):
            return EXIT_USAGE
        print(f"derivable ({result.size()} tree nodes)")
        return EXIT_YES
    if isinstance(result, BudgetExceeded):
        return _budget_exceeded(budget, result)
    print("not derivable")
    return EXIT_NO


def cmd_member(args) -> int:
    grammar = parse_hl_grammar(_read(args.grammar))
    graph = parse_graph(_read(args.graph), mode="symbol")
    budget = _budget(args)
    try:
        result = hl_member(grammar, graph, budget, seed=args.seed)
    except ValueError as exc:
        print(f"error: {exc}")
        return EXIT_USAGE
    if isinstance(result, MemberWitness):
        if not _checked_emit(result.tree, args.emit_tree):
            return EXIT_USAGE
        print("member")
        for e in sorted(result.assignment):
            print(f"  edge {e} : {print_type(result.assignment[e])}")
        return EXIT_YES
    if isinstance(result, BudgetExceeded):
        return _budget_exceeded(budget, result)
    print("not a member")
    return EXIT_NO


def cmd_hrg_generate(args) -> int:
    max_edges = _positive(args.max_edges, "--max-edges")
    max_steps = 4 * max_edges
    if args.max_steps is not None:
        max_steps = _positive(args.max_steps, "--max-steps")
    grammar = parse_hrg(_read(args.grammar))
    graphs = hrg_generate(grammar, max_edges, max_steps)
    for i, g in enumerate(graphs):
        if i:
            print("---")
        print(print_graph(g, canonical=args.canonical), end="")
    print(f"# {len(graphs)} graphs", file=sys.stderr)
    return EXIT_YES


def cmd_convert(args) -> int:
    grammar = parse_hrg(_read(args.infile))
    if not is_wgnf(grammar):
        print("error: grammar is not in weak Greibach normal form")
        return EXIT_NO
    converted = wgnf_to_hl(grammar, keep_trivial_divisions=args.keep_trivial_divisions)
    text = print_hl_grammar(converted)
    if args.out:
        Path(args.out).write_text(text)
    else:
        print(text, end="")
    return EXIT_YES


def cmd_iso(args) -> int:
    g = parse_graph(_read(args.first), mode=args.mode)
    h = parse_graph(_read(args.second), mode=args.mode)
    if args.canonical:
        print(print_graph(g, canonical=True), end="")
        print("---")
        print(print_graph(h, canonical=True), end="")
    witness = isomorphic(g, h)
    if witness is None:
        print("not isomorphic")
        return EXIT_NO
    print("isomorphic")
    print("  nodes:", " ".join(f"{a}->{b}" for a, b in sorted(witness.node_map.items())))
    print("  edges:", " ".join(f"{a}->{b}" for a, b in sorted(witness.edge_map.items())))
    return EXIT_YES


def cmd_match(args) -> int:
    host = parse_graph(_read(args.host), mode="type")
    pattern = parse_graph(_read(args.pattern), mode="type")
    count = 0
    for dec in enumerate_decompositions(host, pattern):
        count += 1
        print(f"decomposition {count}:")
        print("  node map:", " ".join(f"{a}->{b}" for a, b in sorted(dec.node_map.items())))
        for m in sorted(dec.parts):
            edges = " ".join(str(e) for e in sorted(dec.part_edges[m])) or "-"
            nodes = " ".join(str(v) for v in dec.parts[m].nodes)
            print(f"  part for pattern edge {m}: host edges {edges}, nodes {nodes}")
    print(f"{count} decompositions")
    return EXIT_YES if count else EXIT_NO


def cmd_model_check(args) -> int:
    val_path = Path(args.valuation)
    entries = parse_valuation_lines(_read(args.valuation))
    assignment = []
    alphabet: dict = {}
    for prim, files in entries:
        graphs = []
        for name in files:
            g = parse_graph(_read(str(val_path.parent / name)), mode="symbol")
            graphs.append(g)
            for e in g.edges:
                alphabet.setdefault(g.lab[e])
        assignment.append((prim, tuple(graphs)))
    valuation = Valuation(alphabet=tuple(alphabet), assignment=tuple(assignment))
    try:
        require_valid("valuation", validate_valuation(valuation))
    except ValueError as exc:
        print(f"error: {exc}")
        return EXIT_USAGE
    seq = parse_sequent(_read(args.sequent))
    verdict = sequent_holds(valuation, seq)
    if verdict is UNDECIDED:
        print("undecided (outside the exactly checkable fragment)")
        return EXIT_INCONCLUSIVE
    print("holds" if verdict else "fails")
    return EXIT_YES if verdict else EXIT_NO


def cmd_oracle(args) -> int:
    g = parse_graph(_read(args.graph), mode="symbol")
    try:
        verdict = {"bipartite": is_bipartite, "regular": is_regular, "l1": in_l1}[args.check](g)
    except ValueError as exc:
        print(f"error: {exc}")
        return EXIT_USAGE
    print("yes" if verdict else "no")
    return EXIT_YES if verdict else EXIT_NO


def cmd_suite(args) -> int:
    budget = _budget(args)
    report = run_suite(args.name, seed=args.seed, budget=budget)
    text = json.dumps(report, indent=1)
    if args.out:
        Path(args.out).write_text(text)
    print(text)
    return EXIT_YES if report["failures"] == 0 else EXIT_NO


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hlc", description="hypergraph Lambek calculus toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("derive", help="search for a derivation of a sequent file")
    p.add_argument("sequent")
    p.add_argument("--emit-tree", metavar="OUT.json")
    _add_budget_flag(p)
    p.set_defaults(fn=cmd_derive)

    p = sub.add_parser("member", help="grammar membership for a graph")
    p.add_argument("--grammar", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--emit-tree", metavar="OUT.json")
    p.add_argument("--seed", type=int, default=0)
    _add_budget_flag(p)
    p.set_defaults(fn=cmd_member)

    p = sub.add_parser("hrg-generate", help="bounded exhaustive generation")
    p.add_argument("--grammar", required=True)
    p.add_argument("--max-edges", type=int, required=True)
    p.add_argument("--max-steps", type=int, default=None)
    p.add_argument("--canonical", action="store_true")
    p.set_defaults(fn=cmd_hrg_generate)

    p = sub.add_parser("convert", help="convert a WGNF graph grammar to types")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out")
    p.add_argument("--keep-trivial-divisions", action="store_true")
    p.set_defaults(fn=cmd_convert)

    p = sub.add_parser("iso", help="isomorphism check for two graph files")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--mode", choices=("symbol", "type"), default="symbol")
    p.add_argument("--canonical", action="store_true")
    p.set_defaults(fn=cmd_iso)

    p = sub.add_parser(
        "match",
        help="print every decomposition of a host by a pattern; each differs from the "
        "others in node map, part edges or how many isolated nodes each part takes, but "
        "parts may be isomorphic",
    )
    p.add_argument("--host", required=True)
    p.add_argument("--pattern", required=True)
    p.set_defaults(fn=cmd_match)

    p = sub.add_parser("model-check", help="truth of a sequent under a finite valuation")
    p.add_argument("--valuation", required=True)
    p.add_argument("--sequent", required=True)
    p.set_defaults(fn=cmd_model_check)

    p = sub.add_parser("oracle", help="first-principles graph predicates")
    p.add_argument("--check", choices=("bipartite", "regular", "l1"), required=True)
    p.add_argument("graph")
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("suite", help="run a batch experiment suite")
    p.add_argument("name", choices=list(SUITES))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", metavar="REPORT.json")
    _add_budget_flag(p)
    p.set_defaults(fn=cmd_suite)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except RecursionError:
        if args.fn not in (cmd_derive, cmd_member):
            raise
        print(
            "recursion limit exceeded: the search nests deeper than the interpreter's "
            f"recursion limit ({sys.getrecursionlimit()} frames)"
        )
        return EXIT_INCONCLUSIVE
    except ParseError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return EXIT_USAGE
        raise


if __name__ == "__main__":
    sys.exit(main())
