#!/usr/bin/env python3
"""Regenerate the fixtures/ corpus from the programmatic builders."""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hlc.fixtures import (
    build_hgr1,
    build_hgr2,
    build_sgr,
    build_sgr_hrg,
    build_syntree_hrg,
    sgr_string_graph,
    syntree,
)
from hlc.fmt import print_graph, print_hl_grammar, print_hrg, print_sequent
from hlc.graphs import Hypergraph, RankedLabel, build_graph, handle, string_graph
from hlc.hltypes import Primitive, Product, Sequent
from hlc.suites import kite_graph


def main() -> None:
    out = Path(__file__).resolve().parent.parent / "fixtures"
    out.mkdir(exist_ok=True)
    (out / "sgr.hlg").write_text(print_hl_grammar(build_sgr()))
    (out / "hgr1.hlg").write_text(print_hl_grammar(build_hgr1()))
    (out / "hgr2.hlg").write_text(print_hl_grammar(build_hgr2()))
    (out / "sgr_equiv.hrg").write_text(print_hrg(build_sgr_hrg()))
    (out / "syntree.hrg").write_text(print_hrg(build_syntree_hrg()))
    (out / "syntree.hgf").write_text(print_graph(syntree()))
    aabbb = sgr_string_graph("aabbb")
    (out / "aabbb.hgf").write_text(print_graph(aabbb))
    # The same graph with its nodes and edges renumbered.
    node = {v: (5 * v + 2) % 6 for v in aabbb.nodes}
    edge = {e: 4 - e for e in aabbb.edges}
    renumbered = Hypergraph(
        nodes=tuple(node.values()),
        edges=tuple(edge.values()),
        att={edge[e]: tuple(node[v] for v in aabbb.att[e]) for e in aabbb.edges},
        lab={edge[e]: aabbb.lab[e] for e in aabbb.edges},
        ext=tuple(node[v] for v in aabbb.ext),
    )
    (out / "aabbb_perm.hgf").write_text(print_graph(renumbered))
    (out / "kite.hgf").write_text(print_graph(kite_graph()))

    sgr = build_sgr()
    q, p, s = (t for _, t in sgr.correspondence)
    (out / "sgr_aabbb.seq").write_text(
        print_sequent(Sequent(string_graph([q, q, s, p, p]), sgr.distinguished))
    )
    # Balanced, so it is refuted by search, not by its counts.
    (out / "sgr_qsqpp.seq").write_text(
        print_sequent(Sequent(string_graph([q, s, q, p, p]), sgr.distinguished))
    )
    p2 = Primitive("p", 2)
    (out / "axiom_p.seq").write_text(print_sequent(Sequent(handle(p2), p2)))
    # p p |- p fails under w.val; p x(p.p) |- x(x(p.p).p) holds under any valuation.
    (out / "pp_p.seq").write_text(print_sequent(Sequent(string_graph([p2, p2]), p2)))
    pp = Product(string_graph([p2, p2]))
    (out / "assoc_p.seq").write_text(
        print_sequent(Sequent(string_graph([p2, pp]), Product(string_graph([pp, p2]))))
    )
    # p x(eps) p |- x(p.p) fails under w.val: x(eps) keeps a gap between the p's.
    gap = Product(string_graph([]))
    (out / "gap_pp.seq").write_text(
        print_sequent(Sequent(string_graph([p2, gap, p2]), Product(string_graph([p2, p2]))))
    )

    # A tiny valuation over one rank-2 primitive.
    (out / "g_a.hgf").write_text(print_graph(sgr_string_graph("a")))
    (out / "g_ab.hgf").write_text(print_graph(sgr_string_graph("ab")))
    (out / "w.val").write_text("p/2 = { g_a.hgf , g_ab.hgf }\n")
    # Rank 3 against sgr's rank-2 s; relabeling b by s balances the counts.
    wrong_rank = build_graph([0, 1, 2], [(RankedLabel("b", 2), (0, 1))], ext=(0, 1, 2))
    (out / "b_rank3.hgf").write_text(print_graph(wrong_rank))
    print(f"wrote fixtures to {out}")


if __name__ == "__main__":
    main()
