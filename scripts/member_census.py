#!/usr/bin/env python3
"""Decide membership of every small binary graph in the all-graphs and the
bipartite-graphs grammars, and check each answer.

Run from the root of an hlc checkout:

    python3 scripts/member_census.py 3
    python3 scripts/member_census.py 1 2 3 4

The census is ``all_binary_graphs(EDGES)``: one graph per isomorphism class
of binary graphs with each given number of edges, no external and no
isolated nodes.  Each grammar, ``build_hgr1`` (all graphs) and
``build_hgr2`` (bipartite graphs), gets one ``Prover`` for the whole census
and ``hl_member`` at seed 0 with the default budget.  Every verdict is
compared with ``in_l1`` (and ``is_bipartite`` for ``hgr2``), and every
witness tree is checked with ``check_derivation``, outside the timed region.
The census time is the wall time of the ``hl_member`` calls, and is also
scaled as ``scripts/derive_scaling.py`` scales it.  The output is one JSON
object with the provenance of ``derive_scaling.py`` and one entry per
grammar; the exit status is 1 when any verdict disagrees, any witness fails
its check or any query hits its budget.
"""

from __future__ import annotations

import json
import sys
import time

# derive_scaling puts src and perfbench on sys.path, so it comes first.
from derive_scaling import calibration_slice, scale, source_provenance

from hlc.calculus import BudgetExceeded, Prover, check_derivation
from hlc.fixtures import all_binary_graphs, build_hgr1, build_hgr2, in_l1, is_bipartite
from hlc.grammars import MemberWitness, hl_member

GRAMMARS = {
    "hgr1": (build_hgr1, in_l1),
    "hgr2": (build_hgr2, lambda g: in_l1(g) and is_bipartite(g)),
}


def census(name: str, graphs: list) -> dict:
    build, oracle = GRAMMARS[name]
    grammar, prover = build(), Prover()
    results, seconds = [], 0.0
    before = calibration_slice()
    for g in graphs:
        start = time.perf_counter()
        results.append(hl_member(grammar, g, prover=prover))
        seconds += time.perf_counter() - start
    after = calibration_slice()
    entry = {
        "grammar": name,
        "graphs": len(graphs),
        "accepted": 0,
        "scaled_s": round(scale(seconds, (before, after)), 4),
        "wall_s": round(seconds, 4),
        "nodes_expanded": 0,
        "pruned": 0,
        "closed": 0,
        "budget_hits": [],
        "discrepancies": [],
        "bad_witnesses": [],
    }
    for i, (g, result) in enumerate(zip(graphs, results)):
        entry["nodes_expanded"] += result.stats.nodes_expanded
        entry["pruned"] += result.stats.pruned
        entry["closed"] += result.stats.closed
        if isinstance(result, BudgetExceeded):
            entry["budget_hits"].append(i)
            continue
        got = isinstance(result, MemberWitness)
        entry["accepted"] += got
        if got != oracle(g):
            entry["discrepancies"].append({"graph": i, "edges": len(g.edges), "member": got})
        if got and check_derivation(result.tree) is not None:
            entry["bad_witnesses"].append(i)
    return entry


def main(argv: list[str]) -> int:
    if not argv or not all(arg.isdigit() and int(arg) > 0 for arg in argv):
        print("usage: member_census.py EDGES [EDGES ...]  (positive integers)", file=sys.stderr)
        return 2
    graphs = all_binary_graphs(tuple(int(arg) for arg in argv))
    record = source_provenance()
    record["edges"] = [int(arg) for arg in argv]
    record["census"] = [census(name, graphs) for name in GRAMMARS]
    print(json.dumps(record, indent=1))
    failed = any(
        entry["budget_hits"] or entry["discrepancies"] or entry["bad_witnesses"]
        for entry in record["census"]
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
