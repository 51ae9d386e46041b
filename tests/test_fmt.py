from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from hlc.calculus import DerivationTree, check_derivation
from hlc.canon import isomorphic
from hlc.fixtures import build_hgr1, build_sgr, build_syntree_hrg, build_sgr_hrg
from hlc.fmt import (
    ParseError,
    graph_from_json,
    graph_to_json,
    parse_graph,
    parse_hl_grammar,
    parse_hrg,
    parse_sequent,
    parse_type,
    parse_valuation_lines,
    print_graph,
    print_hl_grammar,
    print_hrg,
    print_sequent,
    print_type,
    tree_from_json,
    tree_to_json,
)
from hlc.grammars import HRG, Production
from hlc.graphs import RankedLabel, build_graph, dollar, string_graph
from hlc.hltypes import Division, Primitive, Product, Sequent

A = RankedLabel("a", 2)
B = RankedLabel("b", 2)
S2 = Primitive("s", 2)
P2 = Primitive("p", 2)
Q = Division(S2, string_graph([dollar(2), S2, P2]))


def test_graph_round_trip():
    g = string_graph([A, B, B])
    back = parse_graph(print_graph(g))
    assert isomorphic(g, back) is not None


def test_graph_round_trip_canonical_bytes():
    from tests.test_canon import permute, random_graph

    rng = random.Random(5)
    for _ in range(30):
        g = random_graph(rng)
        h = permute(g, rng)
        assert print_graph(g, canonical=True) == print_graph(h, canonical=True)
        back = parse_graph(print_graph(g, canonical=True), mode="symbol")
        assert isomorphic(g, back) is not None


def test_non_isomorphic_graphs_print_differently():
    assert print_graph(string_graph([A, B]), canonical=True) != print_graph(
        string_graph([B, A]), canonical=True
    )


def test_type_round_trip():
    for t in (S2, Q, Product(string_graph([Q, P2])), Division(P2, string_graph([dollar(2)]))):
        assert parse_type(print_type(t)) == t


def test_sequent_round_trip():
    seq = Sequent(string_graph([Q, S2, P2]), S2)
    assert parse_sequent(print_sequent(seq)) == seq
    canonical = print_sequent(seq, canonical=True)
    assert parse_sequent(canonical) == seq


def _two_fixed_labels_hrg() -> HRG:
    s = RankedLabel("S", 2)
    l1, l2 = RankedLabel("l", 1), RankedLabel("l", 2)
    rhs = build_graph([0, 1], [(l2, (0, 1)), (l1, (0,))], (0, 1))
    return HRG(
        nonterminals=(s,),
        terminals=(l1, l2),
        productions=(Production(s, rhs),),
        start=s,
        fixed=frozenset({l1, l2}),
    )


def test_grammar_round_trips():
    for grammar in (build_sgr(), build_hgr1()):
        back = parse_hl_grammar(print_hl_grammar(grammar))
        assert back.alphabet == grammar.alphabet
        assert back.distinguished == grammar.distinguished
        assert len(back.correspondence) == len(grammar.correspondence)
        for (a, t), (b, u) in zip(back.correspondence, grammar.correspondence):
            assert a == b and t == u
    for hrg in (build_syntree_hrg(), build_sgr_hrg(), _two_fixed_labels_hrg()):
        back = parse_hrg(print_hrg(hrg))
        assert back.nonterminals == hrg.nonterminals
        assert back.terminals == hrg.terminals
        assert back.fixed == hrg.fixed
        assert back.start == hrg.start
        assert len(back.productions) == len(hrg.productions)
        for p, q in zip(back.productions, hrg.productions):
            assert p.lhs == q.lhs and isomorphic(p.rhs, q.rhs) is not None


def test_fixed_labels_print_the_same_under_every_hash_seed():
    # Labels that share a name iterate in hash order, which PYTHONHASHSEED
    # changes from one interpreter to the next.
    text = print_hrg(_two_fixed_labels_hrg())
    assert "fixed: l/1 l/2\n" in text
    root = Path(__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    script = (
        "import sys; from hlc.fmt import parse_hrg, print_hrg; "
        "print(print_hrg(parse_hrg(sys.argv[1])), end='')"
    )
    for seed in range(4):
        env = {**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": str(seed)}
        done = subprocess.run(
            [sys.executable, "-c", script, text], capture_output=True, text=True, env=env
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == text


def test_valuation_lines():
    entries = parse_valuation_lines("p/2 = { g1.hgf , g2.hgf }\nq/1 = { }\n")
    assert entries[0][0] == Primitive("p", 2)
    assert entries[0][1] == ["g1.hgf", "g2.hgf"]
    assert entries[1] == (Primitive("q", 1), [])


def test_parse_diagnostics_cite_constraints():
    with pytest.raises(ParseError) as err:
        parse_graph("nodes: v0\next: v0\nedge e0 a/2 : v0 v0\n")
    assert "repeated attachment" in str(err.value)
    assert err.value.line == 3
    with pytest.raises(ParseError) as err:
        parse_graph("nodes: v0 v1\nedge e0 a/3 : v0 v1\n")
    assert "rank mismatch" in str(err.value)


def test_parse_diagnostics_position():
    with pytest.raises(ParseError) as err:
        parse_graph("nodes: v0\nedge e0 a/2 v0\n")
    assert err.value.line == 2
    with pytest.raises(ParseError):
        parse_type("div(prim s/2 ; oops)")
    with pytest.raises(ParseError):
        parse_graph("nodes: v0 v1\nedge e0 $/2 : v0 v1\n")  # $ reserved in symbol mode


def test_invalid_hl_grammar_is_a_parse_error():
    text = print_hl_grammar(build_sgr()) + "map a/2 -> prim s/1\n"
    with pytest.raises(ParseError) as err:
        parse_hl_grammar(text)
    assert "rank mismatch" in str(err.value)


def test_comments_and_blank_lines():
    text = "# a chain\nnodes: x y\n\next: x y\n# the only edge\nedge e a/2 : x y\n"
    g = parse_graph(text)
    assert isomorphic(g, string_graph([A])) is not None


def test_graph_json_round_trip():
    g = string_graph([Q, S2])
    back = graph_from_json(graph_to_json(g))
    assert isomorphic(g, back) is not None
    assert back.lab[0] == Q


def test_tree_json_round_trip_checks(prover):
    seq = Sequent(string_graph([Q, Q, S2, P2, P2]), S2)
    tree = prover.derive(seq)
    assert isinstance(tree, DerivationTree)
    blob = json.dumps(tree_to_json(tree))
    back = tree_from_json(json.loads(blob))
    assert check_derivation(back) is None
    assert back.conclusion == tree.conclusion
    assert back.count_rule("div_left") == tree.count_rule("div_left")


def test_tree_json_covers_reversible_rules(prover):
    n = Product(string_graph([P2, S2]))
    seq = Sequent(
        string_graph([Product(string_graph([P2]))]),
        Division(n, string_graph([dollar(2), S2])),
    )
    tree = prover.derive(seq)
    assert isinstance(tree, DerivationTree)
    assert tree.count_rule("div_right") >= 1 and tree.count_rule("times_left") >= 1
    back = tree_from_json(json.loads(json.dumps(tree_to_json(tree))))
    assert check_derivation(back) is None


def test_trees_written_with_part_order_load_and_check():
    """Trees as hlc wrote them when ``div_left`` and ``times_right`` nodes
    carried a ``part_order``: the ``hlc derive --emit-tree`` output for
    ``fixtures/sgr_aabbb.seq``, then ``q s p |- s`` and ``p q |- x(p q)``.
    Every such order was the one the rule now fixes, so the key is ignored,
    and writing the tree back gives the same JSON without it."""
    blobs = json.loads((Path(__file__).resolve().parent / "legacy_trees.json").read_text())
    rules = set()
    for blob in blobs:
        tree = tree_from_json(blob)
        assert check_derivation(tree) is None
        rules.update(node.rule for node in tree.walk())
        written = tree_to_json(tree)
        assert "part_order" not in json.dumps(written)
        assert written == _without_part_order(blob)
    assert {"div_left", "times_right"} <= rules


def _without_part_order(blob: dict) -> dict:
    data = {k: v for k, v in (blob["rule_data"] or {}).items() if k != "part_order"}
    premises = [_without_part_order(p) for p in blob["premises"]]
    return {**blob, "rule_data": data or None, "premises": premises}


def test_sequent_round_trip_preserves_derivability(prover):
    seq = Sequent(string_graph([Q, S2, P2]), S2)
    text = print_sequent(seq)
    assert isinstance(prover.derive(parse_sequent(text)), DerivationTree)


def test_graph_json_labels_parse_as_one_label():
    g = string_graph([Q, S2])
    blob = graph_to_json(g)
    assert blob["edges"][0]["label"].startswith("(")
    assert graph_from_json(blob).lab[0] == Q
    blob["edges"][0]["label"] += " s/2"
    with pytest.raises(ParseError, match="trailing input after label"):
        graph_from_json(blob)
