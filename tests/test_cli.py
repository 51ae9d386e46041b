from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from hlc import cli
from hlc.calculus import BudgetExceeded, SearchBudget, check_derivation
from hlc.cli import EXIT_USAGE, main
from hlc.fixtures import build_sgr, build_sgr_hrg, sgr_string_graph
from hlc.fmt import parse_graph, parse_hl_grammar, parse_type, print_graph, print_hl_grammar, print_hrg, print_sequent, tree_from_json
from hlc.grammars import hl_member
from hlc.graphs import build_graph, dollar, handle, string_graph, RankedLabel
from hlc.hltypes import Division, Primitive, Product, Sequent
from hlc.suites import SUITES, run_suite

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


@pytest.fixture()
def workdir(tmp_path: Path) -> Path:
    sgr = build_sgr()
    (tmp_path / "sgr.hlg").write_text(print_hl_grammar(sgr))
    (tmp_path / "sgr.hrg").write_text(print_hrg(build_sgr_hrg()))
    (tmp_path / "aabbb.hgf").write_text(print_graph(sgr_string_graph("aabbb")))
    (tmp_path / "ab.hgf").write_text(print_graph(sgr_string_graph("ab")))
    q, p, s = (t for _, t in sgr.correspondence)
    seq = Sequent(string_graph([q, s, p]), sgr.distinguished)
    (tmp_path / "good.seq").write_text(print_sequent(seq))
    deep = Sequent(string_graph([q, q, s, p, p]), sgr.distinguished)
    (tmp_path / "deep.seq").write_text(print_sequent(deep))
    bad = Sequent(string_graph([p, s]), sgr.distinguished)
    (tmp_path / "bad.seq").write_text(print_sequent(bad))
    p2 = Primitive("p", 2)
    (tmp_path / "axiom.seq").write_text(print_sequent(Sequent(handle(p2), p2)))
    (tmp_path / "a.hgf").write_text(print_graph(sgr_string_graph("a")))
    (tmp_path / "w.val").write_text("p/2 = { a.hgf }\n")
    (tmp_path / "host.hgf").write_text(
        "nodes: 0 1 2\next: 0 2\nedge e0 p/2 : 0 1\nedge e1 q/2 : 1 2\n"
    )
    (tmp_path / "pattern.hgf").write_text("nodes: 0 1\next: 0 1\nedge m T/2 : 0 1\n")
    (tmp_path / "broken.hgf").write_text("nodes: v\nedge e0 a/2 : v v\n")
    return tmp_path


def test_derive_exit_codes(workdir):
    assert main(["derive", str(workdir / "good.seq")]) == 0
    assert main(["derive", str(workdir / "bad.seq")]) == 1


def test_balanced_fixture_sequent_is_refuted_by_search(capsys):
    assert main(["derive", str(FIXTURES / "sgr_qsqpp.seq")]) == 1
    assert capsys.readouterr().out == "not derivable\n"


def test_derive_emits_checkable_tree(workdir, capsys):
    out = workdir / "tree.json"
    assert main(["derive", str(workdir / "good.seq"), "--emit-tree", str(out)]) == 0
    tree = tree_from_json(json.loads(out.read_text()))
    assert check_derivation(tree) is None


def test_derive_budget_exit(workdir, capsys):
    assert main(["derive", str(workdir / "deep.seq"), "--budget-nodes", "1"]) == 3
    assert capsys.readouterr().out.startswith("budget exceeded: node budget 1 spent (")


def test_member_exit_codes(workdir):
    args = ["member", "--grammar", str(workdir / "sgr.hlg")]
    assert main(args + ["--graph", str(workdir / "aabbb.hgf")]) == 0
    assert main(args + ["--graph", str(workdir / "ab.hgf")]) == 1


def test_member_refuses_a_graph_of_the_wrong_rank(capsys):
    args = ["member", "--grammar", str(FIXTURES / "sgr.hlg")]
    assert main(args + ["--graph", str(FIXTURES / "b_rank3.hgf")]) == 1
    assert capsys.readouterr().out == "not a member\n"


def test_member_budget_exit_names_the_nodes_expanded(capsys):
    """An inconclusive membership answer reports the nodes the prover expanded,
    summed over the relabelings tried, as ``hlc derive`` does; the budget
    bounds that sum, and running out between relabelings is a budget event."""
    grammar, graph = FIXTURES / "hgr1.hlg", FIXTURES / "kite.hgf"
    args = ["member", "--grammar", str(grammar), "--graph", str(graph), "--budget-nodes", "1"]
    assert main(args) == 3
    result = hl_member(
        parse_hl_grammar(grammar.read_text()),
        parse_graph(graph.read_text(), mode="symbol"),
        SearchBudget(max_nodes=1),
    )
    assert isinstance(result, BudgetExceeded) and result.stats.nodes_expanded <= 1
    expected = (
        f"budget exceeded: node budget 1 spent ({result.stats.nodes_expanded} nodes expanded)"
    )
    assert capsys.readouterr().out.strip() == expected


def test_member_prints_witness_types_in_the_input_syntax(capsys):
    grammar, graph = FIXTURES / "hgr1.hlg", FIXTURES / "kite.hgf"
    assert main(["member", "--grammar", str(grammar), "--graph", str(graph)]) == 0
    result = hl_member(
        parse_hl_grammar(grammar.read_text()), parse_graph(graph.read_text(), mode="symbol")
    )
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "member"
    assert len(lines) == 1 + len(result.assignment)
    for line in lines[1:]:
        edge, printed = line.strip().removeprefix("edge ").split(" : ", 1)
        assert parse_type(printed) == result.assignment[int(edge)]


def test_member_emits_tree(workdir):
    out = workdir / "member.json"
    assert (
        main(
            [
                "member",
                "--grammar",
                str(workdir / "sgr.hlg"),
                "--graph",
                str(workdir / "aabbb.hgf"),
                "--emit-tree",
                str(out),
            ]
        )
        == 0
    )
    tree = tree_from_json(json.loads(out.read_text()))
    assert check_derivation(tree) is None


def test_member_rejects_unverifiable_witness(workdir, monkeypatch, capsys):
    """A witness tree that fails check_derivation is an internal error: exit 2,
    and no tree is written."""
    real_member = cli.hl_member

    def broken_member(*args, **kw):
        witness = real_member(*args, **kw)
        return replace(witness, tree=replace(witness.tree, rule="no such rule"))

    monkeypatch.setattr(cli, "hl_member", broken_member)
    out = workdir / "member.json"
    args = ["member", "--grammar", str(workdir / "sgr.hlg"), "--graph", str(workdir / "aabbb.hgf")]
    assert main(args + ["--emit-tree", str(out)]) == EXIT_USAGE
    assert "internal error" in capsys.readouterr().out
    assert not out.exists()


def test_hrg_generate_and_convert(workdir, capsys):
    assert main(["hrg-generate", "--grammar", str(workdir / "sgr.hrg"), "--max-edges", "5"]) == 0
    text = capsys.readouterr().out
    assert text.count("---") == 2  # three graphs at this bound
    out = workdir / "converted.hlg"
    assert main(["convert", "--in", str(workdir / "sgr.hrg"), "--out", str(out)]) == 0
    parsed = parse_hl_grammar(out.read_text())
    assert len(parsed.correspondence) == 3


def test_iso_command(workdir, capsys):
    assert main(["iso", str(workdir / "aabbb.hgf"), str(workdir / "aabbb.hgf")]) == 0
    assert main(["iso", str(workdir / "aabbb.hgf"), str(workdir / "ab.hgf")]) == 1
    capsys.readouterr()
    # A renumbered copy: isomorphic, with byte-equal canonical prints.
    aabbb, perm = str(FIXTURES / "aabbb.hgf"), str(FIXTURES / "aabbb_perm.hgf")
    assert main(["iso", "--canonical", perm, aabbb]) == 0
    first, rest = capsys.readouterr().out.split("---\n")
    second, witness = rest.split("isomorphic\n")
    assert first == second and witness.startswith("  nodes:")
    assert main(["iso", aabbb, str(FIXTURES / "g_ab.hgf")]) == 1
    assert capsys.readouterr().out == "not isomorphic\n"


def test_match_command(workdir, capsys):
    rc = main(
        ["match", "--host", str(workdir / "host.hgf"), "--pattern", str(workdir / "pattern.hgf")]
    )
    assert rc == 0
    assert "1 decompositions" in capsys.readouterr().out
    # An isolated host node may join either part: two instances, told apart
    # only by the nodes apportioned to their parts.
    host = workdir / "isolated.hgf"
    host.write_text("nodes: 0 1 2 3\next: 0 2\nedge e0 p/2 : 0 1\nedge e1 q/2 : 1 2\n")
    pattern = workdir / "two.hgf"
    pattern.write_text("nodes: 0 1 2\next: 0 2\nedge m T/2 : 0 1\nedge n U/2 : 1 2\n")
    assert main(["match", "--host", str(host), "--pattern", str(pattern)]) == 0
    out = capsys.readouterr().out
    assert "2 decompositions" in out
    assert "host edges 0, nodes 0 1 3" in out and "host edges 1, nodes 1 2 3" in out


def test_model_check(workdir):
    assert main(["model-check", "--valuation", str(workdir / "w.val"),
                 "--sequent", str(workdir / "axiom.seq")]) == 0


@pytest.mark.parametrize(
    "sequent, code, verdict",
    [
        ("pp_p.seq", 1, "fails"),
        ("assoc_p.seq", 0, "holds"),
        ("axiom_p.seq", 0, "holds"),
        ("gap_pp.seq", 1, "fails"),
    ],
)
def test_model_check_fixture_verdicts(capsys, sequent, code, verdict):
    argv = ["model-check", "--valuation", str(FIXTURES / "w.val"), "--sequent", str(FIXTURES / sequent)]
    assert main(argv) == code
    assert capsys.readouterr().out.strip() == verdict


def test_model_check_undecided(workdir, capsys):
    # A division in the antecedent leaves its product's denotation unlisted.
    p2 = Primitive("p", 2)
    d = Division(p2, string_graph([dollar(2), p2]))
    (workdir / "div.seq").write_text(print_sequent(Sequent(handle(d), Product(handle(d)))))
    argv = ["model-check", "--valuation", str(workdir / "w.val"), "--sequent", str(workdir / "div.seq")]
    assert main(argv) == cli.EXIT_INCONCLUSIVE == 3
    assert capsys.readouterr().out.startswith("undecided")


def test_repeated_primitive_in_valuation_is_refused(workdir, capsys):
    # The second entry used to be ignored, so its rank-1 graph went unchecked.
    (workdir / "r1.hgf").write_text("nodes: 0\next: 0\n")
    val = workdir / "twice.val"
    val.write_text("p/2 = { a.hgf }\np/2 = { r1.hgf }\n")
    seq = str(workdir / "axiom.seq")
    assert main(["model-check", "--valuation", str(val), "--sequent", seq]) == EXIT_USAGE
    assert "p/2: assigned more than once" in capsys.readouterr().out


def test_oracle_command(workdir, tmp_path):
    g = build_graph([0, 1], [(RankedLabel("*", 2), (0, 1))], ())
    path = tmp_path / "edge.hgf"
    path.write_text(print_graph(g))
    assert main(["oracle", "--check", "l1", str(path)]) == 0
    assert main(["oracle", "--check", "bipartite", str(path)]) == 0
    assert main(["oracle", "--check", "regular", str(path)]) == 1


def test_format_error_exit(workdir, capsys):
    assert main(["derive", str(workdir / "broken.hgf")]) == 2
    assert main(["member", "--grammar", str(workdir / "sgr.hlg"),
                 "--graph", str(workdir / "broken.hgf")]) == 2
    err = capsys.readouterr().err
    assert "repeated attachment" in err


def test_member_rejects_invalid_grammar_for_every_seed(workdir, capsys):
    # A mistyped entry beside valid ones is refused at parse time, before any
    # search could pass it by or trip over it.
    bad = workdir / "bad.hlg"
    bad.write_text((workdir / "sgr.hlg").read_text() + "map a/2 -> prim s/1\n")
    for seed in range(6):
        args = ["member", "--grammar", str(bad), "--graph", str(workdir / "aabbb.hgf")]
        assert main(args + ["--seed", str(seed)]) == EXIT_USAGE
    assert "rank mismatch" in capsys.readouterr().err


def test_suite_command_smoke(workdir, capsys, tmp_path):
    out = tmp_path / "report.json"
    assert main(["suite", "sgr", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["failures"] == 0 and report["cases"] == 254


def test_suite_names_come_from_one_table(capsys):
    assert list(SUITES) == ["sgr", "allgraphs", "bipartite", "soundness", "cut", "embedding", "conversion"]
    with pytest.raises(ValueError) as info:
        run_suite("nope")
    assert str(info.value) == (
        "unknown suite 'nope'; choose from "
        "sgr, allgraphs, bipartite, soundness, cut, embedding, conversion"
    )
    with pytest.raises(SystemExit) as info:
        main(["suite", "nope"])
    assert info.value.code == 2
    assert "choose from 'sgr', 'allgraphs'" in capsys.readouterr().err


def test_invalid_hrg_is_refused_at_parse_time(workdir, capsys):
    text = (workdir / "sgr.hrg").read_text()
    # An undeclared label, beside a production whose right-hand side has the
    # wrong rank; then a label declared both terminal and nonterminal.
    undeclared = text.replace("edge 2 P/2 : 2 3", "edge 2 Q/2 : 2 3").replace(
        "prod P -> { nodes: 0 1 ; ext: 0 1 ;", "prod P -> { nodes: 0 1 2 ; ext: 0 1 2 ;"
    )
    overlapping = text.replace("terminal: a/2 b/2", "terminal: a/2 b/2 S/2")
    for name, bad in (("undeclared.hrg", undeclared), ("overlapping.hrg", overlapping)):
        assert bad != text
        path = workdir / name
        path.write_text(bad)
        assert main(["hrg-generate", "--grammar", str(path), "--max-edges", "3"]) == EXIT_USAGE
        assert main(["convert", "--in", str(path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "unknown label Q/2" in err
    assert "must be disjoint" in err


def test_invalid_sequent_is_refused_at_parse_time(workdir, capsys):
    p2 = Primitive("p", 2)
    mismatch = workdir / "mismatch.seq"
    mismatch.write_text(print_sequent(Sequent(handle(p2), Primitive("p", 1))))
    hole = workdir / "hole.seq"
    hole.write_text(print_sequent(Sequent(string_graph([p2, dollar(2)]), p2)))
    assert main(["derive", str(mismatch)]) == EXIT_USAGE
    assert main(["derive", str(hole)]) == EXIT_USAGE
    val = str(workdir / "w.val")
    assert main(["model-check", "--valuation", val, "--sequent", str(mismatch)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count("invalid sequent: rank mismatch") == 2
    assert "labeled $" in err


def test_malformed_budget_flags_are_usage_errors(workdir, capsys):
    deep = str(workdir / "deep.seq")
    assert main(["derive", deep, "--budget-nodes", "-5"]) == EXIT_USAGE
    assert main(["suite", "sgr", "--budget-nodes", "-1"]) == EXIT_USAGE
    hrg = ["hrg-generate", "--grammar", str(workdir / "sgr.hrg")]
    assert main([*hrg, "--max-edges", "0"]) == EXIT_USAGE
    assert main([*hrg, "--max-edges", "3", "--max-steps", "-1"]) == EXIT_USAGE
    assert main([*hrg, "--max-edges", "3", "--max-steps", "0"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "--budget-nodes must be a positive integer, not -5" in err
    assert "--max-edges must be a positive integer, not 0" in err
    assert "--max-steps must be a positive integer, not 0" in err


@pytest.mark.parametrize("command", ["derive", "member"])
def test_search_deeper_than_the_recursion_limit_is_inconclusive(command, tmp_path):
    # Search recurses a few frames per nesting level, so at a lowered limit
    # the twentieth level of q^n s p^n is out of reach: that is no refutation.
    limit, n = 60, 20
    sgr = build_sgr()
    if command == "derive":
        q, p, s = (t for _, t in sgr.correspondence)
        seq = Sequent(string_graph([q] * n + [s] + [p] * n), sgr.distinguished)
        (tmp_path / "deep.seq").write_text(print_sequent(seq))
        argv = ["derive", str(tmp_path / "deep.seq")]
    else:
        (tmp_path / "deep.hgf").write_text(print_graph(sgr_string_graph("a" * n + "b" * (n + 1))))
        argv = ["member", "--grammar", str(FIXTURES / "sgr.hlg"), "--graph", str(tmp_path / "deep.hgf")]
    script = f"import sys; from hlc.cli import main; sys.setrecursionlimit({limit}); sys.exit(main(sys.argv[1:]))"
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script, *argv],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert done.returncode == cli.EXIT_INCONCLUSIVE, done.stderr
    assert done.stdout == (
        "recursion limit exceeded: the search nests deeper than the interpreter's "
        f"recursion limit ({limit} frames)\n"
    )
    assert done.stderr == ""


def test_refusals_print_one_text(workdir, capsys):
    """Each entry refuses invalid input with ``invalid {what}: {report}``:
    the parsers as a format error at 1:1 on stderr, ``model-check`` an
    invalid valuation on stdout; every refusal exits with the usage code."""
    p2 = Primitive("p", 2)
    mismatch = workdir / "mismatch.seq"
    mismatch.write_text(print_sequent(Sequent(handle(p2), Primitive("p", 1))))
    bad_grammar = workdir / "bad.hlg"
    bad_grammar.write_text((workdir / "sgr.hlg").read_text() + "map a/2 -> prim s/1\n")
    bad_hrg = workdir / "bad.hrg"
    bad_hrg.write_text(
        (workdir / "sgr.hrg").read_text().replace("terminal: a/2 b/2", "terminal: a/2 b/2 S/2")
    )
    twice = workdir / "twice.val"
    twice.write_text("p/2 = { a.hgf }\np/2 = { a.hgf }\n")
    graph = str(workdir / "aabbb.hgf")
    runs = [
        (["derive", str(mismatch)], "", (
            "format error: 1:1: invalid sequent: rank mismatch: antecedent 2, succedent 1\n"
        )),
        (
            ["member", "--grammar", str(bad_grammar), "--graph", graph],
            "",
            "format error: 1:1: invalid grammar: rank mismatch in correspondence for a/2\n",
        ),
        (
            ["convert", "--in", str(bad_hrg)],
            "",
            "format error: 1:1: invalid grammar: nonterminals and terminals must be disjoint\n",
        ),
        (
            ["model-check", "--valuation", str(twice), "--sequent", str(workdir / "axiom.seq")],
            "error: invalid valuation: p/2: assigned more than once\n",
            "",
        ),
    ]
    for argv, out, err in runs:
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr() == (out, err), argv
