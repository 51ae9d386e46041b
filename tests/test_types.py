from __future__ import annotations

import pytest

from hlc.calculus import Prover
from hlc.fixtures import hgr1_types
from hlc.graphs import RankedLabel, build_graph, dollar, handle, string_graph
from hlc.hltypes import (
    Division,
    Primitive,
    Product,
    Sequent,
    connective_count,
    dollar_edge,
    require_valid,
    validate_sequent,
    validate_type,
)

S2 = Primitive("s", 2)
P2 = Primitive("p", 2)
Q = Division(S2, string_graph([dollar(2), S2, P2]))


def test_type_rank_examples():
    assert Primitive("s", 0).rank == 0
    t = hgr1_types()
    assert t["Q2"].rank == 1
    str2 = Primitive("str", 2)
    parallel = Product(build_graph([0, 1], [(str2, (0, 1)), (str2, (0, 1))], (0, 1)))
    assert parallel.rank == 2
    assert Q.rank == 2


def test_validate_division_with_two_holes():
    bad = Division(S2, string_graph([dollar(2), dollar(2)]))
    assert "exactly one $" in validate_type(bad)
    with pytest.raises(ValueError):
        dollar_edge(bad.denominator)


def test_validate_division_rank_mismatch():
    bad = Division(Primitive("s", 1), string_graph([dollar(2), P2]))
    assert "numerator/denominator rank" in validate_type(bad)


def test_validate_product_needs_type_labels():
    bad = Product(string_graph([RankedLabel("a", 2)]))
    assert "not labeled by a type" in validate_type(bad)


def test_validate_good_types_and_sequent():
    assert validate_type(Q) is None
    seq = Sequent(string_graph([Q, Q, S2, P2, P2]), S2)
    assert validate_sequent(seq) is None


def test_validate_sequent_violations():
    assert "rank mismatch" in validate_sequent(Sequent(string_graph([P2]), Primitive("s", 0)))
    assert "$" in validate_sequent(Sequent(string_graph([dollar(2)]), S2))
    assert "not labeled by a type" in validate_sequent(
        Sequent(string_graph([RankedLabel("a", 2)]), S2)
    )


def test_validate_sequent_computes_a_report_once(monkeypatch):
    """The verdict is cached on the sequent, valid or not."""
    from hlc import hltypes

    computed = []
    report = hltypes.sequent_report
    monkeypatch.setattr(hltypes, "sequent_report", lambda s: computed.append(s) or report(s))
    good = Sequent(string_graph([Q, S2, P2]), S2)
    bad = Sequent(string_graph([P2]), Primitive("s", 0))
    for _ in range(3):
        assert validate_sequent(good) is None
        assert "rank mismatch" in validate_sequent(bad)
    assert computed == [good, bad]


def test_require_valid_is_the_one_refusal():
    require_valid("sequent", None)
    with pytest.raises(ValueError, match=r"^invalid sequent: rank mismatch$"):
        require_valid("sequent", "rank mismatch")


def test_malformed_type_is_refused_on_every_call():
    """The verdict cached on a type is the verdict: a type that nests a
    malformed division is refused again on the second call, also by the
    prover, and the graph and rank checks still run for each sequent."""
    bad = Division(Primitive("s", 1), string_graph([dollar(2), P2]))
    outer = Product(string_graph([bad, P2]))
    seq = Sequent(string_graph([outer]), S2)
    prover = Prover()
    for _ in range(2):
        assert "numerator/denominator rank" in validate_type(outer)
        assert "numerator/denominator rank" in validate_sequent(seq)
        with pytest.raises(ValueError, match="numerator/denominator rank"):
            prover.derive(seq)
    assert validate_type(Q) is None and validate_type(Q) is None
    assert "rank mismatch" in validate_sequent(Sequent(string_graph([Q]), Primitive("s", 0)))
    assert "$" in validate_sequent(Sequent(string_graph([Q, dollar(2)]), S2))


def test_connective_count_examples():
    assert connective_count(Sequent(handle(P2), P2)) == 0
    assert connective_count(Sequent(string_graph([Q, S2, P2]), S2)) == 1
    t = hgr1_types()
    # Four products carrying three divisions between them: the division
    # helpers are Q2 and Q3, while Q1 is the bare primitive.
    kite_labels = [t["M11_32"], t["M21_2"], t["M22"], t["M12_1"]]
    g = build_graph(
        [0, 1, 2, 3],
        [
            (kite_labels[0], (0, 1)),
            (kite_labels[1], (0, 2)),
            (kite_labels[2], (1, 2)),
            (kite_labels[3], (3, 2)),
        ],
        (),
    )
    assert connective_count(Sequent(g, t["s"])) == 7


def test_type_equality_up_to_component_isomorphism():
    other_denominator = build_graph(
        [10, 20, 30, 40],
        [(P2, (30, 40)), (dollar(2), (10, 20)), (S2, (20, 30))],
        (10, 40),
    )
    q2 = Division(S2, other_denominator)
    assert q2 == Q and hash(q2) == hash(Q)
    assert q2 != Division(P2, Q.denominator)
    assert Primitive("p", 2) != Primitive("p", 1)
    assert Product(string_graph([P2])) != Product(string_graph([S2]))


def test_sequent_equality_up_to_isomorphism():
    a = Sequent(string_graph([P2, S2]), S2)
    b = Sequent(
        build_graph([5, 6, 7], [(P2, (5, 6)), (S2, (6, 7))], (5, 7)), S2
    )
    assert a == b and hash(a) == hash(b)
    assert a != Sequent(string_graph([S2, P2]), S2)
