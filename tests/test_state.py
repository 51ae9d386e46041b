"""No ``hlc`` module keeps process-global state that a query changes.

Answers must not depend on process history, and a long-lived process must
not grow without bound.  So every dict, list and set held by an ``hlc``
module, or by a class it defines, and every ``functools`` cache there keeps
its size across fresh queries.  The queries use type and symbol names that no
other test uses, so nothing they touch can already sit in such a container.
Nor does a query leave reference cycles behind for the collector.
"""

from __future__ import annotations

import gc
import importlib
import pkgutil

import hlc
from hlc.calculus import DerivationTree, NotDerivable, Prover
from hlc.fixtures import build_sgr, sgr_string_graph
from hlc.grammars import MemberWitness, NotMember, hl_member
from hlc.graphs import RankedLabel, dollar, handle, string_graph
from hlc.hltypes import Division, Primitive, Product, Sequent
from hlc.lambek import LPrim, Over, lambek_derive
from hlc.models import Valuation, sequent_holds, sequent_primitives


def _state_sizes() -> dict[str, int]:
    sizes = {}
    for info in pkgutil.iter_modules(hlc.__path__):
        module = importlib.import_module(f"hlc.{info.name}")
        owners = [(info.name, module)] + [
            (f"{info.name}.{name}", value)
            for name, value in vars(module).items()
            if isinstance(value, type) and value.__module__ == module.__name__
        ]
        for prefix, owner in owners:
            for name, value in vars(owner).items():
                if isinstance(value, (dict, list, set)):
                    sizes[f"{prefix}.{name}"] = len(value)
                cache_info = getattr(value, "cache_info", None)
                if callable(cache_info):
                    sizes[f"{prefix}.{name}"] = cache_info().currsize
    return sizes


def test_queries_leave_module_state_unchanged():
    before = _state_sizes()
    assert "suites.SUITES" in before  # the scan reaches module-level containers

    p, q = Primitive("state_p", 2), Primitive("state_q", 2)
    a, b = RankedLabel("state_a", 2), RankedLabel("state_b", 2)
    pq = Product(string_graph([p, q]))
    seq = Sequent(string_graph([p]), Division(pq, string_graph([dollar(2), q])))
    assert isinstance(Prover().derive(seq), DerivationTree)
    assert isinstance(Prover().derive(Sequent(string_graph([q, p]), pq)), NotDerivable)
    w = Valuation(
        alphabet=(a, b),
        assignment=((p, (string_graph([a]),)), (q, (string_graph([b]),))),
    )
    assert sequent_holds(w, seq) is True
    assert sequent_holds(w, Sequent(string_graph([q, p]), pq)) is False
    x, y = LPrim("state_x"), LPrim("state_y")
    assert lambek_derive([Over(x, y), y], x)
    assert not lambek_derive([y, Over(x, y)], x)

    assert _state_sizes() == before


def test_queries_leave_no_cyclic_garbage():
    p, q = Primitive("gc_p", 2), Primitive("gc_q", 2)
    a, b = RankedLabel("gc_a", 2), RankedLabel("gc_b", 2)
    pq = Product(string_graph([p, q]))
    seq = Sequent(string_graph([p]), Division(pq, string_graph([dollar(2), q])))
    w = Valuation(
        alphabet=(a, b),
        assignment=((p, (string_graph([a]),)), (q, (string_graph([b]),))),
    )
    # Flattened keys cached on the products must not refer back to them.
    qp = Product(string_graph([q, p]))
    nested = Sequent(string_graph([pq, p]), Product(string_graph([p, qp])))
    hp = Product(handle(p))
    sgr = build_sgr()
    gc.collect()
    gc.disable()
    try:
        assert isinstance(Prover().derive(seq), DerivationTree)
        assert isinstance(Prover().derive(Sequent(string_graph([q, p]), pq)), NotDerivable)
        assert isinstance(hl_member(sgr, sgr_string_graph("aabbb")), MemberWitness)
        assert isinstance(hl_member(sgr, sgr_string_graph("abab")), NotMember)
        assert sequent_primitives(seq) == [p, q]
        assert sequent_holds(w, seq) is True
        assert sequent_holds(w, Sequent(string_graph([q, p]), pq)) is False
        assert sequent_holds(w, nested) is True
        assert sequent_holds(w, Sequent(handle(p), hp)) is True
        assert sequent_holds(w, Sequent(string_graph([hp, q]), pq)) is True
        assert gc.collect() == 0
    finally:
        gc.enable()
