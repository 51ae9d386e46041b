"""Per-layer tracing from outside the library.

A traced pass replaces the public functions each layer exposes with timing
wrappers, bound where the calling module looked them up: ``canon_data`` is a
module global of ``hlc.canon``, the two matching enumerators were imported by
name into ``hlc.calculus`` and ``hlc.models``, and the graph rewrites into
several modules.  No library file changes.

Every call becomes a span ``(id, parent, name, start, end, query, phase)``.
Spans stay in memory and are written when the run ends.  A generator layer
gets one span per ``next()``, so the work its consumer does between items is
not charged to it.  Layer metrics count only spans of the ``query`` phase,
except the derivation check, which the benchmark runs in its ``check`` phase
outside the timed region.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import sys
import weakref
from collections import Counter
from time import perf_counter

CANON = "canon"
EXTRACT = "matching.extract"
DECOMP = "matching.decomp"
DERIVE = "calculus.derive"
CHECK = "calculus.check"
MEMBER = "grammars.member"
HOLDS = "models.holds"
DENOTE = "models.denote"
REWRITE = "graphs.rewrite"

REWRITE_NAMES = ("replace", "replace_all", "relabel", "relabel_one")

# (name, unit) of every per-layer metric, in report order.
METRICS = (
    ("canon.calls", "count"),
    ("canon.computed", "count"),
    ("canon.hit_ratio", "ratio"),
    ("canon.self_s", "s"),
    ("canon.max_ms", "ms"),
    ("matching.extract.calls", "count"),
    ("matching.extract.yielded", "count"),
    ("matching.extract.self_s", "s"),
    ("matching.decomp.calls", "count"),
    ("matching.decomp.yielded", "count"),
    ("matching.decomp.self_s", "s"),
    ("calculus.derive.calls", "count"),
    ("calculus.derive.self_s", "s"),
    ("calculus.nodes_expanded", "count"),
    ("calculus.memo_entries", "count"),
    ("calculus.derived_ratio", "ratio"),
    ("calculus.budget_hits", "count"),
    ("calculus.check.self_s", "s"),
    ("grammars.member.calls", "count"),
    ("grammars.member.self_s", "s"),
    ("grammars.relabelings", "count"),
    ("grammars.witness_ratio", "ratio"),
    ("models.holds.calls", "count"),
    ("models.holds.self_s", "s"),
    ("models.denote.calls", "count"),
    ("models.denote.self_s", "s"),
    ("models.undecided", "count"),
    ("graphs.rewrite.calls", "count"),
    ("graphs.rewrite.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


class Tracer:
    """Span recorder for one single-threaded traced pass."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, name, start, end, query, phase)
        self.counts: Counter = Counter()
        self.query = -1
        self.phase = "query"
        self._stack = [-1]
        self._next_id = 0

    def open(self) -> tuple[int, float]:
        sid = self._next_id
        self._next_id += 1
        self._stack.append(sid)
        return sid, perf_counter()

    def close(self, name: str, sid: int, start: float) -> None:
        end = perf_counter()
        self._stack.pop()
        self.spans.append((sid, self._stack[-1], name, start, end, self.query, self.phase))

    @contextlib.contextmanager
    def span(self, name: str):
        sid, start = self.open()
        try:
            yield
        finally:
            self.close(name, sid, start)

    def count(self, key: str, n: int = 1) -> None:
        if self.phase == "query":
            self.counts[key] += n

    def write(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id\tparent\tname\tstart\tend\tquery\tphase\n")
            for span in self.spans:
                out.write("\t".join(map(str, span)) + "\n")


def _traced_call(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid, start = tracer.open()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(name, sid, start)

    return wrapper


def _traced_generator(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.count(name + ".calls")
        inner = fn(*args, **kwargs)
        try:
            while True:
                sid, start = tracer.open()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer.close(name, sid, start)
                tracer.count(name + ".yielded")
                yield item
        finally:
            inner.close()

    return wrapper


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every layer entry point for the duration of the block."""
    import hlc.calculus
    import hlc.canon
    import hlc.grammars
    import hlc.graphs
    import hlc.matching
    import hlc.models
    from hlc.calculus import BudgetExceeded, DerivationTree
    from hlc.grammars import MemberWitness
    from hlc.models import UNDECIDED

    patches: list[tuple[object, str, object]] = []

    def patch(owner, attr, wrapper):
        patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    canon_seen: weakref.WeakSet = weakref.WeakSet()
    canon_call = _traced_call(tracer, CANON, hlc.canon.canon_data)

    def canon_data(g):
        if g not in canon_seen:
            canon_seen.add(g)
            tracer.count("canon.computed")
        return canon_call(g)

    patch(hlc.canon, "canon_data", canon_data)

    for owner in (hlc.calculus, hlc.models):
        patch(
            owner,
            "enumerate_decompositions",
            _traced_generator(tracer, DECOMP, hlc.matching.enumerate_decompositions),
        )
    patch(
        hlc.calculus,
        "enumerate_context_extractions",
        _traced_generator(tracer, EXTRACT, hlc.matching.enumerate_context_extractions),
    )

    derive_call = _traced_call(tracer, DERIVE, hlc.calculus.Prover.derive)

    def derive(self, *args, **kwargs):
        nodes, memo = self.nodes_expanded, len(self.memo)
        result = derive_call(self, *args, **kwargs)
        tracer.count("calculus.nodes_expanded", self.nodes_expanded - nodes)
        tracer.count("calculus.memo_entries", len(self.memo) - memo)
        tracer.count("calculus.derived", isinstance(result, DerivationTree))
        tracer.count("calculus.budget_hits", isinstance(result, BudgetExceeded))
        return result

    patch(hlc.calculus.Prover, "derive", derive)
    check = _traced_call(tracer, CHECK, hlc.calculus.check_derivation)
    patch(hlc.calculus, "check_derivation", check)

    member_call = _traced_call(tracer, MEMBER, hlc.grammars.hl_member)

    def hl_member(*args, **kwargs):
        result = member_call(*args, **kwargs)
        tracer.count("grammars.members", isinstance(result, MemberWitness))
        return result

    patch(hlc.grammars, "hl_member", hl_member)

    holds_call = _traced_call(tracer, HOLDS, hlc.models.sequent_holds)

    def sequent_holds(*args, **kwargs):
        result = holds_call(*args, **kwargs)
        tracer.count("models.undecided", result is UNDECIDED)
        return result

    patch(hlc.models, "sequent_holds", sequent_holds)
    denote = _traced_call(tracer, DENOTE, hlc.models.denotation_enumerate)
    patch(hlc.models, "denotation_enumerate", denote)

    modules = [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "hlc"]
    for attr in REWRITE_NAMES:
        original = getattr(hlc.graphs, attr)
        wrapper = _traced_call(tracer, REWRITE, original)
        for module in modules:
            if getattr(module, attr, None) is original:
                patch(module, attr, wrapper)
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


def self_times(spans) -> dict[int, float]:
    """Span id -> its duration minus the time its direct children cover."""
    child_time: Counter = Counter()
    for sid, parent, _, start, end, _, _ in spans:
        child_time[parent] += end - start
    return {sid: (end - start) - child_time[sid] for sid, _, _, start, end, _, _ in spans}


def _ratio(numerator: float, base: float) -> float:
    return numerator / base if base else 0.0


def layer_metrics(tracer: Tracer, overhead_ratio: float) -> dict[str, float]:
    """Every per-layer metric of one traced pass (ratios are 0 on a 0 base)."""
    own = self_times(tracer.spans)
    names = {span[0]: span[2] for span in tracer.spans}
    calls: Counter = Counter()
    self_s: Counter = Counter()
    canon_max = 0.0
    relabelings = 0
    for sid, parent, name, start, end, _, phase in tracer.spans:
        if phase != "query" and name != CHECK:
            continue
        calls[name] += 1
        self_s[name] += own[sid]
        if name == CANON:
            canon_max = max(canon_max, end - start)
        elif name == DERIVE and names.get(parent) == MEMBER:
            relabelings += 1
    c = tracer.counts
    return {
        "canon.calls": calls[CANON],
        "canon.computed": c["canon.computed"],
        "canon.hit_ratio": 1.0 - _ratio(c["canon.computed"], calls[CANON]) if calls[CANON] else 0.0,
        "canon.self_s": self_s[CANON],
        "canon.max_ms": canon_max * 1000.0,
        "matching.extract.calls": c[EXTRACT + ".calls"],
        "matching.extract.yielded": c[EXTRACT + ".yielded"],
        "matching.extract.self_s": self_s[EXTRACT],
        "matching.decomp.calls": c[DECOMP + ".calls"],
        "matching.decomp.yielded": c[DECOMP + ".yielded"],
        "matching.decomp.self_s": self_s[DECOMP],
        "calculus.derive.calls": calls[DERIVE],
        "calculus.derive.self_s": self_s[DERIVE],
        "calculus.nodes_expanded": c["calculus.nodes_expanded"],
        "calculus.memo_entries": c["calculus.memo_entries"],
        "calculus.derived_ratio": _ratio(c["calculus.derived"], calls[DERIVE]),
        "calculus.budget_hits": c["calculus.budget_hits"],
        "calculus.check.self_s": self_s[CHECK],
        "grammars.member.calls": calls[MEMBER],
        "grammars.member.self_s": self_s[MEMBER],
        "grammars.relabelings": relabelings,
        "grammars.witness_ratio": _ratio(c["grammars.members"], relabelings),
        "models.holds.calls": calls[HOLDS],
        "models.holds.self_s": self_s[HOLDS],
        "models.denote.calls": calls[DENOTE],
        "models.denote.self_s": self_s[DENOTE],
        "models.undecided": c["models.undecided"],
        "graphs.rewrite.calls": calls[REWRITE],
        "graphs.rewrite.self_s": self_s[REWRITE],
        "trace.overhead_ratio": overhead_ratio,
    }
