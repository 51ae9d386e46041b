"""The string Lambek calculus and its translation to hypergraph sequents.

Types are built from primitives with left division, right division, and
concatenation.  Derivability is decided by exhaustive backward search over the
one axiom and six rules (antecedents stay nonempty throughout); every rule
removes one connective, so the search is finite.  Each call of
:func:`lambek_derive` memoizes its subsequents in a dict of its own, so no
state outlives the call.

Under translation, a string primitive becomes a rank-2 primitive, both string
divisions become the single graph division (the hole's position in the
denominator chain encodes the direction), concatenation becomes a product over
a two-edge chain, and an antecedent becomes the string graph of its translated
types.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

from .graphs import dollar, string_graph
from .hltypes import Division, HLType, Primitive, Product, Sequent


class LType:
    pass


@dataclass(frozen=True)
class LPrim(LType):
    name: str

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Under(LType):  # A \ B
    left: LType
    right: LType

    def __repr__(self) -> str:
        return f"({self.left!r}\\{self.right!r})"


@dataclass(frozen=True)
class Over(LType):  # B / A
    left: LType
    right: LType

    def __repr__(self) -> str:
        return f"({self.left!r}/{self.right!r})"


@dataclass(frozen=True)
class Dot(LType):  # A . B
    left: LType
    right: LType

    def __repr__(self) -> str:
        return f"({self.left!r}*{self.right!r})"


def lconnectives(t: LType) -> int:
    if isinstance(t, LPrim):
        return 0
    return 1 + lconnectives(t.left) + lconnectives(t.right)


def _derive(antecedent: tuple[LType, ...], succedent: LType, memo: dict) -> bool:
    key = (antecedent, succedent)
    found = memo.get(key)
    if found is None:
        found = memo[key] = _search(antecedent, succedent, memo)
    return found


def _search(antecedent: tuple[LType, ...], succedent: LType, memo: dict) -> bool:
    if len(antecedent) == 1 and antecedent[0] == succedent:
        return True
    # Right rules.
    if isinstance(succedent, Under):
        if _derive((succedent.left,) + antecedent, succedent.right, memo):
            return True
    if isinstance(succedent, Over):
        if _derive(antecedent + (succedent.right,), succedent.left, memo):
            return True
    if isinstance(succedent, Dot):
        for cut in range(1, len(antecedent)):
            if _derive(antecedent[:cut], succedent.left, memo) and _derive(
                antecedent[cut:], succedent.right, memo
            ):
                return True
    # Left rules.
    for i, t in enumerate(antecedent):
        if isinstance(t, Dot):
            if _derive(antecedent[:i] + (t.left, t.right) + antecedent[i + 1:], succedent, memo):
                return True
        if isinstance(t, Under):
            # some nonempty block immediately to the left derives the argument
            for start in range(i):
                if _derive(antecedent[start:i], t.left, memo) and _derive(
                    antecedent[:start] + (t.right,) + antecedent[i + 1:], succedent, memo
                ):
                    return True
        if isinstance(t, Over):
            for stop in range(i + 2, len(antecedent) + 1):
                if _derive(antecedent[i + 1: stop], t.right, memo) and _derive(
                    antecedent[:i] + (t.left,) + antecedent[stop:], succedent, memo
                ):
                    return True
    return False


def lambek_derive(antecedent: Sequence[LType], succedent: LType) -> bool:
    """Exhaustive backward search, memoized per call; antecedents must be
    nonempty."""
    if not antecedent:
        raise ValueError("antecedent must be nonempty")
    return _derive(tuple(antecedent), succedent, {})


def translate_ltype(t: LType) -> HLType:
    """Primitives keep their name at rank 2; divisions place the hole before
    or after the argument; concatenation becomes a two-edge chain product."""
    if isinstance(t, LPrim):
        return Primitive(t.name, 2)
    if isinstance(t, Under):  # A \ B
        return Division(
            translate_ltype(t.right), string_graph([translate_ltype(t.left), dollar(2)])
        )
    if isinstance(t, Over):  # B / A
        return Division(
            translate_ltype(t.left), string_graph([dollar(2), translate_ltype(t.right)])
        )
    if isinstance(t, Dot):
        return Product(string_graph([translate_ltype(t.left), translate_ltype(t.right)]))
    raise TypeError(f"not a string type: {t!r}")


def translate_lsequent(antecedent: Sequence[LType], succedent: LType) -> Sequent:
    return Sequent(
        string_graph([translate_ltype(t) for t in antecedent]), translate_ltype(succedent)
    )


def enumerate_ltypes(prims: Sequence[LPrim], max_connectives: int) -> list[LType]:
    """All types over the given primitives with at most that many connectives."""
    by_size: list[list[LType]] = [list(prims)]
    for n in range(1, max_connectives + 1):
        level: list[LType] = []
        for k in range(n):
            for left in by_size[k]:
                for right in by_size[n - 1 - k]:
                    level.extend((Under(left, right), Over(left, right), Dot(left, right)))
        by_size.append(level)
    return [t for level in by_size for t in level]


def enumerate_lambek_corpus(
    *, max_each: int = 1, max_succ: int = 2, max_len: int = 2
) -> Iterator[tuple[tuple[LType, ...], LType]]:
    """A deterministic pool of small string sequents (derivable or not)."""
    p, q = LPrim("p"), LPrim("q")
    small = enumerate_ltypes((p, q), max_each)
    succs = enumerate_ltypes((p, q), max_succ)
    for n in range(1, max_len + 1):
        for ants in itertools.product(small, repeat=n):
            for succ in succs:
                yield ants, succ
