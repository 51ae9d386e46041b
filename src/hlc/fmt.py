"""Text formats and derivation-tree JSON.

Graph files (``.hgf``) are line based::

    # comment
    nodes: v0 v1 v2
    ext: v0 v2
    edge e0 a/2 : v0 v1
    edge e1 b/2 : v1 v2

Inline graphs reuse the same statements inside braces with ``;`` separators:
``{ nodes: v0 v1 ; ext: v0 v1 ; edge e0 a/2 : v0 v1 }``.  Edge labels are
``name/rank`` symbols; in *type* contexts a label may also be ``$/rank`` (the
denominator hole) or a parenthesized type expression.  Type expressions are
``prim name/rank``, ``div(TYPE ; GRAPH)``, and ``prod(GRAPH)``.  Sequent files
read ``SEQ GRAPH |- TYPE``.  Grammar files use ``start:``/``map`` lines
(``.hlg``) or ``terminal:``/``nonterminal:``/``fixed:``/``start:``/``prod``
lines (``.hrg``); valuations (``.val``) list ``prim = { file, ... }`` lines.

Canonical printing emits nodes and edges in canonical order, so byte equality
of canonical texts coincides with isomorphism.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .calculus import DIV_LEFT, TIMES_LEFT, DerivationTree, DivLeftData, TimesLeftData
from .canon import canonical_ordering
from .graphs import DOLLAR_NAME, Hypergraph, RankedLabel, dollar, validate
from .grammars import HRG, HLGrammar, Production, validate_hl_grammar, validate_hrg
from .hltypes import Division, HLType, Primitive, Product, Sequent, refusal, validate_sequent


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


def _require_valid(what: str, report: str | None) -> None:
    """Refuse a parsed value that does not validate, as a format error at
    1:1 with the text of :func:`hlc.hltypes.refusal`."""
    if report is not None:
        raise ParseError(refusal(what, report), 1, 1)


@dataclass(frozen=True)
class _Token:
    kind: str  # sym | name | nl
    text: str
    line: int
    col: int


_TOKEN_RE = re.compile(
    r"(?P<ws>[ \t\r]+)"
    r"|(?P<comment>#[^\n]*)"
    r"|(?P<nl>\n)"
    r"|(?P<sym>\|-|->|[{}();:,=])"
    r"|(?P<name>[^\s{}();:,=#|]+)"
)


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"stray character {text[pos]!r}", line, col)
        kind = m.lastgroup
        piece = m.group()
        if kind == "nl":
            tokens.append(_Token("nl", piece, line, col))
            line += 1
            col = 1
        else:
            if kind in ("sym", "name"):
                tokens.append(_Token(kind, piece, line, col))
            col += len(piece)
        pos = m.end()
    tokens.append(_Token("nl", "\n", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        if self.pos < len(self.tokens) - 1:
            self.pos += 1
        return tok

    def skip_newlines(self) -> None:
        while self.pos < len(self.tokens) - 1 and self.peek().kind == "nl":
            self.pos += 1

    def at_end(self) -> bool:
        self.skip_newlines()
        return self.pos >= len(self.tokens) - 1

    def fail(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message, tok.line, tok.col)

    def expect(self, text: str) -> _Token:
        tok = self.peek()
        if tok.text != text or tok.kind == "nl" and text != "\n":
            raise self.fail(f"expected {text!r}, found {tok.text!r}")
        return self.next()

    def expect_name(self) -> _Token:
        tok = self.peek()
        if tok.kind != "name":
            raise self.fail(f"expected a name, found {tok.text!r}")
        return self.next()

    # ---- labels and types ----------------------------------------------

    def ranked_name(self) -> tuple[str, int]:
        tok = self.expect_name()
        name, sep, rank = tok.text.rpartition("/")
        if not sep or not rank.isdigit():
            raise ParseError(f"expected name/rank, found {tok.text!r}", tok.line, tok.col)
        return name, int(rank)

    def label(self, mode: str) -> object:
        tok = self.peek()
        if tok.text == "(":
            if mode != "type":
                raise self.fail("type labels are not allowed here")
            self.next()
            t = self.type_expr()
            self.expect(")")
            return t
        name, rank = self.ranked_name()
        if mode == "type":
            if name == DOLLAR_NAME:
                return dollar(rank)
            return Primitive(name, rank)
        if name == DOLLAR_NAME:
            raise ParseError("$ is reserved", tok.line, tok.col)
        return RankedLabel(name, rank)

    def type_expr(self) -> HLType:
        tok = self.peek()
        if tok.text == "prim":
            self.next()
            name, rank = self.ranked_name()
            return Primitive(name, rank)
        if tok.text == "div":
            self.next()
            self.expect("(")
            numerator = self.type_expr()
            self.expect(";")
            denominator = self.graph(mode="type")
            self.expect(")")
            return Division(numerator, denominator)
        if tok.text == "prod":
            self.next()
            self.expect("(")
            body = self.graph(mode="type")
            self.expect(")")
            return Product(body)
        if tok.kind == "name" and "/" in tok.text:
            name, rank = self.ranked_name()
            return Primitive(name, rank)
        raise self.fail(f"expected a type expression, found {tok.text!r}")

    # ---- graphs ---------------------------------------------------------

    def graph(self, mode: str) -> Hypergraph:
        """Inline ``{ ... }`` graph or the remainder of a line-based file."""
        braced = self.peek().text == "{"
        if braced:
            self.next()
        node_ids: dict[str, int] = {}
        edge_ids: dict[str, int] = {}
        edge_lines: dict[int, int] = {}
        att: dict[int, tuple[int, ...]] = {}
        lab: dict[int, object] = {}
        ext: list[int] = []
        saw_ext = False
        start_tok = self.peek()

        def node(tok_text: str, tok: _Token) -> int:
            if tok_text not in node_ids:
                raise ParseError(f"unknown node {tok_text!r}", tok.line, tok.col)
            return node_ids[tok_text]

        def statement() -> None:
            nonlocal saw_ext
            tok = self.peek()
            if tok.text == "nodes":
                self.next()
                self.expect(":")
                while self.peek().kind == "name":
                    t = self.next()
                    if t.text in node_ids:
                        raise ParseError(f"duplicate node {t.text!r}", t.line, t.col)
                    node_ids[t.text] = len(node_ids)
            elif tok.text == "ext":
                self.next()
                self.expect(":")
                saw_ext = True
                while self.peek().kind == "name":
                    t = self.next()
                    ext.append(node(t.text, t))
            elif tok.text == "edge":
                self.next()
                t = self.expect_name()
                if t.text in edge_ids:
                    raise ParseError(f"duplicate edge {t.text!r}", t.line, t.col)
                e = edge_ids.setdefault(t.text, len(edge_ids))
                edge_lines[e] = t.line
                lab[e] = self.label(mode)
                self.expect(":")
                nodes_for_edge = []
                while self.peek().kind == "name":
                    u = self.next()
                    nodes_for_edge.append(node(u.text, u))
                att[e] = tuple(nodes_for_edge)
            else:
                raise self.fail(f"expected nodes/ext/edge, found {tok.text!r}")

        while True:
            if braced:
                while self.peek().text == ";":
                    self.next()
                if self.peek().text == "}":
                    self.next()
                    break
                if self.peek().kind == "nl":
                    self.next()
                    continue
            else:
                self.skip_newlines()
                if self.at_end() or self.peek().text not in ("nodes", "ext", "edge"):
                    break
            statement()
        g = Hypergraph(
            nodes=tuple(range(len(node_ids))),
            edges=tuple(range(len(edge_ids))),
            att=att,
            lab=lab,
            ext=tuple(ext),
        )
        report = validate(g)
        if report is not None:
            m = re.match(r"edge (\d+)", report)
            line = edge_lines.get(int(m.group(1))) if m else None
            raise ParseError(report, line or start_tok.line, 1)
        return g


def parse_graph(text: str, mode: str = "symbol") -> Hypergraph:
    parser = _Parser(text)
    g = parser.graph(mode=mode)
    if not parser.at_end():
        raise parser.fail("trailing input after graph")
    return g


def parse_type(text: str) -> HLType:
    parser = _Parser(text)
    parser.skip_newlines()
    t = parser.type_expr()
    if not parser.at_end():
        raise parser.fail("trailing input after type")
    return t


def parse_sequent(text: str) -> Sequent:
    parser = _Parser(text)
    parser.skip_newlines()
    parser.expect("SEQ")
    antecedent = parser.graph(mode="type")
    parser.skip_newlines()
    parser.expect("|-")
    succedent = parser.type_expr()
    if not parser.at_end():
        raise parser.fail("trailing input after sequent")
    seq = Sequent(antecedent, succedent)
    _require_valid("sequent", validate_sequent(seq))
    return seq


def parse_hl_grammar(text: str) -> HLGrammar:
    parser = _Parser(text)
    distinguished: HLType | None = None
    correspondence: list[tuple[RankedLabel, HLType]] = []
    alphabet: dict[RankedLabel, None] = {}
    while not parser.at_end():
        tok = parser.peek()
        if tok.text == "start":
            parser.next()
            parser.expect(":")
            distinguished = parser.type_expr()
        elif tok.text == "map":
            parser.next()
            name, rank = parser.ranked_name()
            label = RankedLabel(name, rank)
            parser.expect("->")
            t = parser.type_expr()
            alphabet.setdefault(label)
            correspondence.append((label, t))
        else:
            raise parser.fail(f"expected start/map, found {tok.text!r}")
    if distinguished is None:
        raise ParseError("grammar has no start line", 1, 1)
    grammar = HLGrammar(
        alphabet=tuple(alphabet),
        distinguished=distinguished,
        correspondence=tuple(correspondence),
    )
    _require_valid("grammar", validate_hl_grammar(grammar))
    return grammar


def parse_hrg(text: str) -> HRG:
    parser = _Parser(text)
    terminals: list[RankedLabel] = []
    nonterminals: list[RankedLabel] = []
    fixed: list[RankedLabel] = []
    productions: list[Production] = []
    start_name: str | None = None
    while not parser.at_end():
        tok = parser.peek()
        if tok.text in ("terminal", "nonterminal", "fixed"):
            parser.next()
            parser.expect(":")
            target = {"terminal": terminals, "nonterminal": nonterminals, "fixed": fixed}[tok.text]
            while parser.peek().kind == "name":
                name, rank = parser.ranked_name()
                target.append(RankedLabel(name, rank))
        elif tok.text == "start":
            parser.next()
            parser.expect(":")
            start_name = parser.expect_name().text
        elif tok.text == "prod":
            parser.next()
            name = parser.expect_name()
            lhs = next((x for x in nonterminals if x.name == name.text), None)
            if lhs is None:
                raise ParseError(f"undeclared nonterminal {name.text!r}", name.line, name.col)
            parser.expect("->")
            rhs = parser.graph(mode="symbol")
            productions.append(Production(lhs, rhs))
        else:
            raise parser.fail(f"unexpected {tok.text!r}")
    start = next((x for x in nonterminals if x.name == start_name), None)
    if start is None:
        raise ParseError("missing or undeclared start symbol", 1, 1)
    grammar = HRG(
        nonterminals=tuple(nonterminals),
        terminals=tuple(terminals),
        productions=tuple(productions),
        start=start,
        fixed=frozenset(fixed),
    )
    _require_valid("grammar", validate_hrg(grammar))
    return grammar


def parse_valuation_lines(text: str) -> list[tuple[Primitive, list[str]]]:
    """(primitive, graph file names) pairs; file loading is the caller's job."""
    parser = _Parser(text)
    out: list[tuple[Primitive, list[str]]] = []
    while not parser.at_end():
        name, rank = parser.ranked_name()
        parser.expect("=")
        parser.expect("{")
        files: list[str] = []
        while parser.peek().text != "}":
            if parser.peek().text == ",":
                parser.next()
                continue
            files.append(parser.expect_name().text)
        parser.expect("}")
        out.append((Primitive(name, rank), files))
    return out


# ---- printing -----------------------------------------------------------


def print_label(label: object, canonical: bool = False) -> str:
    if isinstance(label, RankedLabel):
        return f"{label.name}/{label.rank}"
    if isinstance(label, HLType):
        if isinstance(label, Primitive):
            return f"{label.name}/{label.rank}"
        return f"({print_type(label, canonical=canonical)})"
    raise TypeError(f"not a printable label: {label!r}")


def print_type(t: HLType, canonical: bool = False) -> str:
    if isinstance(t, Primitive):
        return f"prim {t.name}/{t.rank}"
    if isinstance(t, Division):
        inner = print_graph_inline(t.denominator, canonical=canonical)
        return f"div({print_type(t.numerator, canonical=canonical)} ; {inner})"
    if isinstance(t, Product):
        return f"prod({print_graph_inline(t.body, canonical=canonical)})"
    raise TypeError(f"not a type: {t!r}")


def _orders(g: Hypergraph, canonical: bool) -> tuple[list[int], list[int], dict[int, int]]:
    if canonical:
        node_order, edge_order = canonical_ordering(g)
        nodes = sorted(g.nodes, key=lambda v: node_order[v])
        edges = sorted(g.edges, key=lambda e: edge_order[e])
        names = {v: i for i, v in enumerate(nodes)}
    else:
        nodes, edges = list(g.nodes), list(g.edges)
        names = {v: v for v in nodes}
    return nodes, edges, names


def _graph_statements(g: Hypergraph, canonical: bool) -> list[str]:
    nodes, edges, names = _orders(g, canonical)
    stmts = [
        "nodes: " + " ".join(str(names[v]) for v in nodes),
        "ext: " + " ".join(str(names[v]) for v in g.ext),
    ]
    for i, e in enumerate(edges):
        name = i if canonical else e
        label = print_label(g.lab[e], canonical=canonical)
        stmts.append(
            f"edge {name} {label} : " + " ".join(str(names[v]) for v in g.att[e])
        )
    return stmts


def print_graph(g: Hypergraph, canonical: bool = False) -> str:
    return "\n".join(_graph_statements(g, canonical)) + "\n"


def print_graph_inline(g: Hypergraph, canonical: bool = False) -> str:
    return "{ " + " ; ".join(_graph_statements(g, canonical)) + " }"


def print_sequent(s: Sequent, canonical: bool = False) -> str:
    return (
        f"SEQ {print_graph_inline(s.antecedent, canonical=canonical)}"
        f" |- {print_type(s.succedent, canonical=canonical)}\n"
    )


def print_hl_grammar(g: HLGrammar, canonical: bool = False) -> str:
    lines = [f"start: {print_type(g.distinguished, canonical=canonical)}"]
    for label, t in g.correspondence:
        lines.append(f"map {label.name}/{label.rank} -> {print_type(t, canonical=canonical)}")
    return "\n".join(lines) + "\n"


def print_hrg(g: HRG) -> str:
    lines = [
        "nonterminal: " + " ".join(f"{x.name}/{x.rank}" for x in g.nonterminals),
        "terminal: " + " ".join(f"{x.name}/{x.rank}" for x in g.terminals),
    ]
    if g.fixed:
        fixed = sorted(g.fixed, key=lambda l: (l.name, l.rank))
        lines.append("fixed: " + " ".join(f"{x.name}/{x.rank}" for x in fixed))
    lines.append(f"start: {g.start.name}")
    for prod in g.productions:
        lines.append(f"prod {prod.lhs.name} -> {print_graph_inline(prod.rhs)}")
    return "\n".join(lines) + "\n"


# ---- derivation tree JSON -------------------------------------------------


def graph_to_json(g: Hypergraph) -> dict:
    return {
        "nodes": list(g.nodes),
        "ext": list(g.ext),
        "edges": [
            {"id": e, "label": print_label(g.lab[e]), "att": list(g.att[e])}
            for e in g.edges
        ],
    }


def graph_from_json(d: dict, mode: str = "type") -> Hypergraph:
    att = {}
    lab = {}
    for edge in d["edges"]:
        att[edge["id"]] = tuple(edge["att"])
        parser = _Parser(edge["label"])
        lab[edge["id"]] = parser.label(mode)
        if not parser.at_end():
            raise parser.fail("trailing input after label")
    return Hypergraph(
        nodes=d["nodes"],
        edges=att.keys(),
        att=att,
        lab=lab,
        ext=tuple(d["ext"]),
    )


def _rule_data_to_json(t: DerivationTree) -> dict | None:
    if t.rule == DIV_LEFT:
        data = t.rule_data
        return {"pivot_edge": data.pivot_edge, "numerator_edge": data.numerator_edge}
    if t.rule == TIMES_LEFT:
        return {"edge": t.rule_data.edge}
    return None


def tree_to_json(t: DerivationTree) -> dict:
    return {
        "rule": t.rule,
        "conclusion": {
            "antecedent": graph_to_json(t.conclusion.antecedent),
            "succedent": print_type(t.conclusion.succedent),
        },
        "rule_data": _rule_data_to_json(t),
        "premises": [tree_to_json(p) for p in t.premises],
    }


def tree_from_json(d: dict) -> DerivationTree:
    conclusion = Sequent(
        graph_from_json(d["conclusion"]["antecedent"]),
        parse_type(d["conclusion"]["succedent"]),
    )
    premises = tuple(tree_from_json(p) for p in d["premises"])
    rule = d["rule"]
    data: object = None
    raw = d.get("rule_data")
    # Older files also carry a "part_order"; it always held the order the
    # rule fixes, so it is ignored.
    if rule == DIV_LEFT:
        data = DivLeftData(pivot_edge=raw["pivot_edge"], numerator_edge=raw["numerator_edge"])
    elif rule == TIMES_LEFT:
        data = TimesLeftData(edge=raw["edge"])
    return DerivationTree(conclusion=conclusion, rule=rule, premises=premises, rule_data=data)
