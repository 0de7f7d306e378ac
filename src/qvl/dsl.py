"""Text format for bound quiver presentations.

Grammar (whitespace separates tokens; ``#`` starts a line comment)::

    spec    := "quiver" ident "{" item* "}"
    item    := "vertex" id ";"
             | "loop" ident "at" id ";"
             | "arrow" ident ":" id "->" id ";"
             | "rel" relexpr ";"
    relexpr := ["-"] term (("+" | "-") term)*
    term    := [coeff "*"] factor ("*" factor)*
    factor  := arrowident ["^" int]
    coeff   := int | int "/" int

``a*b`` applies ``b`` first and then ``a``.  Vertex ids are integers or
identifiers.  The truncation bound is derived automatically: the quiver must
be weakly triangular with at most one loop per vertex, and every loop needs
a monomial power relation; the bound is then the sum of the loop orders
minus one each, plus the longest loop-free path, plus one.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .quiver import (BoundQuiver, Path, Quiver, QuiverError, Relation,
                     is_weakly_triangular, loop_power)


class DslError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class DslSyntaxError(DslError):
    pass


class DslSemanticError(DslError):
    pass


_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<number>\d+(?:/\d+)?)
  | (?P<ident>[A-Za-z_]\w*)
  | (?P<arrowto>->)
  | (?P<punct>[{};:^*+\-])
""", re.VERBOSE)

_KEYWORDS = {"quiver", "vertex", "loop", "arrow", "at", "rel"}
_IDENT_RE = re.compile(r"[A-Za-z_]\w*\Z")


@dataclass
class _Token:
    kind: str   # number | ident | keyword | punct | arrowto | eof
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise DslSyntaxError(f"unexpected character {text[pos]!r}",
                                 line, col)
        kind = m.lastgroup
        raw = m.group()
        if kind not in ("ws", "comment"):
            if kind == "ident" and raw in _KEYWORDS:
                kind = "keyword"
            tokens.append(_Token(kind, raw, line, col))
        newlines = raw.count("\n")
        if newlines:
            line += newlines
            col = len(raw) - raw.rfind("\n")
        else:
            col += len(raw)
        pos = m.end()
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, text: str | None = None) -> _Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text or kind
            raise DslSyntaxError(
                f"expected {want!r}, found {tok.text or 'end of input'!r}",
                tok.line, tok.col)
        return self.advance()

    # --- grammar -------------------------------------------------------

    def parse_spec(self) -> BoundQuiver:
        self.expect("keyword", "quiver")
        name = self.expect("ident").text
        self.expect("punct", "{")
        vertices: list = []
        arrows: list[tuple[str, object, object]] = []
        raw_relations: list[tuple[list, _Token]] = []
        declared = set()
        vertex_set = set()
        while not (self.peek().kind == "punct" and self.peek().text == "}"):
            tok = self.peek()
            if tok.kind != "keyword":
                raise DslSyntaxError(
                    f"expected a declaration, found {tok.text!r}",
                    tok.line, tok.col)
            if tok.text == "vertex":
                self.advance()
                vid_tok = self._vertex_token()
                vid = self._vertex_value(vid_tok)
                if vid in vertex_set:
                    raise DslSemanticError(f"vertex {vid!r} declared twice",
                                           vid_tok.line, vid_tok.col)
                vertex_set.add(vid)
                vertices.append(vid)
                self.expect("punct", ";")
            elif tok.text == "loop":
                self.advance()
                name_tok = self.expect("ident")
                self.expect("keyword", "at")
                at_tok = self._vertex_token()
                at = self._vertex_value(at_tok)
                self._check_arrow_decl(name_tok, declared)
                self._check_vertex_known(at, at_tok, vertex_set)
                arrows.append((name_tok.text, at, at))
                self.expect("punct", ";")
            elif tok.text == "arrow":
                self.advance()
                name_tok = self.expect("ident")
                self.expect("punct", ":")
                src_tok = self._vertex_token()
                src = self._vertex_value(src_tok)
                self.expect("arrowto")
                dst_tok = self._vertex_token()
                dst = self._vertex_value(dst_tok)
                self._check_arrow_decl(name_tok, declared)
                self._check_vertex_known(src, src_tok, vertex_set)
                self._check_vertex_known(dst, dst_tok, vertex_set)
                arrows.append((name_tok.text, src, dst))
                self.expect("punct", ";")
            elif tok.text == "rel":
                rel_tok = self.advance()
                raw_relations.append((self._parse_relexpr(), rel_tok))
                self.expect("punct", ";")
            else:
                raise DslSyntaxError(f"unexpected keyword {tok.text!r}",
                                     tok.line, tok.col)
        self.expect("punct", "}")
        self.expect("eof")
        quiver = Quiver(vertices, arrows, name=name)
        relations = [self._build_relation(quiver, raw, tok)
                     for raw, tok in raw_relations]
        return BoundQuiver(quiver, relations,
                           derive_truncation_bound(quiver, relations),
                           name=name)

    def _vertex_token(self) -> _Token:
        tok = self.peek()
        if tok.kind not in ("number", "ident"):
            raise DslSyntaxError(
                f"expected a vertex id, found {tok.text!r}",
                tok.line, tok.col)
        if tok.kind == "number" and "/" in tok.text:
            raise DslSyntaxError("vertex ids cannot be fractions",
                                 tok.line, tok.col)
        return self.advance()

    @staticmethod
    def _vertex_value(tok: _Token):
        return int(tok.text) if tok.kind == "number" else tok.text

    @staticmethod
    def _check_arrow_decl(tok: _Token, declared: set):
        if tok.text in declared:
            raise DslSemanticError(f"arrow {tok.text!r} declared twice",
                                   tok.line, tok.col)
        declared.add(tok.text)

    @staticmethod
    def _check_vertex_known(vid, tok: _Token, vertex_set: set):
        if vid not in vertex_set:
            raise DslSemanticError(f"unknown vertex {vid!r}",
                                   tok.line, tok.col)

    def _parse_relexpr(self) -> list[tuple[Fraction, list, _Token]]:
        terms = []
        sign = Fraction(1)
        tok = self.peek()
        if tok.kind == "punct" and tok.text == "-":
            self.advance()
            sign = Fraction(-1)
        terms.append(self._parse_term(sign))
        while self.peek().kind == "punct" and self.peek().text in "+-":
            op = self.advance()
            sign = Fraction(1) if op.text == "+" else Fraction(-1)
            terms.append(self._parse_term(sign))
        return terms

    def _parse_term(self, sign: Fraction) -> tuple[Fraction, list, _Token]:
        tok = self.peek()
        coeff = Fraction(1)
        if tok.kind == "number":
            self.advance()
            if not int(tok.text.partition("/")[2] or 1):
                raise DslSyntaxError("zero denominator", tok.line, tok.col)
            coeff = Fraction(tok.text)
            self.expect("punct", "*")
        start = self.peek()
        factors = [self._parse_factor()]
        while self.peek().kind == "punct" and self.peek().text == "*":
            self.advance()
            factors.append(self._parse_factor())
        arrows = [a for factor in factors for a in factor]
        return (sign * coeff, arrows, start)

    def _parse_factor(self) -> list[str]:
        tok = self.expect("ident")
        k = 1
        if self.peek().kind == "punct" and self.peek().text == "^":
            self.advance()
            exp = self.expect("number")
            if "/" in exp.text:
                raise DslSyntaxError("exponent must be an integer",
                                     exp.line, exp.col)
            k = int(exp.text)
            if k < 1:
                raise DslSyntaxError("exponent must be positive",
                                     exp.line, exp.col)
        return [tok.text] * k

    def _build_relation(self, quiver: Quiver, raw, rel_tok: _Token) -> Relation:
        terms = []
        for coeff, arrows, start in raw:
            for a in arrows:
                if not quiver.has_arrow(a):
                    raise DslSemanticError(f"unknown arrow {a!r}",
                                           start.line, start.col)
            try:
                path = quiver.path(arrows)
            except QuiverError as exc:
                raise DslSemanticError(str(exc), start.line,
                                       start.col) from exc
            terms.append((coeff, path))
        try:
            return Relation(terms)
        except QuiverError as exc:
            raise DslSemanticError(str(exc), rel_tok.line,
                                   rel_tok.col) from exc


def derive_truncation_bound(quiver: Quiver,
                            relations: list[Relation]) -> int:
    """Smallest certified bound for a weakly triangular quiver whose loops
    all carry monomial power relations."""
    if not is_weakly_triangular(quiver):
        raise DslSemanticError(
            "cannot derive a truncation bound: the quiver has an oriented "
            "cycle of positive degree", 1, 1)
    orders = {}
    for a, k in filter(None, map(loop_power, relations)):
        orders[a] = min(orders.get(a, k), k)
    loop_sum = 0
    for x in quiver.vertices:
        loops = quiver.loops_at(x)
        if len(loops) > 1:
            raise DslSemanticError(
                f"cannot derive a truncation bound: vertex {x!r} carries "
                "more than one loop", 1, 1)
        for a in loops:
            if a not in orders:
                raise DslSemanticError(
                    f"cannot derive a truncation bound: loop {a!r} has no "
                    "monomial power relation", 1, 1)
            loop_sum += orders[a] - 1
    longest = _longest_loop_free_path(quiver)
    return loop_sum + longest + 1


def _longest_loop_free_path(quiver: Quiver) -> int:
    """The number of arrows of the longest path of non-loop arrows.  The
    quiver must be weakly triangular: its loop-free subquiver is then
    acyclic, so relaxing every arc settles within |Q_0| rounds."""
    arcs = [(s, t) for a, s, t in quiver.arrows if s != t]
    best = {v: 0 for v in quiver.vertices}
    changed = True
    while changed:
        changed = False
        for s, t in arcs:
            if best[s] + 1 > best[t]:
                best[t] = best[s] + 1
                changed = True
    return max(best.values(), default=0)


def parse_quiver_spec(text: str) -> BoundQuiver:
    """Parse a presentation from DSL text (see the module grammar)."""
    return _Parser(text).parse_spec()


def _format_path(path: Path) -> str:
    runs = []
    for a in path.arrows:
        if runs and runs[-1][0] == a:
            runs[-1][1] += 1
        else:
            runs.append([a, 1])
    return "*".join(a if k == 1 else f"{a}^{k}" for a, k in runs)


def _format_relation(rel: Relation) -> str:
    parts = []
    for i, (coeff, path) in enumerate(rel.terms):
        mag = abs(coeff)
        body = _format_path(path) if mag == 1 else f"{mag}*{_format_path(path)}"
        if i == 0:
            parts.append(body if coeff > 0 else f"- {body}")
        else:
            parts.append(f"{'+' if coeff > 0 else '-'} {body}")
    return " ".join(parts)


def print_quiver_spec(pres: BoundQuiver) -> str:
    """Canonical DSL text for a presentation; reparsing gives an equal
    presentation (names aside)."""
    name = pres.name if _IDENT_RE.match(pres.name or "") else "Q"
    lines = [f"quiver {name} {{"]
    for v in pres.quiver.vertices:
        lines.append(f"  vertex {v};")
    for a, s, t in pres.quiver.arrows:
        if s == t:
            lines.append(f"  loop {a} at {s};")
        else:
            lines.append(f"  arrow {a}: {s} -> {t};")
    for rel in pres.relations:
        lines.append(f"  rel {_format_relation(rel)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
