"""Textual IR: parser and canonical printer for .scifr files.

Grammar (UTF-8, LF line endings, `//` line comments, whitespace free
between tokens):

    func    := "func" "@" IDENT "(" [ args ] ")" "->" typelist "{" stmts ret "}"
    args    := arg { "," arg }            arg := VALUE ":" type
    stmt    := results "=" opname [ operands ] [ attrs ] ":" type
    results := VALUE { "," VALUE }        operands := VALUE { "," VALUE }
    attrs   := "{" attr { "," attr } "}"  attr := IDENT "=" attrval
    attrval := INT | "[" INT { "," INT } "]"
    ret     := "return" [ operands ] ":" typelist
    type    := "!lwe" | "!ct" | "!pt"

The typelist is empty for zero-return functions (printed `return :`).
Value names accept both identifiers and bare numbers after `%` (the
examples use `%0`-style result names).  Duplicate attributes are an
error.  Parsing collects at most 20 diagnostics, each carrying a
1-based line/column span inside the offending token, then raises
ParseError.  The canonical printer emits one statement per line with
two-space indentation and alphabetically sorted attributes; its output
reparses to an isomorphic graph and is a fixed point of parse+print.
"""

from __future__ import annotations

import re
import sys
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Iterator, TypeVar

from .ir import (
    FUNC_NAME,
    KIND_ATTRS,
    VALUE_NAME,
    CircuitGraph,
    OpKind,
    Operator,
    OpTag,
    ValueType,
    attr_shape_problem,
    validate,
)

MAX_DIAGNOSTICS = 20

_TAG_BY_OPNAME = {tag.opname: tag for tag in OpTag}
_TYPE_BY_SPELLING = {vt.value: vt for vt in ValueType}

_T = TypeVar("_T")


@dataclass(frozen=True, slots=True)
class SourceSpan:
    """1-based position of a token in the source text."""

    line: int
    column: int
    length: int


@dataclass(frozen=True)
class Diagnostic:
    message: str
    span: SourceSpan

    def __str__(self) -> str:
        return f"{self.span.line}:{self.span.column}: {self.message}"


class ParseError(Exception):
    """Raised when parsing fails; carries every collected diagnostic."""

    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = list(diagnostics)
        super().__init__("\n".join(str(d) for d in self.diagnostics))


class _Diagnostics(list):
    """The diagnostics of one parse, capped at MAX_DIAGNOSTICS; later
    ones are dropped.  The lexer runs as the parser reads, yet its
    diagnostics come first: each goes in after the lexer's earlier ones,
    before all others, and at the cap it drops the last of the others."""

    lexed = 0  # the lexer's, at the front

    def add(self, message: str, span: SourceSpan) -> None:
        if not self.full():
            self.append(Diagnostic(message, span))

    def add_lexed(self, message: str, span: SourceSpan) -> None:
        if self.lexed < MAX_DIAGNOSTICS:
            self.insert(self.lexed, Diagnostic(message, span))
            self.lexed += 1
            del self[MAX_DIAGNOSTICS:]

    def full(self) -> bool:
        return len(self) >= MAX_DIAGNOSTICS


# ---------------------------------------------------------------------------
# Lexer

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>[ \t\r\n]+)
    | (?P<comment>//[^\n]*)
    | (?P<arrow>->)
    | (?P<punct>[(){}\[\],=:])
    | (?P<value>%"""
    + VALUE_NAME
    + r""")
    | (?P<at>@"""
    + FUNC_NAME
    + r""")
    | (?P<type>![A-Za-z_]+)
    | (?P<int>-?[0-9]+)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_.]*)
    | (?P<bad>.)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True, slots=True)
class _Token:
    kind: str  # arrow | punct | value | at | type | int | ident | eof
    text: str
    span: SourceSpan


def _tokens(text: str, diagnostics: _Diagnostics) -> Iterator[_Token]:
    """The tokens, lexed as they are read, then one eof token.  Each
    character no token starts with is one lexer diagnostic."""
    line_starts = [0, *(m.end() for m in re.finditer("\n", text))]
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "ws" or kind == "comment":
            continue
        start = m.start()
        line = bisect_right(line_starts, start)
        span = SourceSpan(line, start - line_starts[line - 1] + 1, m.end() - start)
        if kind == "bad":
            diagnostics.add_lexed(f"unexpected character {m.group()!r}", span)
        else:
            yield _Token(kind, m.group(), span)
    yield _Token("eof", "", SourceSpan(len(line_starts), len(text) - line_starts[-1] + 1, 1))


class _Abort(Exception):
    """Internal: statement-level or fatal parse abort."""


class _Parser:
    """Recursive descent with one token of lookahead, `cur`, that resolves
    names as it reads: each statement defines its results and builds its
    Operator, whose id is the statement's index.  An operand that a later
    statement defines waits in `pending` until the body ends.

    Name-resolution faults go to their own sink, `faults`, each ranked
    -1 (arguments and double definitions), by its statement, or past the
    last (returns), so the cap and full() count only the lexer's and the
    parser's diagnostics."""

    def __init__(self, tokens: Iterator[_Token], diagnostics: _Diagnostics):
        self.tokens = tokens
        self.cur = next(tokens)
        self.diags = diagnostics
        self.faults: list[tuple[int, str, SourceSpan]] = []
        self.ids: dict[str, int] = {}  # by value token text, '%' included
        self.arguments: list[tuple[int, ValueType]] = []
        self.operators: list[Operator | None] = []  # by statement; None until built
        self.pending: list[tuple] = []  # build() arguments of ops with forward operands
        # To map a validate() violation to its span: each op's name, and
        # each attribute value by (op id, attribute name).
        self.op_spans: list[SourceSpan] = []
        self.attr_spans: dict[tuple[int, str], SourceSpan] = {}

    # -- token helpers

    def at(self, kind: str, text: str | None = None) -> bool:
        t = self.cur
        return t.kind == kind and (text is None or t.text == text)

    def advance(self) -> _Token:
        t = self.cur
        if t.kind != "eof":
            self.cur = next(self.tokens)
        return t

    def error(self, message: str, span: SourceSpan | None = None) -> None:
        self.diags.add(message, span or self.cur.span)

    def expect(self, kind: str, text: str | None, what: str) -> _Token:
        if self.at(kind, text):
            return self.advance()
        got = self.cur.text or "end of input"
        self.error(f"expected {what}, found {got!r}")
        raise _Abort()

    def comma_list(self, item: Callable[..., _T], *args: object) -> list[_T]:
        """`item { "," item }`, each parsed by `item(*args)`."""
        items = [item(*args)]
        while self.at("punct", ","):
            self.advance()
            items.append(item(*args))
        return items

    # -- grammar

    def parse_function(self) -> None:
        """Read the function; on any fault `diags` is not empty after."""
        try:
            self.expect("ident", "func", "'func'")
            self.name = self.expect("at", None, "function name ('@name')")
            self.expect("punct", "(", "'('")
            if self.at("value"):
                self.comma_list(self.parse_arg)
            self.expect("punct", ")", "')'")
            self.expect("arrow", None, "'->'")
            self.arrow_types = self.parse_typelist(stop="{")
            self.expect("punct", "{", "'{'")
        except _Abort:
            return

        while not self.at("ident", "return") and not self.at("punct", "}"):
            if self.cur.kind == "eof" or self.diags.full():
                self.error("expected 'return' before end of function")
                return
            try:
                self.parse_stmt()
            except _Abort:
                self.resync()
        try:
            self.expect("ident", "return", "'return'")
            self.ret_operands = []
            if self.at("value"):
                self.ret_operands = self.comma_list(self.expect, "value", None, "a value after ','")
            self.expect("punct", ":", "':' after return operands")
            self.ret_types = self.parse_typelist(stop="}")
            self.expect("punct", "}", "'}'")
            if self.cur.kind != "eof":
                self.error("trailing input after function body")
        except _Abort:
            pass

    def parse_arg(self) -> None:
        value = self.expect("value", None, "a value after ','")
        self.expect("punct", ":", "':' after argument name")
        ty = self.expect("type", None, "argument type")
        vt = _TYPE_BY_SPELLING.get(ty.text)
        if vt is None:
            self.faults.append((-1, f"unknown type {ty.text}", ty.span))
            vt = ValueType.LWE_CIPHERTEXT
        self.arguments.append((self.define(value), vt))

    def parse_typelist(self, stop: str) -> list[_Token]:
        if self.at("punct", stop):
            return []
        return self.comma_list(self.expect, "type", None, "a type")

    def parse_stmt(self) -> None:
        """Read one statement, define its results and build its op;
        attribute presence and ranges, operand and result counts are left
        to validate()."""
        results = self.comma_list(self.expect, "value", None, "a result value")
        self.expect("punct", "=", "'='")
        opname = self.expect("ident", None, "an operation name")
        operands = []
        if self.at("value"):
            operands = self.comma_list(self.expect, "value", None, "a value after ','")
        attrs: dict[str, tuple[object, SourceSpan]] = {}
        if self.at("punct", "{"):
            self.advance()
            self.comma_list(self.parse_attr, attrs)
            self.expect("punct", "}", "'}' after attributes")
        self.expect("punct", ":", "':' before the result type")
        ty = self.expect("type", None, "a result type")

        index = len(self.operators)
        self.operators.append(None)
        self.op_spans.append(opname.span)
        result_ids = tuple(map(self.define, results))
        tag = _TAG_BY_OPNAME.get(opname.text)
        if tag is None:
            self.faults.append((index, f"unknown operation '{opname.text}'", opname.span))
            return
        fields: dict[str, object] = {}
        section = None
        ok = True
        for name, (value, vspan) in attrs.items():
            self.attr_spans[index, name] = vspan
            if name not in KIND_ATTRS and name != "section":
                message = f"{opname.text} does not take attribute '{name}'"
                self.faults.append((index, message, vspan))
                ok = False
                continue
            problem = attr_shape_problem(name, value)
            if problem is not None:
                self.faults.append((index, problem, vspan))
                ok = False
            elif name == "section":
                section = value
            else:
                fields[name] = value
        if not ok:
            return
        want_type = tag.result_type.value
        if ty.text != want_type:
            message = f"type mismatch: {opname.text} produces {want_type}, not {ty.text}"
            self.faults.append((index, message, ty.span))
            ok = False
        op = (index, operands, OpKind(tag, **fields) if ok else None, result_ids, section)
        if not self.build(*op):
            self.pending.append(op)

    def parse_attr(self, attrs: dict[str, tuple[object, SourceSpan]]) -> None:
        name_tok = self.expect("ident", None, "an attribute name")
        self.expect("punct", "=", "'=' in attribute")
        value, vspan = self.parse_attrval()
        if name_tok.text in attrs:
            self.error(f"duplicate attribute '{name_tok.text}'", name_tok.span)
        else:
            attrs[name_tok.text] = (value, vspan)

    def integer(self, what: str) -> tuple[int, SourceSpan]:
        """An integer literal; one longer than int() reads is an error at
        its span."""
        tok = self.expect("int", None, what)
        try:
            return int(tok.text), tok.span
        except ValueError:  # past sys.get_int_max_str_digits()
            limit = sys.get_int_max_str_digits()
            self.error(f"integer literal has more than {limit} digits", tok.span)
            raise _Abort() from None

    def parse_attrval(self) -> tuple[object, SourceSpan]:
        if self.at("int"):
            return self.integer("an integer")
        if self.at("punct", "["):
            open_tok = self.advance()
            items = self.comma_list(self.integer, "an integer in the list")
            close = self.expect("punct", "]", "']'")
            length = close.span.column - open_tok.span.column + close.span.length
            span = SourceSpan(open_tok.span.line, open_tok.span.column, max(length, 1))
            return tuple(value for value, _ in items), span
        self.error("expected an integer or integer list")
        raise _Abort()

    def resync(self) -> None:
        """After a bad statement, skip to the next plausible boundary."""
        self.advance()
        while self.cur.kind != "eof":
            if self.at("value") or self.at("ident", "return") or self.at("punct", "}"):
                return
            self.advance()

    # -- name resolution

    def define(self, tok: _Token) -> int:
        vid = self.ids.get(tok.text)
        if vid is not None:
            self.faults.append((-1, f"value {tok.text} defined more than once", tok.span))
            return vid
        vid = self.ids[tok.text] = len(self.ids)
        return vid

    def build(
        self,
        index: int,
        operands: list[_Token],
        kind: OpKind | None,
        results: tuple[int, ...],
        section: int | None,
    ) -> bool:
        """Build statement `index`'s op unless `kind` is None; False while
        an operand is not defined."""
        vids = [self.ids.get(tok.text) for tok in operands]
        if None in vids:
            return False
        if kind is not None:
            self.operators[index] = Operator(index, kind, tuple(vids), results, section)
        return True

    def undefined(self, rank: int, tokens: list[_Token]) -> None:
        """A use-before-def fault at each of `tokens` that names no value."""
        for tok in tokens:
            if tok.text not in self.ids:
                self.faults.append((rank, f"use-before-def {tok.text}", tok.span))

    def graph(self) -> CircuitGraph | None:
        """Once the body is read: resolve the forward operands and the
        returns, then check the graph.  None when `diags` is not empty."""
        for index, operands, *rest in self.pending:
            if not self.build(index, operands, *rest):
                self.undefined(index, operands)
        self.undefined(len(self.operators), self.ret_operands)
        for _, message, span in sorted(self.faults, key=lambda fault: fault[0]):
            self.diags.add(message, span)
        if self.diags:
            return None
        returns = tuple(self.ids[tok.text] for tok in self.ret_operands)
        names = {vid: text[1:] for text, vid in self.ids.items()}
        graph = CircuitGraph(
            self.name.text[1:], tuple(self.arguments), tuple(self.operators), returns, names
        )
        del self.ids, self.pending, names  # free before validate() builds the indexes
        self.check_return_types(graph)
        if self.diags:
            return None
        for violation in validate(graph):
            # At the attribute's value, else the op name, else the function name.
            oid = violation.op_id
            span = self.name.span
            if oid is not None:
                span = self.attr_spans.get((oid, violation.attr), self.op_spans[oid])
            self.diags.add(violation.message, span)
        if self.diags:
            return None
        return graph

    def check_return_types(self, graph: CircuitGraph) -> None:
        types = graph.value_types
        actual = [types[v].value for v in graph.returns]
        if len(self.ret_types) != len(actual):
            span = self.ret_types[0].span if self.ret_types else self.name.span
            self.diags.add(
                f"return lists {len(self.ret_types)} types for {len(actual)} values", span
            )
            return
        for want, got in zip(actual, self.ret_types):
            if got.text != want:
                self.diags.add(
                    f"return type mismatch: value has type {want}, not {got.text}", got.span
                )
        if len(self.arrow_types) != len(actual):
            self.diags.add(
                f"function signature declares {len(self.arrow_types)} results, returns {len(actual)}",
                self.name.span,
            )
            return
        for want, got in zip(actual, self.arrow_types):
            if got.text != want:
                self.diags.add(
                    f"declared result type {got.text} does not match returned {want}", got.span
                )


def parse(text: str) -> CircuitGraph:
    """Parse one function; raise ParseError with diagnostics on failure."""
    diagnostics = _Diagnostics()
    tokens = _tokens(text, diagnostics)
    parser = _Parser(tokens, diagnostics)
    parser.parse_function()
    for _ in tokens:  # the lexer's diagnostics past where the parser stopped
        pass
    graph = None if diagnostics else parser.graph()
    if graph is None:
        raise ParseError(diagnostics)
    return graph


# ---------------------------------------------------------------------------
# Printer


def _format_attr_value(value: int | tuple[int, ...]) -> str:
    if isinstance(value, tuple):
        return "[" + ", ".join(str(v) for v in value) + "]"
    return str(value)


def print_circuit(graph: CircuitGraph) -> str:
    """Render a graph in canonical textual form (ends with a newline)."""
    name = graph.display_name
    args = ", ".join(f"%{name(vid)}: {vt.value}" for vid, vt in graph.arguments)
    ret_types = ", ".join(graph.value_types[v].value for v in graph.returns)
    header_types = f"{ret_types} " if ret_types else ""
    lines = [f"func @{graph.name}({args}) -> {header_types}{{"]
    for op in graph.operators:
        results = ", ".join(f"%{name(r)}" for r in op.results)
        operands = ", ".join(f"%{name(v)}" for v in op.operands)
        attrs = dict(op.kind.attrs())
        if op.section is not None:
            attrs["section"] = op.section
        parts = [results, "=", op.kind.tag.opname]
        if operands:
            parts.append(operands)
        if attrs:
            body = ", ".join(
                f"{k} = {_format_attr_value(attrs[k])}" for k in sorted(attrs)
            )
            parts.append("{" + body + "}")
        parts.append(f": {op.kind.tag.result_type.value}")
        lines.append("  " + " ".join(parts))
    ret_vals = ", ".join(f"%{name(v)}" for v in graph.returns)
    if ret_vals:
        lines.append(f"  return {ret_vals} : {ret_types}")
    else:
        lines.append("  return :")
    lines.append("}")
    return "\n".join(lines) + "\n"
