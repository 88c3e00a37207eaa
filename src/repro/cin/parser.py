"""A text front end for Concrete Index Notation.

Lets kernels be written the way the paper prints them::

    parse("forall i, j: y[i] += A[i, j::gallop] * x[j::gallop]",
          tensors={"A": A, "x": x, "y": y})

Grammar (EBNF-ish)::

    program   := forall* stmt
    forall    := "forall" decl ("," decl)* ":"
    decl      := NAME ("in" expr ":" expr)?
    stmt      := access aug expr
    aug       := "=" | "+=" | "*=" | "min=" | "max=" | "|=" | "&="
    expr      := or ;  or := and ("||" and)*
    and       := cmp ("&&" cmp)*
    cmp       := add (("=="|"!="|"<="|"<"|">="|">") add)?
    add       := mul (("+"|"-") mul)* ;  mul := unary (("*"|"/") unary)*
    unary     := "-" unary | atom
    atom      := NUMBER | NAME | NAME "(" args ")" | NAME "[" idxs "]"
               | "(" expr ")"
    idxs      := [ idx ("," idx)* ]
    idx       := idxatom ("::" PROTOCOL)?
    idxatom   := NAME
               | "permit" "(" idxatom ")"
               | "offset" "(" idxatom "," expr ")"
               | "window" "(" idxatom "," expr "," expr ")"

Names bound in ``tensors`` become accesses; every other name is a loop
index (or a scalar parameter from ``scalars``).  Function names resolve
through the operator registry (``coalesce``, ``min``, ``abs``, ...).
"""

import re

from repro.cin.builders import access as build_access
from repro.cin.builders import forall as build_forall
from repro.cin.builders import (
    ProtocolMarker,
    offset as build_offset,
    permit as build_permit,
    window as build_window,
)
from repro.cin.nodes import PROTOCOLS, Assign
from repro.ir import build, ops
from repro.ir.nodes import Extent, Literal, Var, as_expr
from repro.util.errors import ParseError

_TOKEN = re.compile(r"""
    (?P<num>\d+\.\d*|\.\d+|\d+)
  | (?P<op>\+=|\*=|min=|max=|\|=|&=|::|==|!=|<=|>=|&&|\|\||[-+*/()\[\],:=<>])
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<ws>\s+)
  | (?P<bad>.)
""", re.VERBOSE)

_AUG_OPS = {"=": None, "+=": ops.ADD, "*=": ops.MUL, "min=": ops.MIN,
            "max=": ops.MAX, "|=": ops.OR, "&=": ops.AND}

_MODIFIERS = ("permit", "offset", "window")


class _Token:
    __slots__ = ("kind", "text", "position")

    def __init__(self, kind, text, position):
        self.kind = kind
        self.text = text
        self.position = position

    def __repr__(self):
        return "%s(%r)" % (self.kind, self.text)


def _tokenize(text):
    tokens = []
    for match in _TOKEN.finditer(text):
        kind = match.lastgroup
        if kind == "ws":
            continue
        if kind == "bad":
            raise ParseError("unexpected character %r" % match.group(),
                             match.start(), text)
        tokens.append(_Token(kind, match.group(), match.start()))
    tokens.append(_Token("eof", "", len(text)))
    return tokens


class Parser:
    """Recursive-descent parser for the CIN surface syntax."""

    def __init__(self, text, tensors=None, scalars=None):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.tensors = dict(tensors or {})
        self.scalars = dict(scalars or {})

    # -- token plumbing --------------------------------------------------
    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect(self, text):
        token = self.advance()
        if token.text != text:
            raise ParseError("expected %r, found %r" % (text, token.text),
                             token.position, self.text)
        return token

    def accept(self, text):
        if self.peek().text == text:
            return self.advance()
        return None

    def fail(self, message):
        token = self.peek()
        raise ParseError(message + " (at %r)" % token.text,
                         token.position, self.text)

    # -- grammar -----------------------------------------------------------
    def parse_program(self):
        foralls = []
        while self.peek().text == "forall":
            self.advance()
            foralls.extend(self._parse_decls())
            self.expect(":")
        stmt = self.parse_assignment()
        if self.peek().kind != "eof":
            self.fail("trailing input after statement")
        for index, ext in reversed(foralls):
            stmt = build_forall(index, stmt, ext=ext)
        return stmt

    def _parse_decls(self):
        decls = [self._parse_decl()]
        while self.accept(","):
            decls.append(self._parse_decl())
        return decls

    def _parse_decl(self):
        name = self._expect_name()
        ext = None
        if self.peek().text == "in":
            self.advance()
            start = self.parse_expr()
            self.expect(":")
            stop = self.parse_expr()
            ext = Extent(start, stop)
        return Var(name, integral=True), ext

    def _expect_name(self):
        token = self.advance()
        if token.kind != "name":
            raise ParseError("expected a name, found %r" % token.text,
                             token.position, self.text)
        return token.text

    def parse_assignment(self):
        lhs = self.parse_expr()
        from repro.cin.nodes import Access

        if not isinstance(lhs, Access):
            self.fail("assignment target must be a tensor access")
        token = self.advance()
        if token.text not in _AUG_OPS:
            raise ParseError(
                "expected an assignment operator, found %r" % token.text,
                token.position, self.text)
        rhs = self.parse_expr()
        return Assign(lhs, _AUG_OPS[token.text], rhs)

    def parse_expr(self):
        return self._parse_or()

    def _parse_or(self):
        expr = self._parse_and()
        while self.accept("||"):
            expr = build.lor(expr, self._parse_and())
        return expr

    def _parse_and(self):
        expr = self._parse_cmp()
        while self.accept("&&"):
            expr = build.land(expr, self._parse_cmp())
        return expr

    _CMP = {"==": build.eq, "!=": build.ne, "<": build.lt,
            "<=": build.le, ">": build.gt, ">=": build.ge}

    def _parse_cmp(self):
        expr = self._parse_add()
        if self.peek().text in self._CMP:
            op = self.advance().text
            expr = self._CMP[op](expr, self._parse_add())
        return expr

    def _parse_add(self):
        expr = self._parse_mul()
        while self.peek().text in ("+", "-"):
            op = self.advance().text
            rhs = self._parse_mul()
            expr = build.plus(expr, rhs) if op == "+" \
                else build.minus(expr, rhs)
        return expr

    def _parse_mul(self):
        expr = self._parse_unary()
        while self.peek().text in ("*", "/"):
            op = self.advance().text
            rhs = self._parse_unary()
            expr = build.times(expr, rhs) if op == "*" \
                else build.call(ops.DIV, expr, rhs)
        return expr

    def _parse_unary(self):
        if self.accept("-"):
            return build.negate(self._parse_unary())
        return self._parse_atom()

    def _parse_atom(self):
        token = self.peek()
        if token.kind == "num":
            self.advance()
            value = float(token.text) if "." in token.text \
                else int(token.text)
            return Literal(value)
        if token.text == "(":
            self.advance()
            expr = self.parse_expr()
            self.expect(")")
            return expr
        if token.kind == "name":
            return self._parse_name()
        self.fail("expected an expression")

    def _parse_name(self):
        name = self._expect_name()
        if self.peek().text == "(":
            return self._parse_call(name)
        if self.peek().text == "[" and name in self.tensors:
            return self._parse_access(name)
        if name in self.tensors:
            tensor = self.tensors[name]
            if getattr(tensor, "ndim", None) == 0:
                return build_access(tensor)
            self.fail("tensor %r used without indices" % name)
        if name in self.scalars:
            return as_expr(self.scalars[name])
        return Var(name)

    def _parse_call(self, name):
        if name in _MODIFIERS:
            self.fail("index modifier %r outside tensor brackets" % name)
        try:
            op = ops.get_op(name)
        except Exception:
            self.fail("unknown function %r" % name)
        self.expect("(")
        args = []
        if self.peek().text != ")":
            args.append(self.parse_expr())
            while self.accept(","):
                args.append(self.parse_expr())
        self.expect(")")
        return build.call(op, *args)

    def _parse_access(self, name):
        tensor = self.tensors[name]
        self.expect("[")
        idxs = []
        if self.peek().text != "]":
            idxs.append(self._parse_index())
            while self.accept(","):
                idxs.append(self._parse_index())
        self.expect("]")
        return build_access(tensor, *idxs)

    def _parse_index(self):
        idx = self._parse_index_atom()
        if self.accept("::"):
            proto = self._expect_name()
            if proto not in PROTOCOLS:
                self.fail("unknown protocol %r" % proto)
            return ProtocolMarker(idx, proto)
        return idx

    def _parse_index_atom(self):
        token = self.peek()
        if token.kind == "name" and token.text in _MODIFIERS:
            name = self.advance().text
            self.expect("(")
            base = self._parse_index_atom()
            if name == "permit":
                self.expect(")")
                return build_permit(base)
            if name == "offset":
                self.expect(",")
                delta = self.parse_expr()
                self.expect(")")
                return build_offset(base, delta)
            self.expect(",")
            lo = self.parse_expr()
            self.expect(",")
            hi = self.parse_expr()
            self.expect(")")
            return build_window(base, lo, hi)
        # A bare index is any scalar expression; usually a plain name.
        return self.parse_expr()


def parse(text, tensors=None, scalars=None):
    """Parse one CIN statement (with optional forall prefixes)."""
    return Parser(text, tensors=tensors, scalars=scalars).parse_program()
