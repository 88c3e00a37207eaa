"""Target statement AST ("assembly") for emitted kernels.

Lowering produces these nodes; :mod:`repro.ir.emit` renders them as
Python source.  The AST is deliberately tiny — blocks, loops, branches,
assignments and comments — because everything interesting happens before
we reach it.

Besides the node classes, this module provides the generic tree
machinery the optimizer pipeline (:mod:`repro.ir.optimize`) is built
on: a postorder statement rewriter (:func:`map_statements`), a
per-statement expression rewriter (:func:`map_statement_exprs`), and a
conservative effects analysis (:func:`stmt_reads`, :func:`stmt_writes`,
:func:`stmt_stores`) that treats :class:`Raw` lines as touching every
identifier they mention.
"""

import re

from repro.ir.nodes import Expr, Load, Var, as_expr
from repro.ir.ops import Op, get_op
from repro.util.errors import ReproError

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class Stmt:
    """Base class for target statements."""

    __slots__ = ()

    def is_nop(self):
        return False


class Block(Stmt):
    """A sequence of statements; nested blocks are flattened."""

    __slots__ = ("stmts",)

    def __init__(self, stmts=()):
        flat = []
        for stmt in stmts:
            if stmt is None or stmt.is_nop():
                continue
            if isinstance(stmt, Block):
                flat.extend(stmt.stmts)
            else:
                flat.append(stmt)
        self.stmts = tuple(flat)

    def is_nop(self):
        return not self.stmts

    def __repr__(self):
        return "Block(%d stmts)" % len(self.stmts)


class Nop(Stmt):
    """No operation (elided during emission)."""

    __slots__ = ()

    def is_nop(self):
        return True


class Comment(Stmt):
    """A source comment carried through to emitted code."""

    __slots__ = ("text",)

    def __init__(self, text):
        self.text = text


class AssignStmt(Stmt):
    """``target = value`` where target is a Var or a buffer element."""

    __slots__ = ("target", "value")

    def __init__(self, target, value):
        if isinstance(target, str):
            target = Var(target)
        if not isinstance(target, (Var, Load)):
            raise ReproError("bad assignment target: %r" % (target,))
        self.target = target
        self.value = as_expr(value)


class AccumStmt(Stmt):
    """``target <op>= value`` — an in-place reduction update."""

    __slots__ = ("target", "op", "value")

    def __init__(self, target, op, value):
        if isinstance(target, str):
            target = Var(target)
        if isinstance(op, str):
            op = get_op(op)
        if not isinstance(op, Op):
            raise ReproError("bad accumulation op: %r" % (op,))
        self.target = target
        self.op = op
        self.value = as_expr(value)


class ForLoop(Stmt):
    """``for var in range(start, stop): body`` (half-open)."""

    __slots__ = ("var", "start", "stop", "body")

    def __init__(self, var, start, stop, body):
        if isinstance(var, str):
            var = Var(var)
        self.var = var
        self.start = as_expr(start)
        self.stop = as_expr(stop)
        self.body = body if isinstance(body, Block) else Block([body])


class WhileLoop(Stmt):
    """``while cond: body``."""

    __slots__ = ("cond", "body")

    def __init__(self, cond, body):
        self.cond = as_expr(cond)
        self.body = body if isinstance(body, Block) else Block([body])


class If(Stmt):
    """``if/elif/else`` chain.

    ``branches`` is a list of ``(cond, block)`` pairs; a ``None``
    condition marks the trailing ``else``.
    """

    __slots__ = ("branches",)

    def __init__(self, branches):
        cleaned = []
        for cond, body in branches:
            if cond is not None:
                cond = as_expr(cond)
            body = body if isinstance(body, Block) else Block([body])
            cleaned.append((cond, body))
        if not cleaned:
            raise ReproError("If requires at least one branch")
        self.branches = tuple(cleaned)

    def is_nop(self):
        return all(body.is_nop() for _, body in self.branches)


class Raw(Stmt):
    """An opaque line of Python source (used sparingly, e.g. ``pass``)."""

    __slots__ = ("line",)

    def __init__(self, line):
        self.line = line


class FuncDef(Stmt):
    """Top-level function wrapper for a compiled kernel."""

    __slots__ = ("name", "params", "body", "returns")

    def __init__(self, name, params, body, returns=()):
        self.name = name
        self.params = tuple(params)
        self.body = body if isinstance(body, Block) else Block([body])
        self.returns = tuple(returns)


def block(*stmts):
    return Block(stmts)


def walk_statements(stmt):
    """Yield every statement in the tree, preorder."""
    yield stmt
    if isinstance(stmt, Block):
        for child in stmt.stmts:
            yield from walk_statements(child)
    elif isinstance(stmt, (ForLoop, WhileLoop, FuncDef)):
        yield from walk_statements(stmt.body)
    elif isinstance(stmt, If):
        for _, body in stmt.branches:
            yield from walk_statements(body)


def statement_exprs(stmt):
    """Yield the expressions referenced directly by one statement."""
    if isinstance(stmt, AssignStmt):
        yield stmt.target
        yield stmt.value
    elif isinstance(stmt, AccumStmt):
        yield stmt.target
        yield stmt.value
    elif isinstance(stmt, ForLoop):
        yield stmt.start
        yield stmt.stop
    elif isinstance(stmt, WhileLoop):
        yield stmt.cond
    elif isinstance(stmt, If):
        for cond, _ in stmt.branches:
            if isinstance(cond, Expr):
                yield cond


# --------------------------------------------------------------------------
# Generic rewriting
# --------------------------------------------------------------------------
def map_statements(stmt, fn):
    """Postorder statement rewrite.

    Children are rebuilt first, then ``fn`` is applied to the rebuilt
    node; ``fn`` returns a replacement statement (possibly a ``Block``
    or ``Nop``) or ``None`` to keep the node.  Replacements are *not*
    re-visited, so a pass can safely return trees containing nodes of
    the kind it matches on.
    """
    rebuilt = _map_children(stmt, fn)
    result = fn(rebuilt)
    return rebuilt if result is None else result


def _map_children(stmt, fn):
    if isinstance(stmt, Block):
        return Block([map_statements(child, fn) for child in stmt.stmts])
    if isinstance(stmt, ForLoop):
        return ForLoop(stmt.var, stmt.start, stmt.stop,
                       map_statements(stmt.body, fn))
    if isinstance(stmt, WhileLoop):
        return WhileLoop(stmt.cond, map_statements(stmt.body, fn))
    if isinstance(stmt, If):
        branches = [(cond, map_statements(body, fn))
                    for cond, body in stmt.branches]
        return If(branches)
    if isinstance(stmt, FuncDef):
        return FuncDef(stmt.name, stmt.params,
                       map_statements(stmt.body, fn), returns=stmt.returns)
    return stmt


def map_statement_exprs(stmt, fn):
    """Rebuild one statement with ``fn`` applied to each expression.

    Does not recurse into child statements (combine with
    :func:`map_statements` for whole-tree rewrites).  Assignment
    targets keep their ``Var``/``Load`` shape: a ``Var`` target is left
    alone (it is a write, not a read), a ``Load`` target has only its
    index mapped.
    """
    if isinstance(stmt, AssignStmt):
        target = stmt.target
        if isinstance(target, Load):
            target = Load(target.buffer, fn(target.index))
        return AssignStmt(target, fn(stmt.value))
    if isinstance(stmt, AccumStmt):
        target = stmt.target
        if isinstance(target, Load):
            target = Load(target.buffer, fn(target.index))
        return AccumStmt(target, stmt.op, fn(stmt.value))
    if isinstance(stmt, ForLoop):
        return ForLoop(stmt.var, fn(stmt.start), fn(stmt.stop), stmt.body)
    if isinstance(stmt, WhileLoop):
        return WhileLoop(fn(stmt.cond), stmt.body)
    if isinstance(stmt, If):
        return If([(None if cond is None else fn(cond), body)
                   for cond, body in stmt.branches])
    return stmt


# --------------------------------------------------------------------------
# Conservative effects analysis
# --------------------------------------------------------------------------
def raw_identifiers(line):
    """Every identifier mentioned in an opaque :class:`Raw` line."""
    return set(_IDENT_RE.findall(line))


def load_buffers(expr, out=None):
    """Names of all buffers ``expr`` loads from."""
    if out is None:
        out = set()
    if isinstance(expr, Load):
        out.add(expr.buffer.name)
    for child in expr.children():
        load_buffers(child, out)
    return out


def stmt_reads(stmt):
    """Variable names (including buffer names) possibly read by the
    statement tree.  ``Raw`` lines read every identifier they mention."""
    out = set()
    for node in walk_statements(stmt):
        if isinstance(node, AssignStmt):
            out |= node.value.free_vars()
            if isinstance(node.target, Load):
                out.add(node.target.buffer.name)
                out |= node.target.index.free_vars()
        elif isinstance(node, AccumStmt):
            out |= node.value.free_vars()
            out |= node.target.free_vars()
        elif isinstance(node, ForLoop):
            out |= node.start.free_vars() | node.stop.free_vars()
        elif isinstance(node, WhileLoop):
            out |= node.cond.free_vars()
        elif isinstance(node, If):
            for cond, _ in node.branches:
                if isinstance(cond, Expr):
                    out |= cond.free_vars()
        elif isinstance(node, Raw):
            out |= raw_identifiers(node.line)
    return out


def stmt_writes(stmt):
    """Scalar variable names possibly assigned by the statement tree
    (assignment/accumulation targets, loop variables, and — to stay
    conservative — every identifier a ``Raw`` line mentions)."""
    out = set()
    for node in walk_statements(stmt):
        if isinstance(node, (AssignStmt, AccumStmt)):
            if isinstance(node.target, Var):
                out.add(node.target.name)
        elif isinstance(node, ForLoop):
            out.add(node.var.name)
        elif isinstance(node, Raw):
            out |= raw_identifiers(node.line)
    return out


def stmt_stores(stmt):
    """Buffer names possibly stored into by the statement tree
    (``buf[i] = ...`` targets plus every identifier in ``Raw`` lines,
    which may call mutating methods such as ``.fill``)."""
    out = set()
    for node in walk_statements(stmt):
        if isinstance(node, (AssignStmt, AccumStmt)):
            if isinstance(node.target, Load):
                out.add(node.target.buffer.name)
        elif isinstance(node, Raw):
            out |= raw_identifiers(node.line)
    return out
