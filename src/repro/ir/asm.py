"""Target statement AST ("assembly") for emitted kernels.

Lowering produces these nodes; :mod:`repro.ir.emit` renders them as
Python source.  The AST is deliberately tiny — blocks, loops, branches,
assignments and comments — because everything interesting happens before
we reach it.  It is closed: every statement is made of these nodes over
:mod:`repro.ir.nodes` expressions, so every stage can read all of it.

Besides the node classes, this module provides the generic tree
machinery the optimizer pipeline (:mod:`repro.ir.optimize`) is built
on: a postorder statement rewriter (:func:`map_statements`), a
per-statement expression rewriter (:func:`map_statement_exprs`), and
the exact effects of a statement tree (:func:`effects`).

**Statements are immutable after construction.**  Every pass rebuilds
the nodes it changes and shares the rest; :func:`effects` relies on it
to compute each node's effects once and keep them on the node.

**A pass returns the very node it was given when nothing under it
changed.**  :func:`map_statements` and :func:`map_statement_exprs`
rebuild a node only when a child or an expression comes back as a
different object (:func:`unchanged`), and every pass built otherwise
follows the same rule.  It keeps the effects memo warm from one pass to
the next.
"""

from collections import namedtuple

from repro.ir.nodes import Load, Slice, Var, as_expr
from repro.ir.ops import Op, get_op
from repro.util.errors import ReproError


class Stmt:
    """Base class for target statements."""

    __slots__ = ("_effects",)

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


def _as_target(target):
    if isinstance(target, str):
        target = Var(target)
    if not isinstance(target, (Var, Load, Slice)):
        raise ReproError("bad assignment target: %r" % (target,))
    return target


class AssignStmt(Stmt):
    """``target = value`` where target is a Var, a buffer element or a
    buffer slice (a scalar value is broadcast over a slice)."""

    __slots__ = ("target", "value")

    def __init__(self, target, value):
        self.target = _as_target(target)
        self.value = as_expr(value)


class AccumStmt(Stmt):
    """``target <op>= value`` — an in-place reduction update."""

    __slots__ = ("target", "op", "value")

    def __init__(self, target, op, value):
        if isinstance(op, str):
            op = get_op(op)
        if not isinstance(op, Op):
            raise ReproError("bad accumulation op: %r" % (op,))
        self.target = _as_target(target)
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


class View(Stmt):
    """Re-bind the parameter ``buffer`` to an element view of itself:
    from here on ``buffer[i]`` reads and stores a Python scalar, not a
    numpy one.  Built only by :func:`repro.ir.emit.scalar_views`, after
    the optimizer and for the python printer alone."""

    __slots__ = ("buffer",)

    def __init__(self, buffer):
        self.buffer = as_expr(buffer)


class FuncDef(Stmt):
    """Top-level function wrapper for a compiled kernel."""

    __slots__ = ("name", "params", "body", "returns")

    def __init__(self, name, params, body, returns=()):
        self.name = name
        self.params = tuple(params)
        self.body = body if isinstance(body, Block) else Block([body])
        self.returns = tuple(returns)


def child_statements(stmt):
    """The statements nested directly under ``stmt``."""
    if isinstance(stmt, Block):
        return stmt.stmts
    if isinstance(stmt, (ForLoop, WhileLoop, FuncDef)):
        return (stmt.body,)
    if isinstance(stmt, If):
        return tuple(body for _, body in stmt.branches)
    return ()


def walk_statements(stmt):
    """Yield every statement in the tree, preorder."""
    yield stmt
    for child in child_statements(stmt):
        yield from walk_statements(child)


def statement_exprs(stmt):
    """Yield the expressions referenced directly by one statement."""
    if isinstance(stmt, (AssignStmt, AccumStmt)):
        yield stmt.target
        yield stmt.value
    elif isinstance(stmt, ForLoop):
        yield stmt.start
        yield stmt.stop
    elif isinstance(stmt, WhileLoop):
        yield stmt.cond
    elif isinstance(stmt, If):
        for cond, _ in stmt.branches:
            if cond is not None:
                yield cond
    elif isinstance(stmt, View):
        yield stmt.buffer


def target_address(target):
    """The expressions a store target evaluates: a ``Load``'s index, a
    ``Slice``'s bounds, nothing for a ``Var``."""
    return () if isinstance(target, Var) else target.children()[1:]


# --------------------------------------------------------------------------
# Generic rewriting
# --------------------------------------------------------------------------
def unchanged(new, old):
    """Whether ``new`` holds the very objects ``old`` does, in order
    (an ``If``'s ``(cond, body)`` pairs item by item): a pass's test
    for "nothing under here changed"."""
    return len(new) == len(old) and all(
        a is b or (isinstance(a, tuple) and unchanged(a, b))
        for a, b in zip(new, old))


def map_statements(stmt, fn):
    """Postorder statement rewrite.

    Children are rebuilt first, then ``fn`` is applied to the rebuilt
    node; ``fn`` returns a replacement statement (possibly a ``Block``
    or ``Nop``) or ``None`` to keep the node.  Replacements are *not*
    re-visited, so a pass can safely return trees containing nodes of
    the kind it matches on.  A node none of whose children changed is
    passed to ``fn`` as it is.
    """
    rebuilt = _map_children(stmt, fn)
    result = fn(rebuilt)
    return rebuilt if result is None else result


def _map_children(stmt, fn):
    if isinstance(stmt, Block):
        stmts = [map_statements(child, fn) for child in stmt.stmts]
        return stmt if unchanged(stmts, stmt.stmts) else Block(stmts)
    if isinstance(stmt, If):
        branches = [(cond, map_statements(body, fn))
                    for cond, body in stmt.branches]
        return stmt if unchanged(branches, stmt.branches) else If(branches)
    if isinstance(stmt, (ForLoop, WhileLoop, FuncDef)):
        return with_body(stmt, map_statements(stmt.body, fn))
    return stmt


def with_body(stmt, body):
    """The loop or function ``stmt`` around ``body``: ``stmt`` itself
    when ``body`` is the one it has."""
    if body is stmt.body:
        return stmt
    if isinstance(stmt, ForLoop):
        return ForLoop(stmt.var, stmt.start, stmt.stop, body)
    if isinstance(stmt, WhileLoop):
        return WhileLoop(stmt.cond, body)
    return FuncDef(stmt.name, stmt.params, body, returns=stmt.returns)


def map_statement_exprs(stmt, fn):
    """Rebuild one statement with ``fn`` applied to each expression,
    or return it as it is when ``fn`` hands back every expression
    unchanged.

    Does not recurse into child statements (combine with
    :func:`map_statements` for whole-tree rewrites).  Assignment
    targets keep their shape: a ``Var`` target is left alone (it is a
    write, not a read), a store target has only its address mapped.
    """
    if isinstance(stmt, (AssignStmt, AccumStmt)):
        target = stmt.target
        if not isinstance(target, Var):
            address = target_address(target)
            mapped = [fn(e) for e in address]
            if not unchanged(mapped, address):
                target = target.rebuild([target.buffer] + mapped)
        value = fn(stmt.value)
        if target is stmt.target and value is stmt.value:
            return stmt
        if isinstance(stmt, AssignStmt):
            return AssignStmt(target, value)
        return AccumStmt(target, stmt.op, value)
    if isinstance(stmt, ForLoop):
        start, stop = fn(stmt.start), fn(stmt.stop)
        if start is stmt.start and stop is stmt.stop:
            return stmt
        return ForLoop(stmt.var, start, stop, stmt.body)
    if isinstance(stmt, WhileLoop):
        cond = fn(stmt.cond)
        return stmt if cond is stmt.cond else WhileLoop(cond, stmt.body)
    if isinstance(stmt, If):
        branches = [(None if cond is None else fn(cond), body)
                    for cond, body in stmt.branches]
        return stmt if unchanged(branches, stmt.branches) else If(branches)
    return stmt


# --------------------------------------------------------------------------
# Effects analysis
# --------------------------------------------------------------------------
Effects = namedtuple("Effects", "reads writes stores")


def load_buffers(expr, out=None):
    """Names of all buffers ``expr`` loads from."""
    if out is None:
        out = set()
    if isinstance(expr, (Load, Slice)):
        out.add(expr.buffer.name)
    for child in expr.children():
        load_buffers(child, out)
    return out


def effects(stmt):
    """What a statement tree may do, as frozensets: the names (scalars
    and buffers) it ``reads``, the scalar variables it ``writes`` (loop
    variables included) and the buffers it ``stores`` into.

    Computed bottom-up from the children's effects and kept on the
    node, so a pass asking at every nesting level walks the tree once.
    """
    known = getattr(stmt, "_effects", None)
    if known is not None:
        return known
    reads, writes, stores = set(), set(), set()
    exprs = statement_exprs(stmt)
    if isinstance(stmt, (AssignStmt, AccumStmt)):
        target = stmt.target
        if not isinstance(target, Var):
            stores.add(target.buffer.name)
        else:
            writes.add(target.name)
            if isinstance(stmt, AssignStmt):
                exprs = (stmt.value,)   # a plain write does not read it
    elif isinstance(stmt, ForLoop):
        writes.add(stmt.var.name)
    elif isinstance(stmt, View):
        writes.add(stmt.buffer.name)    # read, too: see statement_exprs
    for expr in exprs:
        reads |= expr.free_vars()
    for child in child_statements(stmt):
        for mine, theirs in zip((reads, writes, stores), effects(child)):
            mine |= theirs
    stmt._effects = Effects(frozenset(reads), frozenset(writes),
                            frozenset(stores))
    return stmt._effects
