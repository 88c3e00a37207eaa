"""Extended Concrete Index Notation (Figure 4 of the paper).

Statements: assignment (overwrite or reduce-by-op), ``forall``,
``where``, ``multi``, ``sieve`` and ``pass``.  Expressions reuse the
scalar IR (:mod:`repro.ir`) extended with :class:`Access` nodes, which
reference a tensor by a sequence of index expressions.  Index
expressions may wrap a loop index with the Section 8 modifiers
(:class:`OffsetExpr`, :class:`WindowExpr`, :class:`PermitExpr`) and may
carry per-mode access :class:`protocols <repro.formats>` (walk or
gallop).
"""

import numpy as np

from repro.ir.nodes import Expr, Var, as_expr
from repro.ir.ops import Op, get_op
from repro.util.errors import ReproError

#: Recognized access protocols; an unmarked mode walks.
PROTOCOLS = ("walk", "gallop")


class OffsetExpr(Expr):
    """``offset(delta)[base]``: index ``i`` reads the parent at ``i - delta``.

    Equivalently the child sequence appears shifted *forward* by
    ``delta`` in the parent's coordinate system (paper Section 8).
    """

    __slots__ = ("delta", "base")

    def __init__(self, delta, base):
        self.delta = as_expr(delta)
        self.base = as_expr(base)

    def key(self):
        return ("offset", self.delta.key(), self.base.key())

    def children(self):
        return (self.delta, self.base)

    def rebuild(self, children):
        delta, base = children
        return OffsetExpr(delta, base)

    def __repr__(self):
        return "offset(%r)[%r]" % (self.delta, self.base)


class WindowExpr(Expr):
    """``window(lo, hi)[base]``: restrict to the slice ``[lo, hi)``.

    ``A[window(lo, hi)[k]]`` behaves like the slice ``A[lo:hi][k]``, so
    the visible dimension has size ``hi - lo``.
    """

    __slots__ = ("lo", "hi", "base")

    def __init__(self, lo, hi, base):
        self.lo = as_expr(lo)
        self.hi = as_expr(hi)
        self.base = as_expr(base)

    def key(self):
        return ("window", self.lo.key(), self.hi.key(), self.base.key())

    def children(self):
        return (self.lo, self.hi, self.base)

    def rebuild(self, children):
        lo, hi, base = children
        return WindowExpr(lo, hi, base)

    def __repr__(self):
        return "window(%r, %r)[%r]" % (self.lo, self.hi, self.base)


class PermitExpr(Expr):
    """``permit[base]``: out-of-bounds reads produce ``missing``."""

    __slots__ = ("base",)

    def __init__(self, base):
        self.base = as_expr(base)

    def key(self):
        return ("permit", self.base.key())

    def children(self):
        return (self.base,)

    def rebuild(self, children):
        (base,) = children
        return PermitExpr(base)

    def __repr__(self):
        return "permit[%r]" % (self.base,)


def _permits(idx):
    """Whether a ``permit`` wraps index ``idx`` under any modifiers."""
    while isinstance(idx, (OffsetExpr, WindowExpr, PermitExpr)):
        if isinstance(idx, PermitExpr):
            return True
        idx = idx.base
    return False


def index_base(idx):
    """The innermost plain index expression under any modifiers."""
    while isinstance(idx, (OffsetExpr, WindowExpr, PermitExpr)):
        idx = idx.base
    return idx


class Access(Expr):
    """``T[i, j, ...]`` — a tensor access within a CIN expression.

    ``tensor`` is any object implementing the tensor protocol (see
    :mod:`repro.tensors`), or a fiber handle introduced by the compiler
    for partially-consumed accesses.  ``protocols`` is a per-mode tuple
    of protocol names (``"walk"`` for an unmarked mode).
    """

    __slots__ = ("tensor", "idxs", "protocols")

    def __init__(self, tensor, idxs, protocols=None):
        self.tensor = tensor
        self.idxs = tuple(as_expr(i) for i in idxs)
        if protocols is None:
            protocols = ("walk",) * len(self.idxs)
        protocols = tuple(protocols)
        if len(protocols) != len(self.idxs):
            raise ReproError("protocol count does not match index count")
        for proto in protocols:
            if proto not in PROTOCOLS:
                raise ReproError("unknown protocol %r" % (proto,))
        self.protocols = protocols

    def key(self):
        return (("access", id(self.tensor), self.protocols)
                + tuple(i.key() for i in self.idxs))

    def children(self):
        return self.idxs

    def rebuild(self, children):
        return Access(self.tensor, tuple(children), self.protocols)

    def __repr__(self):
        name = getattr(self.tensor, "name", None) or type(self.tensor).__name__
        return "%s[%s]" % (name, ", ".join(repr(i) for i in self.idxs))

    @property
    def integral(self):
        """An integer element type, and no ``permit`` that may read
        ``missing``."""
        return (np.dtype(getattr(self.tensor, "dtype", None)).kind in "biu"
                and not any(_permits(idx) for idx in self.idxs))


class CinStmt:
    """Base class for CIN statements."""

    __slots__ = ()


class Assign(CinStmt):
    """``lhs = rhs`` or ``lhs <op>= rhs`` for a reduction operator."""

    __slots__ = ("lhs", "op", "rhs")

    def __init__(self, lhs, op, rhs):
        if not isinstance(lhs, Access):
            raise ReproError("assignment target must be an Access")
        if op is not None:
            if isinstance(op, str):
                op = get_op(op)
            if not isinstance(op, Op):
                raise ReproError("bad reduction op: %r" % (op,))
        self.lhs = lhs
        self.op = op
        self.rhs = as_expr(rhs)

    def __repr__(self):
        symbol = "=" if self.op is None else self.op.name + "="
        return "%r %s %r" % (self.lhs, symbol, self.rhs)


class Forall(CinStmt):
    """``@∀ index ∈ extent body`` — extent may be inferred from shapes."""

    __slots__ = ("index", "ext", "body")

    def __init__(self, index, body, ext=None):
        if isinstance(index, str):
            index = Var(index, integral=True)
        if not isinstance(index, Var):
            raise ReproError("forall index must be a Var")
        self.index = index
        self.ext = ext
        self.body = body

    def __repr__(self):
        return "forall %s: %r" % (self.index.name, self.body)


class Where(CinStmt):
    """``consumer where producer``: compute the producer's results, then
    run the consumer using them."""

    __slots__ = ("consumer", "producer")

    def __init__(self, consumer, producer):
        self.consumer = consumer
        self.producer = producer

    def __repr__(self):
        return "(%r) where (%r)" % (self.consumer, self.producer)


class Multi(CinStmt):
    """Multiple statements computed together (multiple outputs)."""

    __slots__ = ("stmts",)

    def __init__(self, stmts):
        self.stmts = tuple(stmts)

    def __repr__(self):
        return "multi(%d stmts)" % len(self.stmts)


class Sieve(CinStmt):
    """Run ``body`` only on iterations where ``cond`` holds."""

    __slots__ = ("cond", "body")

    def __init__(self, cond, body):
        self.cond = as_expr(cond)
        self.body = body

    def __repr__(self):
        return "sieve(%r, %r)" % (self.cond, self.body)


class Pass(CinStmt):
    """No-op that remembers which outputs it does not write."""

    __slots__ = ("tensors",)

    def __init__(self, tensors=()):
        self.tensors = tuple(tensors)

    def __repr__(self):
        return "pass(%d tensors)" % len(self.tensors)


def stmt_children(stmt):
    """Child statements of a CIN statement."""
    if isinstance(stmt, Forall):
        return (stmt.body,)
    if isinstance(stmt, Where):
        return (stmt.consumer, stmt.producer)
    if isinstance(stmt, Multi):
        return stmt.stmts
    if isinstance(stmt, Sieve):
        return (stmt.body,)
    return ()


def walk_stmts(stmt):
    """All statements in the tree, preorder."""
    yield stmt
    for child in stmt_children(stmt):
        yield from walk_stmts(child)


def stmt_exprs(stmt):
    """Expressions referenced directly by one statement."""
    if isinstance(stmt, Assign):
        yield stmt.lhs
        yield stmt.rhs
    elif isinstance(stmt, Sieve):
        yield stmt.cond


def collect_accesses(stmt):
    """Every Access in the statement tree (reads and writes)."""
    out = []
    for node in walk_stmts(stmt):
        for expr in stmt_exprs(node):
            _collect_accesses_expr(expr, out)
    return out


def _collect_accesses_expr(expr, out):
    if isinstance(expr, Access):
        out.append(expr)
    for child in expr.children():
        _collect_accesses_expr(child, out)
