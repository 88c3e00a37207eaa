"""User-facing eDSL for building CIN programs.

The surface mirrors the paper's notation::

    import repro.lang as fl

    i, j = fl.indices("i", "j")
    prog = fl.forall(i, fl.forall(j,
        fl.increment(y[i], A[i, j] * x[fl.gallop(j)])))

Tensors implement ``__getitem__`` returning :class:`Access` nodes, and
scalar IR expressions support Python arithmetic operators.  Comparisons
are spelled as functions (``fl.eq``, ``fl.lt``, ...) because ``==`` on
IR nodes means *structural equality*.
"""

from repro.cin.nodes import (
    Access,
    Assign,
    Forall,
    Multi,
    OffsetExpr,
    Pass,
    PermitExpr,
    Sieve,
    Where,
    WindowExpr,
)
from repro.ir import build, ops
from repro.ir.nodes import Expr, Extent, Var, as_expr
from repro.util.errors import ReproError


def indices(*names):
    """Create loop index variables: ``i, j = indices("i", "j")``."""
    if len(names) == 1 and " " in names[0]:
        names = tuple(names[0].split())
    out = tuple(Var(name, integral=True) for name in names)
    return out[0] if len(out) == 1 else out


class ProtocolMarker:
    """An index annotated with an access protocol: ``gallop(j)``."""

    def __init__(self, idx, protocol):
        self.idx = as_expr(idx)
        self.protocol = protocol

    def __repr__(self):
        return "%s(%r)" % (self.protocol, self.idx)


def walk(idx):
    """Iterate in ascending order, one child at a time (default)."""
    return ProtocolMarker(idx, "walk")


def gallop(idx):
    """Lead the coiteration, skipping ahead (mutual lookahead when all
    operands gallop — the worst-case-optimal-join strategy)."""
    return ProtocolMarker(idx, "gallop")


def offset(base, delta):
    """``offset(delta)[base]``: read the parent at ``base - delta``."""
    return OffsetExpr(delta, _strip(base))


def window(base, lo, hi):
    """``window(lo, hi)[base]``: the slice ``[lo, hi)`` of the parent."""
    return WindowExpr(lo, hi, _strip(base))


def permit(base):
    """Allow out-of-bounds reads, which evaluate to ``missing``."""
    return PermitExpr(_strip(base))


def _strip(idx):
    if isinstance(idx, ProtocolMarker):
        raise ReproError(
            "apply the protocol to the whole index expression: "
            "gallop(offset(j, d)), not offset(gallop(j), d)")
    return as_expr(idx)


def access(tensor, *idxs):
    """Build an Access, honoring ProtocolMarker annotations."""
    plain = []
    protocols = []
    for idx in idxs:
        if isinstance(idx, ProtocolMarker):
            plain.append(idx.idx)
            protocols.append(idx.protocol)
        else:
            plain.append(as_expr(idx))
            protocols.append("walk")
    return Access(tensor, plain, protocols)


def store(lhs, rhs):
    """``lhs = rhs`` (overwrite)."""
    return Assign(lhs, None, rhs)


def increment(lhs, rhs):
    """``lhs += rhs``."""
    return Assign(lhs, ops.ADD, rhs)


def reduce_into(lhs, op, rhs):
    """``lhs <<op>>= rhs`` for an arbitrary reduction operator."""
    return Assign(lhs, op, rhs)


def forall(index, body, ext=None):
    """``@∀ index [∈ ext] body``; ``ext`` is ``(start, stop)``."""
    if ext is not None and not isinstance(ext, Extent):
        start, stop = ext
        ext = Extent(start, stop)
    return Forall(index, body, ext=ext)


def foralls(index_list, body, exts=None):
    """Nest foralls: ``foralls([i, j], stmt)`` = ``∀i ∀j stmt``."""
    exts = exts or {}
    out = body
    for index in reversed(list(index_list)):
        if isinstance(index, str):
            index = Var(index, integral=True)
        out = forall(index, out, ext=exts.get(index.name))
    return out


def where(consumer, producer):
    return Where(consumer, producer)


def multi(*stmts):
    return Multi(stmts)


def sieve(cond, body):
    return Sieve(cond, body)


def pass_(*tensors):
    return Pass(tensors)


# Scalar expression helpers (comparisons cannot be Python operators
# because == on IR nodes is structural equality).
def eq(a, b):
    return build.eq(a, b)


def ne(a, b):
    return build.ne(a, b)


def lt(a, b):
    return build.lt(a, b)


def le(a, b):
    return build.le(a, b)


def gt(a, b):
    return build.gt(a, b)


def ge(a, b):
    return build.ge(a, b)


def land(*args):
    return build.land(*args)


def lor(*args):
    return build.lor(*args)


def coalesce(*args):
    return build.coalesce(*args)


def minimum(*args):
    return build.minimum(*args)


def maximum(*args):
    return build.maximum(*args)


def call(op, *args):
    return build.call(op, *args)


def literal(value):
    return as_expr(value)


def _expr_add(self, other):
    return build.plus(self, other)


def _expr_radd(self, other):
    return build.plus(other, self)


def _expr_mul(self, other):
    return build.times(self, other)


def _expr_rmul(self, other):
    return build.times(other, self)


def _expr_sub(self, other):
    return build.minus(self, as_expr(other))


def _expr_rsub(self, other):
    return build.minus(as_expr(other), self)


def _expr_neg(self):
    return build.negate(self)


def _expr_truediv(self, other):
    return build.call(ops.DIV, self, other)


def _expr_rtruediv(self, other):
    return build.call(ops.DIV, other, self)


def _expr_pow(self, other):
    return build.call(ops.POW, self, other)


def _install_expr_operators():
    """Give IR expressions Python arithmetic operators.

    Installed here (not in :mod:`repro.ir.nodes`) so the core IR stays
    free of DSL conveniences, while any import of the language surface
    enables them.
    """
    Expr.__add__ = _expr_add
    Expr.__radd__ = _expr_radd
    Expr.__mul__ = _expr_mul
    Expr.__rmul__ = _expr_rmul
    Expr.__sub__ = _expr_sub
    Expr.__rsub__ = _expr_rsub
    Expr.__neg__ = _expr_neg
    Expr.__truediv__ = _expr_truediv
    Expr.__rtruediv__ = _expr_rtruediv
    Expr.__pow__ = _expr_pow


_install_expr_operators()
