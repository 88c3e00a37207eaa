"""Emit target AST as Python source text.

The python backend's last step also lives here: :func:`scalar_views`
opens an optimized kernel with ``p = memoryview(p)`` for every
parameter its body only indexes one element at a time, so the scalar
loop computes on Python ``int``/``float`` and not on boxed numpy
scalars.  Kernel *arguments* are ndarrays all the same; a view is a
local of one call.
"""

from repro.ir import asm
from repro.ir.nodes import Call, Literal, Reduce, Slice, Var
from repro.ir.ops import MISSING
from repro.ir.pretty import expr_source
from repro.util.errors import ReproError

_INDENT = "    "

#: The builtins emitted statements call; no compiler-made name may
#: shadow one (:func:`repro.ir.runtime.reserved_names`).
BUILTINS = ("range", "memoryview")


def emit(stmt, indent=0):
    """Render a statement tree as Python source."""
    lines = []
    _emit(stmt, indent, lines)
    return "\n".join(lines) + "\n"


def _emit(stmt, depth, lines):
    pad = _INDENT * depth
    if stmt is None or stmt.is_nop():
        return
    if isinstance(stmt, asm.Block):
        for child in stmt.stmts:
            _emit(child, depth, lines)
    elif isinstance(stmt, asm.Comment):
        for line in str(stmt.text).splitlines():
            lines.append("%s# %s" % (pad, line))
    elif isinstance(stmt, asm.AssignStmt):
        lines.append("%s%s = %s" % (pad, expr_source(stmt.target),
                                    expr_source(stmt.value)))
    elif isinstance(stmt, asm.AccumStmt):
        _emit_accum(stmt, pad, lines)
    elif isinstance(stmt, asm.View):
        lines.append("%s%s = memoryview(%s)" % (pad, stmt.buffer.name,
                                                 stmt.buffer.name))
    elif isinstance(stmt, asm.ForLoop):
        lines.append("%sfor %s in range(%s, %s):" % (
            pad, stmt.var.name, expr_source(stmt.start),
            expr_source(stmt.stop)))
        _emit_body(stmt.body, depth + 1, lines)
    elif isinstance(stmt, asm.WhileLoop):
        lines.append("%swhile %s:" % (pad, expr_source(stmt.cond)))
        _emit_body(stmt.body, depth + 1, lines)
    elif isinstance(stmt, asm.If):
        _emit_if(stmt, depth, lines)
    elif isinstance(stmt, asm.FuncDef):
        lines.append("%sdef %s(%s):" % (pad, stmt.name,
                                        ", ".join(stmt.params)))
        _emit_body(stmt.body, depth + 1, lines)
        if stmt.returns:
            lines.append("%sreturn %s" % (_INDENT * (depth + 1),
                                          ", ".join(stmt.returns)))
    else:
        raise ReproError("cannot emit %r" % (stmt,))


def _emit_accum(stmt, pad, lines):
    target = expr_source(stmt.target)
    value = expr_source(stmt.value)
    op = stmt.op
    if op.accum is not None:
        lines.append("%s%s %s %s" % (pad, target, op.accum, value))
    elif op.lazy and op.symbol is not None:
        # Python's &=/|= are bitwise (and eager); stay with explicit
        # logic.
        lines.append("%s%s = %s %s (%s)" % (
            pad, target, target, op.symbol.strip(), value))
    else:
        lines.append("%s%s = %s" % (
            pad, target, expr_source(Call(op, (stmt.target, stmt.value)))))


def _emit_if(stmt, depth, lines):
    pad = _INDENT * depth
    if stmt.branches and stmt.branches[0][0] is None:
        # Optimizer passes can prune every conditional branch ahead of
        # an ``else``; a leading None condition is always taken, so the
        # body inlines (the remaining branches are unreachable).
        _emit(stmt.branches[0][1], depth, lines)
        return
    first = True
    for cond, body in stmt.branches:
        if cond is None:
            if body.is_nop():
                continue
            lines.append(pad + "else:")
        else:
            keyword = "if" if first else "elif"
            lines.append("%s%s %s:" % (pad, keyword, expr_source(cond)))
        _emit_body(body, depth + 1, lines)
        first = False


def _emit_body(body, depth, lines):
    before = len(lines)
    _emit(body, depth, lines)
    if len(lines) == before:
        lines.append(_INDENT * depth + "pass")


# --------------------------------------------------------------------------
# Scalar views
# --------------------------------------------------------------------------
def scalar_views(func, buffers, plan):
    """``func`` opening with an :class:`~repro.ir.asm.View` of every
    parameter that may be read and stored as Python scalars; ``func``
    itself when there is none.

    ``buffers`` are the compile-time ``(name, array)`` pairs in
    parameter order and ``plan`` their binding-plan entries.  The whole
    kernel keeps its ndarrays unless

    * every parameter holds ``float64``, ``int64`` or ``bool``: next to
      a narrower numpy scalar a Python ``float`` or ``int`` computes in
      *its* width (NEP 50) where an ``np.float64`` or ``np.int64``
      widens it — a run length times a ``uint8`` value wraps;
    * every operator it uses is ``exact`` (:class:`repro.ir.ops.Op`), it
      stores no ``missing`` (an ndarray takes that as ``nan``, a view
      refuses it) and it does no arithmetic on truth values alone (two
      ``np.bool_`` add to ``True``, two Python ``bool`` to 2).

    Then a parameter is viewed when it has a plan entry (a buffer pinned
    by a custom format stays what it is), native byte order, no
    ``Slice`` naming it (numpy does those), and is ``float64``, or an
    ``int64`` *structure* array (``pos``, ``idx``, ``right``...: any
    role but the element values) the kernel never stores to.  ``bool``
    and ``int64`` values and every written integer buffer keep the
    ndarray: numpy wraps and truncates there where Python would not.
    """
    sliced = set()
    if any((array.dtype.kind, array.dtype.itemsize) not in _WIDE
           for _, array in buffers) or not _exact(func, sliced):
        return func
    stored = asm.effects(func).stores
    views = []
    for (name, array), entry in zip(buffers, plan):
        dtype = array.dtype
        if entry is None or name in sliced or not dtype.isnative:
            continue
        # ``val`` is the role of a tensor's element values.
        if dtype.kind == "f" or (dtype.kind == "i" and entry[1] != "val"
                                 and name not in stored):
            views.append(asm.View(name))
    if not views:
        return func
    return asm.FuncDef(func.name, func.params,
                       asm.Block(views + [func.body]), returns=func.returns)


#: (kind, itemsize) of the dtypes whose scalars compute like Python's.
_WIDE = (("f", 8), ("i", 8), ("b", 1))

#: The result-type rules (``Op.c_type``) that never give a truth value.
_NUMERIC = ("arith", "f64", "i64")


def _exact(func, sliced):
    """Whether Python scalars may flow through ``func``: every operator
    in it is ``exact``, no literal is ``missing``, and no arithmetic is
    over truth values alone — a comparison is a ``bool`` on Python
    scalars and an ``np.bool_`` on numpy ones, and two of those add to 2
    and to ``True``.  Adds the buffer of every ``Slice`` to ``sliced``.
    """
    assigns, sums, stmts = [], [], [func]
    while stmts:
        stmt = stmts.pop()
        stmts.extend(asm.child_statements(stmt))
        pending = list(asm.statement_exprs(stmt))
        if isinstance(stmt, asm.AccumStmt):     # ``x op= v`` is ``op(x, v)``
            pending = [Call(stmt.op, pending)]
        if isinstance(stmt, (asm.AssignStmt, asm.AccumStmt)) \
                and isinstance(stmt.target, Var) \
                and not _number(pending[-1]):
            assigns.append((stmt.target.name, pending[-1]))
        while pending:
            expr = pending.pop()
            if isinstance(expr, (Call, Reduce)):
                if not expr.op.exact:
                    return False
                if expr.op.c_type == "arith" \
                        and not any(map(_number, expr.children())):
                    sums.append(expr.children())
            elif isinstance(expr, Slice):
                sliced.add(expr.buffer.name)
            elif isinstance(expr, Literal) and expr.value is MISSING:
                return False
            pending.extend(expr.children())
    truths = set()      # the scalars that may hold a truth value
    grew = True
    while grew:
        grew = False
        for name, value in assigns:
            if name not in truths and _truth(value, truths):
                truths.add(name)
                grew = True
    return not any(all(_truth(arg, truths) for arg in args)
                   for args in sums)


def _number(expr):
    """Whether ``expr`` is no truth value whatever the scalars hold."""
    if isinstance(expr, Literal):
        return not isinstance(expr.value, bool)
    if isinstance(expr, Call):
        return expr.op.c_type in _NUMERIC
    return not isinstance(expr, Var)    # a load, a slice, a reduction


def _truth(expr, truths):
    """Whether ``expr`` may be a truth value, given the scalars that
    may: a ``"bool"`` result, or one passed on by ``min``/``max``,
    ``and``/``or`` or a conditional expression (which only tests its
    first argument)."""
    if isinstance(expr, Var):
        return expr.name in truths
    if _number(expr):
        return False
    if isinstance(expr, Literal) or expr.op.c_type == "bool":
        return True
    args = expr.args[1:] if expr.op.lazy and expr.op.symbol is None \
        else expr.args
    return any(_truth(arg, truths) for arg in args)
