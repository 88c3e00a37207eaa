"""Emit target AST as Python source text.

The python backend's last step also lives here: :func:`scalar_views`
opens an optimized kernel with ``p = memoryview(p)`` for every
parameter its body only indexes one element at a time, so the scalar
loop computes on Python ``int``/``float`` and not on boxed numpy
scalars.  Kernel *arguments* are ndarrays all the same; a view is a
local of one call.
"""

from repro.ir import asm
from repro.ir.nodes import Call, Literal, Reduce, Slice
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
        lines.append("%s%s = %s(%s, %s)" % (
            pad, target, op.runtime_name, target, value))


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
    parameter order and ``plan`` their binding-plan entries.  A
    parameter is viewed when all of this holds:

    * it has a plan entry (a buffer pinned by a custom format stays
      what it is) and no ``Slice`` names it (numpy does those);
    * its dtype is native ``float64`` — and no other parameter holds
      narrower floats, next to which a Python ``float`` would compute
      in *their* precision where an ``np.float64`` computes in double —
      or it is a native integer *structure* array (``pos``, ``idx``,
      ``right``...: any role but the element values) the kernel never
      stores to.  ``float32``, narrow-integer, ``bool`` and ``int64``
      values and every written integer buffer keep the ndarray: numpy
      wraps, rounds and truncates there where Python would not;
    * every operator the kernel uses is ``exact``
      (:class:`repro.ir.ops.Op`) and it stores no ``missing``, which an
      ndarray takes as ``nan`` and a view refuses.
    """
    sliced = set()
    if not _exact(func, sliced):
        return func
    stored = asm.effects(func).stores
    dtypes = [getattr(array, "dtype", None) for _, array in buffers]
    narrow = any(dtype is None
                 or (dtype.kind in "fc" and dtype != "float64")
                 for dtype in dtypes)
    views = []
    for (name, _), entry, dtype in zip(buffers, plan, dtypes):
        if entry is None or name in sliced or not dtype.isnative:
            continue
        if dtype == "float64":
            viewed = not narrow
        else:   # ``val`` is the role of a tensor's element values
            viewed = dtype.kind in "iu" and entry[1] != "val" \
                and name not in stored
        if viewed:
            views.append(asm.View(name))
    if not views:
        return func
    return asm.FuncDef(func.name, func.params,
                       asm.Block(views + [func.body]), returns=func.returns)


def _exact(stmt, sliced):
    """Whether Python scalars may flow through ``stmt``: every operator
    in it is ``exact`` and no literal is ``missing``.  Adds the buffer
    of every ``Slice`` on the way to ``sliced``."""
    if isinstance(stmt, asm.AccumStmt) and not stmt.op.exact:
        return False
    pending = list(asm.statement_exprs(stmt))
    while pending:
        expr = pending.pop()
        if isinstance(expr, (Call, Reduce)):
            if not expr.op.exact:
                return False
        elif isinstance(expr, Slice):
            sliced.add(expr.buffer.name)
        elif isinstance(expr, Literal) and expr.value is MISSING:
            return False
        pending.extend(expr.children())
    return all(_exact(child, sliced)
               for child in asm.child_statements(stmt))
