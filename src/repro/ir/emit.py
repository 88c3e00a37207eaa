"""Emit target AST as Python source text.

The source reads a parameter as whatever the kernel is called with:
its entry (:func:`repro.ir.runtime.python_entry`) hands over an element
view of every parameter the dtype pass lets it
(:func:`repro.ir.dtypes.viewable`), once per binding, so the scalar
loop computes on Python ``int``/``float`` and not on boxed numpy
scalars.  Only a slice says which: it is printed through the view's
ndarray (``y_val.obj[0:250] = 0.0``, :mod:`repro.ir.pretty`).
"""

import functools

from repro.ir import asm
from repro.ir.nodes import Call
from repro.ir.pretty import expr_source
from repro.util.errors import ReproError

_INDENT = "    "

#: The builtins emitted statements call; no compiler-made name may
#: shadow one (:func:`repro.ir.runtime.reserved_names`).
BUILTINS = ("range", "round")


def emit(stmt, views=()):
    """Render a statement tree as Python source; ``views`` names the
    parameters the kernel reads through element views."""
    lines = []
    _emit(stmt, 0, lines, functools.partial(expr_source, views=views))
    return "\n".join(lines) + "\n"


def _emit(stmt, depth, lines, source):
    """Append ``stmt``'s lines; ``source`` prints an expression."""
    pad = _INDENT * depth
    if stmt is None or stmt.is_nop():
        return
    if isinstance(stmt, asm.Block):
        for child in stmt.stmts:
            _emit(child, depth, lines, source)
    elif isinstance(stmt, asm.Comment):
        for line in str(stmt.text).splitlines():
            lines.append("%s# %s" % (pad, line))
    elif isinstance(stmt, asm.AssignStmt):
        lines.append("%s%s = %s" % (pad, source(stmt.target),
                                    source(stmt.value)))
    elif isinstance(stmt, asm.AccumStmt):
        _emit_accum(stmt, pad, lines, source)
    elif isinstance(stmt, asm.ForLoop):
        lines.append("%sfor %s in range(%s, %s):" % (
            pad, stmt.var.name, source(stmt.start),
            source(stmt.stop)))
        _emit_body(stmt.body, depth + 1, lines, source)
    elif isinstance(stmt, asm.WhileLoop):
        lines.append("%swhile %s:" % (pad, source(stmt.cond)))
        _emit_body(stmt.body, depth + 1, lines, source)
    elif isinstance(stmt, asm.If):
        _emit_if(stmt, depth, lines, source)
    elif isinstance(stmt, asm.FuncDef):
        lines.append("%sdef %s(%s):" % (pad, stmt.name,
                                        ", ".join(stmt.params)))
        _emit_body(stmt.body, depth + 1, lines, source)
        if stmt.returns:
            lines.append("%sreturn %s" % (_INDENT * (depth + 1),
                                          ", ".join(stmt.returns)))
    else:
        raise ReproError("cannot emit %r" % (stmt,))


def _emit_accum(stmt, pad, lines, source):
    target = source(stmt.target)
    value = source(stmt.value)
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
            pad, target, source(Call(op, (stmt.target, stmt.value)))))


def _emit_if(stmt, depth, lines, source):
    pad = _INDENT * depth
    if stmt.branches and stmt.branches[0][0] is None:
        # Optimizer passes can prune every conditional branch ahead of
        # an ``else``; a leading None condition is always taken, so the
        # body inlines (the remaining branches are unreachable).
        _emit(stmt.branches[0][1], depth, lines, source)
        return
    first = True
    for cond, body in stmt.branches:
        if cond is None:
            if body.is_nop():
                continue
            lines.append(pad + "else:")
        else:
            keyword = "if" if first else "elif"
            lines.append("%s%s %s:" % (pad, keyword, source(cond)))
        _emit_body(body, depth + 1, lines, source)
        first = False


def _emit_body(body, depth, lines, source):
    before = len(lines)
    _emit(body, depth, lines, source)
    if len(lines) == before:
        lines.append(_INDENT * depth + "pass")

