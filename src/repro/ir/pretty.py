"""Render IR expressions as Python source text.

The printer inserts the minimal parentheses needed given Python operator
precedence, so emitted kernels stay legible — important both for
debugging and for the golden tests that assert the *shape* of the code
the paper's worked examples should produce.

This is the one place a numpy slice operation becomes text: a ``Slice``
prints as ``buf[a:b]``, a call over a vector operand as its operator's
``numpy`` form, a ``Reduce`` as its ``numpy_reduce``.
"""

import math

from repro.ir.nodes import Call, Literal, Load, Reduce, Slice, Var
from repro.ir.ops import ADD, MISSING, MUL
from repro.util.errors import ReproError

_ATOM_PRECEDENCE = 100


def expr_source(expr):
    """Render ``expr`` as a Python expression string."""
    source, _ = _render(expr)
    return source


def _render(expr):
    """Return ``(source, precedence)`` for an expression."""
    if isinstance(expr, Literal):
        return _render_literal(expr.value), _ATOM_PRECEDENCE
    if isinstance(expr, Var):
        return expr.name, _ATOM_PRECEDENCE
    if isinstance(expr, Load):
        index, _ = _render(expr.index)
        return "%s[%s]" % (expr.buffer.name, index), _ATOM_PRECEDENCE
    if isinstance(expr, Slice):
        bounds = "%s:%s" % (_render(expr.start)[0], _render(expr.stop)[0])
        if expr.step != 1:
            bounds += ":%d" % expr.step
        return "%s[%s]" % (expr.buffer.name, bounds), _ATOM_PRECEDENCE
    if isinstance(expr, Reduce):
        return _render_reduce(expr), _ATOM_PRECEDENCE
    if isinstance(expr, Call):
        return _render_call(expr)
    raise ReproError("cannot render %r" % (expr,))


def _render_literal(value):
    if value is MISSING:
        return "None"
    if isinstance(value, float) and not math.isfinite(value):
        # repr gives the bare names inf/nan; the kernel namespace binds
        # them as _inf/_nan (repro.ir.runtime).
        if math.isnan(value):
            return "_nan"
        return "_inf" if value > 0 else "(-_inf)"
    return repr(value)


def _render_reduce(expr):
    operand = expr.operand
    if expr.op is ADD and isinstance(operand, Call) and operand.op is MUL \
            and len(operand.args) == 2 \
            and all(isinstance(arg, Slice) for arg in operand.args):
        # numpy has the sum of products of two slices fused.
        return "_np.dot(%s, %s)" % tuple(_render(arg)[0]
                                         for arg in operand.args)
    return "%s(%s)" % (expr.op.numpy_reduce, _render(operand)[0])


def _render_numpy(expr):
    """A call over a vector operand, in its operator's numpy form;
    scalar operands broadcast."""
    kind, form = expr.op.numpy
    parts = []
    for arg in expr.args:
        source, prec = _render(arg)
        parts.append(source if prec == _ATOM_PRECEDENCE else "(%s)" % source)
    if kind == "infix":
        return "(%s)" % (" %s " % form).join(parts)
    if kind == "unary":
        return form % parts[0]
    source = parts[0]
    for part in parts[1:]:      # a binary ufunc, folded over the rest
        source = "%s(%s, %s)" % (form, source, part)
    return source


def _render_call(expr):
    op = expr.op
    if expr.vector:
        return _render_numpy(expr), _ATOM_PRECEDENCE
    if op.name == "ifelse" and len(expr.args) == 3:
        # Python's conditional expression is lazy; the _ifelse helper
        # would evaluate both branches (unsafe for guarded loads).
        cond, then, otherwise = (_render(arg)[0] for arg in expr.args)
        return "(%s if %s else %s)" % (then, cond, otherwise), _ATOM_PRECEDENCE
    if op.unary and len(expr.args) == 1:
        inner, prec = _render(expr.args[0])
        if prec < op.precedence:
            inner = "(%s)" % inner
        return op.symbol + inner, op.precedence
    if op.symbol is not None and len(expr.args) >= 2:
        parts = []
        for position, arg in enumerate(expr.args):
            source, prec = _render(arg)
            # Left-associative chain: the first operand may share the
            # precedence level, later ones need to bind strictly tighter.
            needs_parens = (prec < op.precedence
                            or (prec == op.precedence and position > 0))
            if needs_parens:
                source = "(%s)" % source
            parts.append(source)
        joiner = " %s " % op.symbol.strip()
        return joiner.join(parts), op.precedence
    args = ", ".join(_render(arg)[0] for arg in expr.args)
    return "%s(%s)" % (op.runtime_name, args), _ATOM_PRECEDENCE
