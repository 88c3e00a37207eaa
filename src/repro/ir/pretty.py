"""Render IR expressions as Python source text.

The printer inserts the minimal parentheses needed given Python operator
precedence, so emitted kernels stay legible — important both for
debugging and for the golden tests that assert the *shape* of the code
the paper's worked examples should produce.
"""

from repro.ir.nodes import Call, Literal, Load, Var
from repro.ir.ops import MISSING
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
    if isinstance(expr, Call):
        return _render_call(expr)
    raise ReproError("cannot render %r" % (expr,))


def _render_literal(value):
    if value is MISSING:
        return "None"
    return repr(value)


def _render_call(expr):
    op = expr.op
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


def slice_source(buffer, start, stop, step=1):
    """Render ``buffer[start:stop:step]`` (step elided when 1).

    Used by the optimizer's vectorization pass to address the
    contiguous (or strided) range an affine-indexed loop touches.
    """
    lo = expr_source(start)
    hi = expr_source(stop)
    if step == 1:
        return "%s[%s:%s]" % (buffer, lo, hi)
    return "%s[%s:%s:%d]" % (buffer, lo, hi, step)


def lhs_source(target):
    """Render an assignment target (a Var or a Load)."""
    if isinstance(target, Var):
        return target.name
    if isinstance(target, Load):
        return "%s[%s]" % (target.buffer.name, expr_source(target.index))
    raise ReproError("invalid assignment target: %r" % (target,))
