"""Render IR expressions as Python source text.

The printer inserts the minimal parentheses needed given Python operator
precedence, so emitted kernels stay legible — important both for
debugging and for the golden tests that assert the *shape* of the code
the paper's worked examples should produce.

This is the one place a numpy slice operation becomes text: a ``Slice``
prints as ``buf[a:b]`` — ``buf.obj[a:b]`` when the kernel reads ``buf``
through an element view (``views``; an element view's ``obj`` is its
ndarray) — a call over a vector operand as its operator's ``numpy``
form, a ``Reduce`` as its ``numpy_reduce``.

A scalar call prints in its operator's ``python`` form when it declares
one (:class:`repro.ir.ops.Op`), as infix or prefix syntax when it has a
``symbol``, and as ``runtime_name(args)`` otherwise.  The ``python``
forms are conditional expressions, cheaper than a call in the step of
every merge loop (``min``/``max`` of the children's strides) and in
fig10's ``round_u8``.  They evaluate each operand once: an operand that
is not a ``Var`` or a ``Literal`` is bound on first use by an
assignment expression to a temp (``ops.PRINTER_TEMP``), numbered per
printed expression.
"""

import itertools
import math

from repro.ir.nodes import Call, Literal, Load, Reduce, Slice, Var
from repro.ir.ops import ADD, MISSING, MUL, NEG, PRINTER_TEMP
from repro.util.errors import ReproError

_ATOM_PRECEDENCE = 100


def expr_source(expr, views=()):
    """Render ``expr`` as a Python expression string; ``views`` names
    the parameters the kernel reads through element views."""
    source, _ = _render(expr, _Temps(views))
    return source


class _Temps:
    """Numbers one printed expression's temps (``next``), and names the
    parameters its kernel reads through element views."""

    __slots__ = ("_count", "views")

    def __init__(self, views):
        self._count = itertools.count(1)
        self.views = views

    def __next__(self):
        return next(self._count)


def prints_as_call(op):
    """Whether a scalar call of ``op`` prints as ``runtime_name(args)``,
    so that the kernel namespace must bind that name."""
    return op.python is None and op.symbol is None


def _render(expr, temps):
    """Return ``(source, precedence)`` for an expression; ``temps``
    numbers the expression's temps and names the viewed parameters
    (:class:`_Temps`)."""
    if isinstance(expr, Literal):
        return _render_literal(expr.value)
    if isinstance(expr, Var):
        return expr.name, _ATOM_PRECEDENCE
    if isinstance(expr, Load):
        index, _ = _render(expr.index, temps)
        return "%s[%s]" % (expr.buffer.name, index), _ATOM_PRECEDENCE
    if isinstance(expr, Slice):
        return _render_slice(expr, temps), _ATOM_PRECEDENCE
    if isinstance(expr, Reduce):
        return _render_reduce(expr, temps), _ATOM_PRECEDENCE
    if isinstance(expr, Call):
        return _render_call(expr, temps)
    raise ReproError("cannot render %r" % (expr,))


def _render_slice(expr, temps):
    """``buf[a:b]``, through the view's ndarray when ``buf`` is viewed:
    numpy does the slice either way."""
    bounds = "%s:%s" % (_render(expr.start, temps)[0],
                        _render(expr.stop, temps)[0])
    if expr.step != 1:
        bounds += ":%d" % expr.step
    name = expr.buffer.name
    if name in temps.views:
        name += ".obj"
    return "%s[%s]" % (name, bounds)


def _render_literal(value):
    if value is MISSING:
        return "None", _ATOM_PRECEDENCE
    if isinstance(value, float) and not math.isfinite(value):
        # repr gives the bare names inf/nan; the kernel namespace binds
        # them as _inf/_nan (repro.ir.runtime).
        if math.isnan(value):
            return "_nan", _ATOM_PRECEDENCE
        source = "_inf" if value > 0 else "-_inf"
    else:
        source = repr(value)
    # A negative number, -0.0 included, binds as a unary minus does:
    # ``(-2.0) ** x``, not ``-2.0 ** x``, which is ``-(2.0 ** x)``.
    if value < 0 or (value == 0 and math.copysign(1.0, value) < 0):
        return source, NEG.precedence
    return source, _ATOM_PRECEDENCE


def _render_reduce(expr, temps):
    operand = expr.operand
    if expr.op is ADD and isinstance(operand, Call) and operand.op is MUL \
            and len(operand.args) == 2 \
            and all(isinstance(arg, Slice) for arg in operand.args):
        # numpy has the sum of products of two slices fused.
        return "_np.dot(%s, %s)" % tuple(_render(arg, temps)[0]
                                         for arg in operand.args)
    return "%s(%s)" % (expr.op.numpy_reduce, _render(operand, temps)[0])


def _render_numpy(expr, temps):
    """A call over a vector operand, in its operator's numpy form;
    scalar operands broadcast."""
    kind, form = expr.op.numpy
    parts = []
    for arg in expr.args:
        source, prec = _render(arg, temps)
        parts.append(source if prec == _ATOM_PRECEDENCE else "(%s)" % source)
    if kind == "infix":
        return "(%s)" % (" %s " % form).join(parts)
    if kind == "unary":
        return form % parts[0]
    source = parts[0]
    for part in parts[1:]:      # a binary ufunc, folded over the rest
        source = "%s(%s, %s)" % (form, source, part)
    return source


def _render_call(expr, temps):
    op = expr.op
    if expr.vector:
        return _render_numpy(expr, temps), _ATOM_PRECEDENCE
    if op.python is not None:
        return _PYTHON_FORMS[op.python[0]](expr, temps)
    if op.unary and len(expr.args) == 1:
        inner, prec = _render(expr.args[0], temps)
        if prec < op.precedence:
            inner = "(%s)" % inner
        return op.symbol + inner, op.precedence
    if op.symbol is not None and len(expr.args) >= 2:
        parts = []
        for position, arg in enumerate(expr.args):
            source, prec = _render(arg, temps)
            # Left-associative chain: the first operand may share the
            # precedence level, later ones need to bind strictly tighter;
            # an operand of a chaining op may share it on neither side.
            needs_parens = (prec < op.precedence
                            or (prec == op.precedence
                                and (position > 0 or op.chains)))
            if needs_parens:
                source = "(%s)" % source
            parts.append(source)
        joiner = " %s " % op.symbol.strip()
        return joiner.join(parts), op.precedence
    return _render_as_call(expr, temps)


def _render_as_call(expr, temps):
    args = ", ".join(_render(arg, temps)[0] for arg in expr.args)
    return "%s(%s)" % (expr.op.runtime_name, args), _ATOM_PRECEDENCE


def _once(expr, temps):
    """``(first, again)``: ``expr`` printed for its first evaluation and
    for every later use.  A ``Var`` or ``Literal`` prints as itself;
    anything else is bound to a fresh temp where it is first
    evaluated, so it is evaluated once."""
    source, _ = _render(expr, temps)
    return _bind(source, isinstance(expr, (Var, Literal)), temps)


def _bind(source, atomic, temps):
    if atomic:
        return source, source
    temp = PRINTER_TEMP % next(temps)
    return "(%s := %s)" % (temp, source), temp


def _render_select(expr, temps):
    """``min``/``max`` as the builtins compute them: the running value
    stays unless a later operand compares strictly less (greater), left
    to right, so NaN, signed zero and mixed int/float operands give the
    very object the builtin would."""
    compare = expr.op.python[1]
    first, *rest = expr.args
    source, prec = _render(first, temps)
    atomic = isinstance(first, (Var, Literal))
    for later in rest:
        later_first, later_again = _once(later, temps)
        current_first, current_again = _bind(source, atomic, temps)
        source = "(%s if %s %s %s else %s)" % (
            later_again, later_first, compare, current_first, current_again)
        prec, atomic = _ATOM_PRECEDENCE, False
    return source, prec


def _render_first_not_none(expr, temps):
    """The first operand that is not ``None``; the ones after it are not
    evaluated."""
    *heads, last = expr.args
    tests = [_once(arg, temps) for arg in heads]
    source, prec = _render(last, temps)
    for first, again in reversed(tests):
        source = "(%s if %s is not None else %s)" % (again, first, source)
        prec = _ATOM_PRECEDENCE
    return source, prec


def _render_rounded(expr, temps):
    """``round`` (half to even; ``ValueError`` on NaN, ``OverflowError``
    on infinities) clamped into ``[lo, hi]``."""
    lo, hi = expr.op.python[1:]
    first, again = _bind("round(%s)" % _render(expr.args[0], temps)[0],
                         False, temps)
    return "(%r if %s < %r else %r if %s > %r else %s)" % (
        lo, first, lo, hi, again, hi, again), _ATOM_PRECEDENCE


def _render_conditional(expr, temps):
    """Python's conditional expression is lazy: only the branch taken is
    evaluated (a guarded load stays guarded)."""
    if len(expr.args) != 3:
        return _render_as_call(expr, temps)
    cond, then, otherwise = (_render(arg, temps)[0] for arg in expr.args)
    return "(%s if %s else %s)" % (then, cond, otherwise), _ATOM_PRECEDENCE


#: ``Op.python`` kind -> renderer of a scalar call of that op.
_PYTHON_FORMS = {
    "select": _render_select,
    "first_not_none": _render_first_not_none,
    "conditional": _render_conditional,
    "rounded": _render_rounded,
}
