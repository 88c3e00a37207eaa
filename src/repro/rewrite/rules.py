"""Expression rewrite rules (Figure 5 of the paper).

A rule is a callable taking an expression and returning either a
replacement expression or ``None`` when it does not apply.  A rule may
declare the calls it can rewrite (:func:`rewrites`): the engine then
tries it on those calls alone, and on no other node.  A rule without a
declaration is tried on every node; either kind accepts any node.

The default rule set implements the mathematical-property rules the
paper lists: constant folding, flattening of associative operators,
identity and annihilator elements (``x * 0 => 0``, ``x + 0 => x``,
``or(..., true, ...) => true``), negation normalization, ``missing``
propagation, and ``coalesce`` short-circuiting.

Two rules read what a level guarantees about its coordinates
(``Level.BOUNDS``, carried by each buffer's :class:`~repro.ir.nodes.Var`)
through one query, :func:`value_range`: a seek to a key at or below
every coordinate is its start, and a ``min``/``max`` drops an operand
another one always beats.

A comparison of two terms that differ by a known integer, identical
terms included, folds only where every operand is an integer
(:func:`integer_valued`): ``x == x`` is false on a NaN, and
``x + 1 == x`` true on an infinity.

Users can extend the set with domain rules (semirings and beyond), as
the paper encourages — pass extra rules to
:func:`repro.rewrite.simplify.simplify_expr`.
"""

import math

from repro.ir import build, ops
from repro.ir.nodes import Call, Literal, Load


def rewrites(test):
    """Declare the calls a rule can rewrite: those whose operator
    passes ``test``.  Kept on the rule as ``rule.rewrites``."""
    def declare(rule):
        rule.rewrites = test
        return rule
    return declare


def named(*names):
    """A :func:`rewrites` test: the operator is one of ``names``."""
    names = frozenset(names)
    return lambda op: op.name in names


@rewrites(lambda op: op.propagates_missing)
def rule_missing_propagation(expr):
    """``f(a..., missing, b...) => missing`` for propagating operators."""
    if not isinstance(expr, Call) or not expr.op.propagates_missing:
        return None
    if any(isinstance(a, Literal) and a.is_missing for a in expr.args):
        return Literal(ops.MISSING)
    return None


@rewrites(lambda op: True)
def rule_renormalize(expr):
    """Rebuild calls through the smart constructors.

    This one rule subsumes flattening, identity/annihilator elements and
    constant folding, because the constructors in :mod:`repro.ir.build`
    perform those simplifications on construction.  A call one of them
    returned is already rebuilt (``_renormalized``).
    """
    if not isinstance(expr, Call) or getattr(expr, "_renormalized", False):
        return None
    builder = build.BUILDERS.get(expr.op.name)
    if builder is not None:
        out = builder(*expr.args)
    elif all(isinstance(a, Literal) for a in expr.args):
        out = Literal(expr.op.fold(*[a.value for a in expr.args]))
    else:
        return None
    return None if out == expr else out


@rewrites(named("neg"))
def rule_double_negation(expr):
    """``-(-a) => a``."""
    if (isinstance(expr, Call) and expr.op.name == "neg"
            and isinstance(expr.args[0], Call)
            and expr.args[0].op.name == "neg"):
        return expr.args[0].args[0]
    return None


@rewrites(named("mul"))
def rule_mul_of_negation(expr):
    """``*(a..., -b, c...) => -(*(a..., b, c...))``."""
    if not isinstance(expr, Call) or expr.op.name != "mul":
        return None
    for position, arg in enumerate(expr.args):
        if isinstance(arg, Call) and arg.op.name == "neg":
            rest = list(expr.args)
            rest[position] = arg.args[0]
            return build.negate(build.times(*rest))
    return None


@rewrites(named("sub"))
def rule_sub_zero_lhs(expr):
    """``0 - b => -b``."""
    if (isinstance(expr, Call) and expr.op.name == "sub"
            and isinstance(expr.args[0], Literal)
            and expr.args[0].value == 0
            and not isinstance(expr.args[0].value, bool)):
        return build.negate(expr.args[1])
    return None


@rewrites(named("not"))
def rule_not_not(expr):
    """``not not a => a``."""
    if (isinstance(expr, Call) and expr.op.name == "not"
            and isinstance(expr.args[0], Call)
            and expr.args[0].op.name == "not"):
        return expr.args[0].args[0]
    return None


@rewrites(named("ifelse"))
def rule_ifelse_literal_condition(expr):
    """``ifelse(true, a, b) => a`` and ``ifelse(false, a, b) => b``."""
    if (isinstance(expr, Call) and expr.op.name == "ifelse"
            and isinstance(expr.args[0], Literal)):
        return expr.args[1] if expr.args[0].value else expr.args[2]
    return None


def _affine_parts(expr):
    """Decompose ``expr`` as ``base + offset`` with an integer offset.

    Returns ``(base_keys, offset)`` where ``base_keys`` is a sorted
    tuple of structural keys of the non-constant terms.  Two
    expressions with equal bases differ by a known constant, letting
    comparisons like ``stop - 1 < stop`` fold statically — which is
    what turns spike truncations into clean runs instead of runtime
    switches.
    """
    if isinstance(expr, Literal):
        value = expr.value
        if isinstance(value, int) and not isinstance(value, bool):
            return (), value
        return (expr.key(),), 0
    if isinstance(expr, Call) and expr.op.name == "add":
        bases = []
        offset = 0
        for arg in expr.args:
            arg_bases, arg_offset = _affine_parts(arg)
            bases.extend(arg_bases)
            offset += arg_offset
        return tuple(sorted(bases)), offset
    if isinstance(expr, Call) and expr.op.name == "sub":
        lhs_bases, lhs_offset = _affine_parts(expr.args[0])
        rhs = expr.args[1]
        if (isinstance(rhs, Literal) and isinstance(rhs.value, int)
                and not isinstance(rhs.value, bool)):
            return lhs_bases, lhs_offset - rhs.value
    return (expr.key(),), 0


_COMPARE_BY_OFFSET = {
    "eq": lambda d: d == 0,
    "ne": lambda d: d != 0,
    "lt": lambda d: d < 0,
    "le": lambda d: d <= 0,
    "gt": lambda d: d > 0,
    "ge": lambda d: d >= 0,
}


@rewrites(lambda op: op.name in _COMPARE_BY_OFFSET)
def rule_affine_comparison(expr):
    """Fold comparisons of integer expressions differing by a constant:
    ``x - 1 == x => false``, ``x < x + 2 => true``, and ``x == x =>
    true`` for identical terms (all IR expressions are pure)."""
    if not isinstance(expr, Call) or len(expr.args) != 2:
        return None
    compare = _COMPARE_BY_OFFSET.get(expr.op.name)
    if compare is None:
        return None
    lhs_bases, lhs_offset = _affine_parts(expr.args[0])
    rhs_bases, rhs_offset = _affine_parts(expr.args[1])
    if lhs_bases != rhs_bases or not all(map(integer_valued, expr.args)):
        return None
    return Literal(compare(lhs_offset - rhs_offset))


UNBOUNDED = (-math.inf, math.inf)


#: How the range of a call follows from its operands' ranges.
RANGE_OF_CALL = {
    ops.ADD: lambda ranges: (sum(lo for lo, _ in ranges),
                             sum(hi for _, hi in ranges)),
    ops.SUB: lambda ranges: (ranges[0][0] - ranges[1][1],
                             ranges[0][1] - ranges[1][0]),
    ops.MIN: lambda ranges: (min(lo for lo, _ in ranges),
                             min(hi for _, hi in ranges)),
    ops.MAX: lambda ranges: (max(lo for lo, _ in ranges),
                             max(hi for _, hi in ranges)),
    ops.IFELSE: lambda ranges: (min(ranges[1][0], ranges[2][0]),
                                max(ranges[1][1], ranges[2][1])),
}


def value_range(expr):
    """The closed range ``(lo, hi)`` an integer expression's value lies
    in, ``UNBOUNDED`` when nothing is known (and for every value that
    is not an ``int``): an ``int`` literal is itself, a load is what
    its buffer declares, a variable what it was declared with, and
    ``+``, ``-``, ``min``, ``max`` and ``ifelse`` combine their
    operands'.  Kept on the node, so each node is asked once."""
    try:
        return expr._range
    except AttributeError:
        pass
    if isinstance(expr, Literal):
        value = expr.value
        found = (value, value) if type(value) is int else UNBOUNDED
    elif isinstance(expr, Load):
        found = value_range(expr.buffer)
    elif isinstance(expr, Call) and expr.op in RANGE_OF_CALL:
        found = RANGE_OF_CALL[expr.op]([value_range(arg)
                                        for arg in expr.args])
    else:
        found = UNBOUNDED
    expr._range = found
    return found


#: Operators whose value is an integer (or a bool) whatever their
#: operands are, and those whose value is one when every operand's is
#: (``ifelse``: past its condition).
_INTEGRAL_ALWAYS = frozenset([ops.EQ, ops.NE, ops.LT, ops.LE, ops.GT,
                              ops.GE, ops.NOT, ops.SEARCH_GE,
                              ops.SEARCH_ABS_GE, ops.ROUND_U8])
_INTEGRAL_OPERANDS = frozenset([ops.ADD, ops.SUB, ops.MUL, ops.NEG,
                                ops.ABS, ops.MIN, ops.MAX, ops.FLOORDIV,
                                ops.MOD, ops.AND, ops.OR])


def integer_valued(expr):
    """Whether ``expr``'s value is always an integer (a bool included),
    so never a NaN or an infinity: a leaf says so itself
    (``Expr.integral``), a call by its operator and operands."""
    if not isinstance(expr, Call):
        return expr.integral
    if expr.op in _INTEGRAL_ALWAYS:
        return True
    if expr.op is ops.IFELSE:
        return all(map(integer_valued, expr.args[1:]))
    return expr.op in _INTEGRAL_OPERANDS \
        and all(map(integer_valued, expr.args))


@rewrites(named("search_ge"))
def rule_seek_at_start(expr):
    """``search_ge(idx, lo, hi, key) => lo`` when ``key`` is at or
    below every value ``idx`` may hold: the first position at or past
    the key is the first one searched."""
    if isinstance(expr, Call) and expr.op is ops.SEARCH_GE:
        buffer, lo, _, key = expr.args
        if value_range(key)[1] <= value_range(buffer)[0]:
            return lo
    return None


@rewrites(named("min", "max"))
def rule_unreachable_operand(expr):
    """``min``/``max`` keep only the operands they can pick:
    ``min(x, y) => x`` when ``x`` is never above ``y`` (``max``: never
    below), by their :func:`value_range`."""
    if not isinstance(expr, Call) or expr.op not in (ops.MIN, ops.MAX):
        return None
    beats = ((lambda mine, other: other[1] <= mine[0]) if expr.op is ops.MIN
             else (lambda mine, other: other[0] >= mine[1]))
    kept = [(arg, value_range(arg)) for arg in expr.args]
    for item in list(kept):
        if any(other is not item and beats(item[1], other[1])
               for other in kept):
            kept.remove(item)
    if len(kept) == len(expr.args):
        return None
    return kept[0][0] if len(kept) == 1 else Call(
        expr.op, [arg for arg, _ in kept])


DEFAULT_EXPR_RULES = (
    rule_missing_propagation,
    rule_renormalize,
    rule_double_negation,
    rule_mul_of_negation,
    rule_sub_zero_lhs,
    rule_not_not,
    rule_affine_comparison,
    rule_ifelse_literal_condition,
    rule_seek_at_start,
    rule_unreachable_operand,
)
