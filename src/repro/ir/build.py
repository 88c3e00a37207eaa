"""Smart constructors for IR expressions and statements.

These helpers apply cheap, always-sound local simplifications (constant
folding, identity and annihilator elements) as expressions are built.
The full rewrite system in :mod:`repro.rewrite` does the heavy lifting;
folding here just keeps intermediate looplet expressions small and the
emitted code readable.

A call a constructor returns is marked as its own normal form
(``Call._renormalized``): building it again from its operands changes
nothing, so the rewriter does not try.  :func:`call` marks only the
operators with no constructor of their own in :data:`BUILDERS`; it
neither flattens nor drops identities.

The statement constructors (:func:`if_`, :func:`for_`) decide a
literal condition or extent as the lowerer builds the statement, so no
region that cannot run reaches :mod:`repro.ir.optimize`.
"""

from repro.ir import asm, ops
from repro.ir.nodes import Call, Extent, Literal, as_expr


def call(op, *args):
    """Build ``Call(op, args)``, folding when every argument is literal."""
    if isinstance(op, str):
        op = ops.get_op(op)
    exprs = [as_expr(a) for a in args]
    if all(isinstance(e, Literal) for e in exprs):
        return Literal(op.fold(*[e.value for e in exprs]))
    out = Call(op, exprs)
    out._renormalized = op.name not in BUILDERS
    return out


def _variadic(op, args, *, unit):
    """Fold a commutative/associative chain, dropping identities."""
    exprs = []
    for arg in args:
        expr = as_expr(arg)
        if isinstance(expr, Call) and expr.op is op:
            exprs.extend(expr.args)
        else:
            exprs.append(expr)
    folded = []
    const = None
    for expr in exprs:
        if isinstance(expr, Literal) and expr.value is not ops.MISSING:
            const = expr.value if const is None else op.fold(const, expr.value)
        else:
            folded.append(expr)
    if const is not None:
        if op.annihilator is not None and const == op.annihilator:
            return Literal(const)
        if op.identity is None or const != op.identity:
            folded.insert(0, Literal(const))
    if not folded:
        return Literal(unit if op.identity is None else op.identity)
    if len(folded) == 1:
        return folded[0]
    out = Call(op, folded)
    # One level is flattened: an operand nested deeper is not.
    out._renormalized = not any(
        isinstance(expr, Call) and expr.op is op for expr in folded)
    return out


def plus(*args):
    return _variadic(ops.ADD, args, unit=0)


def times(*args):
    return _variadic(ops.MUL, args, unit=1)


def minimum(*args):
    return _variadic(ops.MIN, args, unit=None)


def maximum(*args):
    return _variadic(ops.MAX, args, unit=None)


def land(*args):
    return _variadic(ops.AND, args, unit=True)


def lor(*args):
    return _variadic(ops.OR, args, unit=False)


def minus(a, b):
    """``a - b`` with literal folding and ``x - 0 == x``."""
    a, b = as_expr(a), as_expr(b)
    if isinstance(b, Literal) and b.value == 0 and not isinstance(b.value, bool):
        return a
    out = call(ops.SUB, a, b)
    if isinstance(out, Call):
        out._renormalized = True
    return out


def negate(a):
    return call(ops.NEG, a)


def eq(a, b):
    return call(ops.EQ, a, b)


def ne(a, b):
    return call(ops.NE, a, b)


def lt(a, b):
    return call(ops.LT, a, b)


def le(a, b):
    return call(ops.LE, a, b)


def gt(a, b):
    return call(ops.GT, a, b)


def ge(a, b):
    return call(ops.GE, a, b)


def coalesce(*args):
    """First non-missing argument; folds away literal ``missing``."""
    kept = []
    for arg in args:
        expr = as_expr(arg)
        if isinstance(expr, Literal) and expr.is_missing:
            continue
        kept.append(expr)
        if isinstance(expr, Literal):
            # A literal non-missing value short-circuits the rest.
            break
    if not kept:
        return Literal(ops.MISSING)
    if len(kept) == 1:
        return kept[0]
    out = Call(ops.COALESCE, kept)
    out._renormalized = True
    return out


#: The constructor that renormalizes a call of each operator named here
#: (flattening, identities, folding); any other call is renormalized by
#: folding literal operands alone.
BUILDERS = {
    "add": plus,
    "mul": times,
    "min": minimum,
    "max": maximum,
    "and": land,
    "or": lor,
    "sub": minus,
    "coalesce": coalesce,
}


# --------------------------------------------------------------------------
# Statements
# --------------------------------------------------------------------------
def literal_truth(expr):
    """True/False when ``expr`` is a literal condition, else None.

    ``missing`` renders as Python ``None`` and is therefore falsy at
    runtime, whatever its compile-time object truthiness says.
    """
    if not isinstance(expr, Literal):
        return None
    if expr.value is ops.MISSING:
        return False
    return bool(expr.value)


def unguarded(cond, body):
    """``body`` of an arm on ``cond``, less a one-arm ``If`` on that
    same condition that is all of it: the arm already tested it."""
    inner = body.stmts[0] if len(body.stmts) == 1 else None
    if isinstance(inner, asm.If) and len(inner.branches) == 1 \
            and inner.branches[0][0] == cond:
        return inner.branches[0][1]
    return body


def if_(branches):
    """An ``if``/``elif``/``else`` chain of ``(cond, body)`` pairs with
    literal conditions decided: a false branch goes, a true one is the
    ``else`` (alone: its body), and so do trailing empty branches (an
    empty one before a live one would hand its cases on).  An arm that
    is a one-arm ``If`` on its own condition is that ``If``'s body
    (:func:`unguarded`)."""
    kept = []
    for cond, body in branches:
        truth = True if cond is None else literal_truth(cond)
        if truth is False:
            continue
        body = asm.Block([body])
        kept.append((None, body) if truth else (cond, unguarded(cond, body)))
        if truth:
            break
    while kept and kept[-1][1].is_nop():
        kept.pop()
    if not kept:
        return asm.Nop()
    if kept[0][0] is None:
        return kept[0][1]
    return asm.If(kept)


def for_(var, start, stop, body):
    """``for var in range(start, stop): body``, resolved when the
    extent is literal: an empty one (or an empty body) is no statement,
    and a unit one binds ``var`` to ``start`` and runs ``body`` once."""
    body = asm.Block([body])
    length = Extent(start, stop).static_length()
    if length == 0 or body.is_nop():
        return asm.Nop()
    if length == 1:
        return asm.Block([asm.AssignStmt(var, start), body])
    return asm.ForLoop(var, start, stop, body)
