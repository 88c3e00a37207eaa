"""The two optimizer passes over the target AST.

Lowering (:mod:`repro.compiler.lower`) is organized around *looplet*
structure and folds as it builds (:func:`repro.ir.build.if_`,
:func:`~repro.ir.build.for_`, the lowering context's ``let`` and
``accumulate``), so no pass here folds constants or drops dead
code.  Its code still re-loads buffer elements inside hot loops,
repeats position arithmetic, and walks dense regions element by
element in interpreted CPython; two passes over :mod:`repro.ir.asm`
statements improve that:

``hoist_invariants``
    Loop-invariant code motion: buffer loads and position arithmetic
    whose inputs are not mutated by a ``ForLoop``/``WhileLoop`` body
    are computed once before the loop.  Hoists that could raise (a
    load, a division) are guarded by the loop's entry condition so the
    transformed kernel never evaluates anything the original would not
    have.

``vectorize`` (python only)
    Rewrites innermost dense ``ForLoop``s whose body is a single
    affine-indexed assignment/accumulation (plus optional work
    counters) into numpy slice operations: elementwise maps become
    assignments over ``Slice`` nodes (``out[a:b] = x[c:d] * y[e:f]``),
    reductions accumulate a ``Reduce`` (``_np.dot`` /
    ``_np.<op>.reduce``) where numpy sums in the scalar loop's type,
    and instrumentation counters are scaled by
    the trip count so measured op counts are identical with and without
    vectorization.  Loops whose shape does not match are left alone
    (the scalar fallback).

At ``opt_level=2`` the compiler runs ``hoist_invariants``, prints C
from that scalar tree, then runs ``vectorize`` for the python source;
at 0 it runs neither.  Each pass is there because removing it changes
what a paper figure runs (docs/compilation.md gives the measurements).
LICM goes first (the other way round, fig11 ran 4-8 % slower), so the
only slice statement it meets is the lowerer's dense reset: its
*bounds* and scalar operands are hoisted like any scalar expression,
while a *vector* (a slice, a call over one) is never itself rewritten
or hoisted.  Passes rebuild what they change and never mutate a
statement (:func:`repro.ir.asm.effects` memoises on it), and a pass
returns the very node it was given when nothing under it changed.
"""

from repro.ir import build, dtypes
from repro.ir.asm import (
    AccumStmt,
    AssignStmt,
    Block,
    Comment,
    ForLoop,
    FuncDef,
    If,
    Nop,
    WhileLoop,
    effects,
    load_buffers,
    map_statement_exprs,
    map_statements,
    statement_exprs,
    target_address,
    unchanged,
)
from repro.ir.nodes import (
    Call,
    Literal,
    Load,
    Reduce,
    Slice,
    Var,
    replace_in_expr,
)
from repro.ir.runtime import reserved_names
from repro.rewrite import simplify_expr
from repro.rewrite.rules import integer_valued
from repro.util.namer import Namer

# --------------------------------------------------------------------------
# Expression helpers
# --------------------------------------------------------------------------
def strict_children(expr):
    """Children evaluated whenever ``expr`` is evaluated: only the
    first argument of a lazy operator (``and``/``or`` short-circuit,
    ``ifelse`` renders as a conditional expression) is *strict*."""
    if isinstance(expr, Call) and expr.op.lazy:
        return expr.args[:1]
    return expr.children()

def walk_expr(expr):
    """Every node of an expression tree, preorder."""
    yield expr
    for child in expr.children():
        yield from walk_expr(child)


def _slice_operation(stmt):
    """Whether ``stmt`` itself works on a numpy vector (holds a slice)."""
    return any(isinstance(expr, Slice) for root in statement_exprs(stmt)
               for expr in walk_expr(root))


def can_raise(expr):
    """Whether evaluating ``expr`` may raise (loads can go out of
    bounds, division can hit zero, ops not declared ``total`` are
    opaque); such hoists only happen behind a loop guard."""
    if isinstance(expr, Load):
        return True
    if isinstance(expr, Call) and not expr.op.total:
        return True
    return any(can_raise(child) for child in expr.children())


def entry_exprs(stmt):
    """Expressions evaluated unconditionally when ``stmt`` starts.

    For an ``If`` only the first condition qualifies; branch bodies
    and later ``elif`` conditions may never run, so hoisting or
    pre-materializing out of them would speculate.
    """
    if isinstance(stmt, (AssignStmt, AccumStmt)):
        yield stmt.value
        yield from target_address(stmt.target)
    elif isinstance(stmt, ForLoop):
        yield stmt.start
        yield stmt.stop
    elif isinstance(stmt, WhileLoop):
        yield stmt.cond
    elif isinstance(stmt, If):
        cond = stmt.branches[0][0]
        if cond is not None:
            yield cond


def replace_by_key(expr, mapping):
    """Top-down replacement of subexpressions by structural key."""
    return replace_in_expr(expr, lambda node: mapping.get(node.key()))


def _namer_for(stmt):
    """A fresh-name supply that avoids every identifier in the tree."""
    reserved = set().union(*effects(stmt))
    if isinstance(stmt, FuncDef):
        reserved |= set(stmt.params)
        reserved.add(stmt.name)
    return Namer(reserved=reserved | reserved_names())


def _unguard_arms(node):
    """The ``If`` ``node`` with each arm that is all one guard on its
    own condition (a loop's, put there by a pass) unwrapped
    (:func:`repro.ir.build.unguarded`); None when no arm is."""
    branches = [(cond, build.unguarded(cond, body))
                for cond, body in node.branches]
    return None if unchanged(branches, node.branches) else If(branches)


# --------------------------------------------------------------------------
# Loop-invariant code motion
# --------------------------------------------------------------------------
def hoist_invariants(stmt):
    """Hoist invariant loads and arithmetic out of loop bodies.  A
    loop that is the whole arm of a branch on its entry guard is left
    unguarded."""
    namer = _namer_for(stmt)

    def visit(node):
        if isinstance(node, ForLoop):
            return _hoist_loop(node, namer, loop_var=node.var.name)
        if isinstance(node, WhileLoop):
            return _hoist_loop(node, namer, loop_var=None)
        if isinstance(node, If):
            return _unguard_arms(node)
        return None

    return map_statements(stmt, visit)


def _invariant(expr, mutated, stored):
    return not (expr.free_vars() & mutated) \
        and not (load_buffers(expr) & stored)


def _shareable(expr):
    """Worth a temporary of its own: a load or a call, and a scalar (a
    temporary holding a vector would be a value no rule understands)."""
    return isinstance(expr, (Load, Call)) and not expr.vector


def _collect_hoistable(expr, mutated, stored, seen, out):
    if _shareable(expr) and _invariant(expr, mutated, stored):
        key = expr.key()
        if key not in seen:
            seen.add(key)
            out.append(expr)
        return
    for child in strict_children(expr):
        _collect_hoistable(child, mutated, stored, seen, out)


def _hoist_hint(expr):
    if isinstance(expr, Load):
        return expr.buffer.name + "_x"
    return "inv"


def _hoist_loop(loop, namer, loop_var):
    body = loop.body
    mutated = effects(loop).writes      # the loop variable included
    stored = effects(loop).stores
    seen, candidates = set(), []
    if loop_var is None:
        _collect_hoistable(loop.cond, mutated, stored, seen, candidates)
    for child in body.stmts:
        for expr in entry_exprs(child):
            _collect_hoistable(expr, mutated, stored, seen, candidates)
    if not candidates:
        return None
    mapping = {}
    assigns = []
    for expr in candidates:
        temp = Var(namer.fresh(_hoist_hint(expr)),
                   integral=integer_valued(expr))
        assigns.append(AssignStmt(temp, replace_by_key(expr, mapping)))
        mapping[expr.key()] = temp

    def rewrite(node):
        return map_statement_exprs(
            node, lambda e: replace_by_key(e, mapping))

    new_body = map_statements(body, rewrite)
    if loop_var is not None:
        new_loop = ForLoop(loop.var, loop.start, loop.stop, new_body)
        guard = simplify_expr(build.lt(loop.start, loop.stop))
    else:
        new_loop = WhileLoop(replace_by_key(loop.cond, mapping), new_body)
        guard = loop.cond  # pre-substitution: temps are not bound yet
    hoisted = Block(assigns + [new_loop])
    if any(can_raise(expr) for expr in candidates):
        return build.if_([(guard, hoisted)])
    return hoisted


# --------------------------------------------------------------------------
# Dense-loop vectorization
# --------------------------------------------------------------------------
def vectorize(stmt, buffers=None):
    """Rewrite simple dense inner loops into numpy slice operations.

    ``buffers``, the kernel's ``(name, array)`` parameters, type its
    expressions: a loop becomes one numpy reduction only where that
    computes in the type the scalar loop accumulates in
    (:func:`repro.ir.dtypes.sums_alike`); a tree built by hand has none,
    and every reduction is taken.  A loop that is the whole arm of a
    branch on its entry test is left unguarded."""
    sums_alike = (lambda *_: True) if buffers is None \
        else dtypes.sums_alike(stmt, buffers)

    def visit(node):
        if isinstance(node, ForLoop):
            return _vectorize_loop(node, sums_alike)
        if isinstance(node, If):
            return _unguard_arms(node)
        return None

    return map_statements(stmt, visit)


def linear_parts(expr, var):
    """Decompose ``expr`` as ``coeff * var + base`` with an integer
    literal ``coeff`` and ``var``-free ``base``; None if not affine."""
    if var not in expr.free_vars():
        return 0, expr
    if isinstance(expr, Var):
        return 1, Literal(0)
    if not isinstance(expr, Call):
        return None
    name = expr.op.name
    if name == "add":
        coeff, bases = 0, []
        for arg in expr.args:
            part = linear_parts(arg, var)
            if part is None:
                return None
            coeff += part[0]
            bases.append(part[1])
        return coeff, build.plus(*bases)
    if name == "sub" and len(expr.args) == 2:
        left = linear_parts(expr.args[0], var)
        right = linear_parts(expr.args[1], var)
        if left is None or right is None:
            return None
        return left[0] - right[0], build.minus(left[1], right[1])
    if name == "neg" and len(expr.args) == 1:
        part = linear_parts(expr.args[0], var)
        if part is None:
            return None
        return -part[0], build.call("neg", part[1])
    if name == "mul":
        with_var = [pos for pos, arg in enumerate(expr.args)
                    if var in arg.free_vars()]
        if len(with_var) != 1:
            return None
        part = linear_parts(expr.args[with_var[0]], var)
        if part is None:
            return None
        others = [arg for pos, arg in enumerate(expr.args)
                  if pos != with_var[0]]
        scale = build.times(*others) if len(others) > 1 else others[0]
        if not (isinstance(scale, Literal)
                and isinstance(scale.value, int)
                and not isinstance(scale.value, bool)):
            return None
        return part[0] * scale.value, build.times(part[1], scale)
    return None


def slice_bounds(coeff, base, start, stop):
    """``(lo, hi)`` of the slice covering ``coeff*i + base`` over
    ``i in [start, stop)``."""
    lo = simplify_expr(build.plus(build.times(Literal(coeff), start), base))
    hi = simplify_expr(build.plus(build.times(Literal(coeff), stop), base,
                                  Literal(1 - coeff)))
    return lo, hi


def _vector_expr(expr, var, start, stop):
    """``expr`` over the whole loop range: affine loads become slices,
    calls over them vectors, ``var``-free operands stay the scalars
    they are (numpy broadcasts them).  None when not vectorizable."""
    if var not in expr.free_vars():
        return expr
    if isinstance(expr, Load):
        part = linear_parts(expr.index, var)
        if part is None or part[0] <= 0:
            return None
        lo, hi = slice_bounds(part[0], part[1], start, stop)
        return Slice(expr.buffer, lo, hi, part[0])
    if not isinstance(expr, Call) or expr.op.numpy is None:
        return None  # the bare loop variable: no arange materialization
    args = [_vector_expr(arg, var, start, stop) for arg in expr.args]
    if None in args \
            or (expr.op.numpy[0] == "unary") != (len(args) == 1):
        return None
    return Call(expr.op, args)


def _vectorize_loop(loop, sums_alike):
    var = loop.var.name
    stmts = [s for s in loop.body.stmts
             if not isinstance(s, (Comment, Nop))]
    if not stmts:
        return None
    core, counters = None, []
    for child in stmts:
        if isinstance(child, AccumStmt) and isinstance(child.target, Var) \
                and child.op.name == "add" \
                and isinstance(child.value, Literal) \
                and isinstance(child.value.value, (int, float)) \
                and not isinstance(child.value.value, bool):
            counters.append(child)
            continue
        if core is not None:
            return None
        core = child
    core_names = set().union(*effects(core)) if core is not None else set()
    for counter in counters:
        if counter.target.name == var or counter.target.name in core_names:
            return None
    out = []
    if core is not None:
        out.append(_vectorize_core(core, var, loop.start, loop.stop,
                                   sums_alike))
        if out[0] is None:
            return None
    trip = build.minus(loop.stop, loop.start)
    for counter in counters:
        out.append(AccumStmt(counter.target, counter.op,
                             simplify_expr(build.times(counter.value,
                                                       trip))))
    return build.if_([(simplify_expr(build.lt(loop.start, loop.stop)),
                       Block(out))])


def _vectorize_core(core, var, start, stop, sums_alike):
    """The slice statement doing the whole loop's ``core``, or None."""
    if not isinstance(core, (AssignStmt, AccumStmt)):
        return None
    op = core.op if isinstance(core, AccumStmt) else None
    if op is not None and op.numpy_reduce is None:
        return None  # only a declared numpy reduction accumulates a slice
    if _slice_operation(core):
        # An inner loop vectorized under this one: only a scalar
        # statement is one loop iteration.
        return None
    target = _vector_expr(core.target, var, start, stop)
    value = _vector_expr(core.value, var, start, stop)
    if target is None or value is None:
        return None
    if isinstance(target, Slice):
        # Same-buffer loads must hit exactly the written cell, or the
        # slice operation would reorder a loop-carried dependence.
        for expr in walk_expr(core.value):
            if isinstance(expr, Load) and expr.index != core.target.index \
                    and expr.buffer.name == target.buffer.name:
                return None
        if op is None:
            return AssignStmt(target, value)
        if op.accum is not None:
            return AccumStmt(target, op, value)
        if op.numpy is None or op.numpy[0] != "pairwise":
            return None
        # No in-place symbol: accumulate through the pairwise ufunc.
        return AssignStmt(target, Call(op, [target, value]))
    # A scalar, or one fixed buffer cell: the loop reduces into it.
    if op is None or not value.vector:
        return None
    if isinstance(target, Var):
        if target.name in value.free_vars():
            return None
    elif target.buffer.name in load_buffers(value):
        return None
    if not sums_alike(op, core.target, core.value):
        return None
    return AccumStmt(target, op, Reduce(op, value))
