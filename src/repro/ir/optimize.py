"""Optimizer pipeline over the target AST.

Lowering (:mod:`repro.compiler.lower`) is organized around *looplet*
structure and deliberately emits naive straight-line code: buffer
elements are re-loaded inside hot loops, position arithmetic repeats,
scalar accumulators are loaded and immediately overwritten, and dense
regions are walked element by element in interpreted CPython.  This
module runs between lowering and emission and cleans all of that up
with composable passes over :mod:`repro.ir.asm` statements:

``fold_constants``
    Forward constant *and copy* propagation with expression
    simplification: literal conditions prune ``If`` branches, loops
    with statically-empty extents disappear, single-trip loops unroll,
    and literal accumulations fold into assignments.

``dead_code``
    Backward liveness: assignments to scalar variables nobody reads
    are deleted (buffer stores always survive — buffers escape the
    kernel), trailing empty ``If`` branches are pruned, and empty
    loops with no live side effects vanish.

``hoist_invariants``
    Loop-invariant code motion: buffer loads and position arithmetic
    whose inputs are not mutated by a ``ForLoop``/``WhileLoop`` body
    are computed once before the loop.  Hoists that could raise (a
    load, a division) are guarded by the loop's entry condition so the
    transformed kernel never evaluates anything the original would not
    have.

``eliminate_common_subexprs``
    Block-local CSE: a repeated pure subexpression (an index
    expression, a comparison, a load) is computed once into a
    temporary at its first unconditional evaluation and reused, with
    availability invalidated by writes to its inputs.

``vectorize``
    Rewrites innermost dense ``ForLoop``s whose body is a single
    affine-indexed assignment/accumulation (plus optional work
    counters) into numpy slice operations: elementwise maps become
    assignments over ``Slice`` nodes (``out[a:b] = x[c:d] * y[e:f]``),
    reductions accumulate a ``Reduce`` (``_np.dot`` /
    ``_np.<op>.reduce``), and instrumentation counters are scaled by
    the trip count so measured op counts are identical with and without
    vectorization.  Loops whose shape does not match are left alone
    (the scalar fallback).

The pipeline is exposed as :func:`optimize_kernel`, keyed by an
``opt_level``: 0 = untouched, 1 = scalar passes only, 2 (the default
used by :mod:`repro.compiler.kernel`) = scalar passes plus
vectorization.  Slice operations are ordinary statements to every
pass: their *bounds* and scalar operands are folded, hoisted and shared
like any scalar expression, while a *vector* (a slice, a call over one)
is never itself rewritten, hoisted or named.  Passes rebuild what they
change and never mutate a statement (:func:`repro.ir.asm.effects`
memoises on it), and a pass returns the very node it was given when
nothing under it changed.  That identity is the fixpoint test:
``fold_constants`` + ``dead_code`` repeat until a round returns its
input object (at most four rounds), with no detour through source
text.
"""

from repro.ir import build
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
    with_body,
)
from repro.ir.nodes import (
    Call,
    Extent,
    Literal,
    Load,
    Reduce,
    Slice,
    Var,
    substitute,
)
from repro.ir.ops import MISSING
from repro.ir.runtime import reserved_names
from repro.rewrite import simplify_expr
from repro.util.namer import Namer

#: Default optimization level used by the compiler when none is given.
DEFAULT_OPT_LEVEL = 2


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


def walk_strict_expr(expr):
    """Every node evaluated whenever ``expr`` is evaluated (stops at
    the lazy arguments of ``and``/``or``/``ifelse``)."""
    yield expr
    for child in strict_children(expr):
        yield from walk_strict_expr(child)


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
    hit = mapping.get(expr.key())
    if hit is not None:
        return hit
    children = expr.children()
    if not children:
        return expr
    new_children = [replace_by_key(child, mapping) for child in children]
    if all(new is old for new, old in zip(new_children, children)):
        return expr
    return expr.rebuild(new_children)


def _namer_for(stmt):
    """A fresh-name supply that avoids every identifier in the tree."""
    reserved = set().union(*effects(stmt))
    if isinstance(stmt, FuncDef):
        reserved |= set(stmt.params)
        reserved.add(stmt.name)
    return Namer(reserved=reserved | reserved_names())


def _literal_truth(expr):
    """True/False when ``expr`` is a literal condition, else None.

    ``missing`` renders as Python ``None`` and is therefore falsy at
    runtime, whatever its compile-time object truthiness says.
    """
    if not isinstance(expr, Literal):
        return None
    if expr.value is MISSING:
        return False
    return bool(expr.value)


# --------------------------------------------------------------------------
# Constant folding and copy propagation
# --------------------------------------------------------------------------
def fold_constants(stmt):
    """Forward constant/copy propagation with simplification."""
    return _fold(stmt, {})


def _resolve(expr, env):
    if env:
        expr = substitute(expr, env)
    return simplify_expr(expr)


def _env_kill(env, names):
    """Drop bindings for ``names`` and any binding reading them."""
    if not names or not env:
        return
    for key in list(env):
        if key in names or (env[key].free_vars() & names):
            del env[key]


def _fold(stmt, env):
    if isinstance(stmt, FuncDef):
        return with_body(stmt, _fold(stmt.body, {}))
    if isinstance(stmt, Block):
        stmts = [_fold(child, env) for child in stmt.stmts]
        return stmt if unchanged(stmts, stmt.stmts) else Block(stmts)
    if isinstance(stmt, (AssignStmt, AccumStmt)):
        if not isinstance(stmt.target, Var):
            return map_statement_exprs(stmt, lambda e: _resolve(e, env))
        if isinstance(stmt, AssignStmt):
            return _fold_assign(stmt, env)
        return _fold_accum(stmt, env)
    if isinstance(stmt, ForLoop):
        return _fold_for(stmt, env)
    if isinstance(stmt, WhileLoop):
        return _fold_while(stmt, env)
    if isinstance(stmt, If):
        return _fold_if(stmt, env)
    return stmt


def _fold_assign(stmt, env):
    value = _resolve(stmt.value, env)
    target = stmt.target
    name = target.name
    if isinstance(value, Var) and value.name == name:
        return Nop()
    _env_kill(env, {name})
    if isinstance(value, (Literal, Var)):
        env[name] = value
    return stmt if value is stmt.value else AssignStmt(target, value)


def _fold_accum(stmt, env):
    value = _resolve(stmt.value, env)
    target = stmt.target
    name = target.name
    prior = env.get(name)
    if isinstance(prior, Literal) and isinstance(value, Literal) \
            and prior.value is not MISSING and value.value is not MISSING:
        folded = Literal(stmt.op.fold(prior.value, value.value))
        _env_kill(env, {name})
        env[name] = folded
        return AssignStmt(target, folded)
    _env_kill(env, {name})
    return stmt if value is stmt.value else AccumStmt(target, stmt.op, value)


def _fold_for(stmt, env):
    start = _resolve(stmt.start, env)
    stop = _resolve(stmt.stop, env)
    length = Extent(start, stop).static_length()
    if length == 0:
        return Nop()
    if length == 1:
        # Unroll the single iteration; the loop-variable assignment
        # feeds propagation and dead-code cleans it up if unused.
        return _fold(Block([AssignStmt(stmt.var, start), stmt.body]), env)
    _env_kill(env, effects(stmt.body).writes | {stmt.var.name})
    body = _fold(stmt.body, dict(env))
    if unchanged((start, stop, body), (stmt.start, stmt.stop, stmt.body)):
        return stmt
    return ForLoop(stmt.var, start, stop, body)


def _fold_while(stmt, env):
    _env_kill(env, effects(stmt.body).writes)
    cond = _resolve(stmt.cond, env)
    if _literal_truth(cond) is False:
        return Nop()
    body = _fold(stmt.body, dict(env))
    if cond is stmt.cond and body is stmt.body:
        return stmt
    return WhileLoop(cond, body)


def _fold_if(stmt, env):
    branches = []
    for cond, body in stmt.branches:
        if cond is not None:
            cond = _resolve(cond, env)
            truth = _literal_truth(cond)
            if truth is False:
                continue
            if truth is True:
                cond = None
        branches.append((cond, _fold(body, dict(env))))
        if cond is None:
            break
    if not branches:
        return Nop()
    if branches[0][0] is None:
        body = branches[0][1]
        _env_kill(env, effects(body).writes)
        return body
    killed = set()
    for _, body in branches:
        killed |= effects(body).writes
    _env_kill(env, killed)
    return stmt if unchanged(branches, stmt.branches) else If(branches)


# --------------------------------------------------------------------------
# Dead store / dead branch elimination
# --------------------------------------------------------------------------
def dead_code(stmt, live=None):
    """Delete stores to scalar variables that are never read.

    ``live`` seeds the live-out set; for a :class:`FuncDef` the
    function's returns are live.  Buffer stores are always considered
    live (their effects escape the kernel).
    """
    if isinstance(stmt, FuncDef):
        live = set(stmt.returns) | (live or set())
        return with_body(stmt, _dce_block(stmt.body, live))
    live = set(live) if live else set()
    if isinstance(stmt, Block):
        return _dce_block(stmt, live)
    result = _dce_stmt(stmt, live)
    return Nop() if result is None else result


def _dce_block(block, live):
    kept = []
    for child in reversed(block.stmts):
        result = _dce_stmt(child, live)
        if result is not None:
            kept.append(result)
    kept.reverse()
    return block if unchanged(kept, block.stmts) else Block(kept)


def _dce_stmt(stmt, live):
    if isinstance(stmt, (AssignStmt, AccumStmt)):
        target = stmt.target
        if isinstance(target, Var):
            if target.name not in live:
                return None
            live.discard(target.name)
        # Value and store address, and an accumulation's own target.
        live |= effects(stmt).reads
        return stmt
    if isinstance(stmt, ForLoop):
        if stmt.body.is_nop() and stmt.var.name not in live:
            return None
        inner = live | effects(stmt.body).reads
        body = _dce_block(stmt.body, inner)
        live |= inner
        live |= stmt.start.free_vars() | stmt.stop.free_vars()
        return with_body(stmt, body)
    if isinstance(stmt, WhileLoop):
        # Never dropped: a (mis)compiled infinite loop should stay
        # observable rather than silently vanish.
        inner = live | effects(stmt.body).reads | stmt.cond.free_vars()
        body = _dce_block(stmt.body, inner)
        live |= inner
        # The block walk treats the body as straight-line code, so a
        # bottom-of-body write to a condition variable discards it
        # from ``inner`` — but the condition is evaluated again before
        # the body ever runs, so its reads are live at loop entry
        # regardless of what the body does (found by the fuzz engine:
        # an initializer feeding only the condition was deleted).
        live |= stmt.cond.free_vars()
        return with_body(stmt, body)
    if isinstance(stmt, If):
        processed = []
        for cond, body in stmt.branches:
            branch_live = set(live)
            processed.append((cond, _dce_block(body, branch_live),
                              branch_live))
        # Only trailing empty branches may go: dropping an empty
        # middle branch would re-route its cases to later conditions.
        while processed and processed[-1][1].is_nop():
            processed.pop()
        if not processed:
            return None
        for cond, _, branch_live in processed:
            live |= branch_live
            if cond is not None:
                live |= cond.free_vars()
        branches = [(cond, body) for cond, body, _ in processed]
        return stmt if unchanged(branches, stmt.branches) else If(branches)
    if isinstance(stmt, Nop):
        return None
    if isinstance(stmt, Block):
        result = _dce_block(stmt, live)
        return None if result.is_nop() else result
    return stmt


# --------------------------------------------------------------------------
# Loop-invariant code motion
# --------------------------------------------------------------------------
def hoist_invariants(stmt, namer=None):
    """Hoist invariant loads and arithmetic out of loop bodies."""
    if namer is None:
        namer = _namer_for(stmt)

    def visit(node):
        if isinstance(node, ForLoop):
            return _hoist_loop(node, namer, loop_var=node.var.name)
        if isinstance(node, WhileLoop):
            return _hoist_loop(node, namer, loop_var=None)
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
        temp = Var(namer.fresh(_hoist_hint(expr)))
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
    if any(can_raise(expr) for expr in candidates) \
            and _literal_truth(guard) is not True:
        return If([(guard, hoisted)])
    return hoisted


# --------------------------------------------------------------------------
# Common-subexpression elimination
# --------------------------------------------------------------------------
class _Avail:
    """One available expression: where it was defined, and its temp."""

    __slots__ = ("expr", "index", "temp")

    def __init__(self, expr, index, temp=None):
        self.expr = expr
        self.index = index
        self.temp = temp


def eliminate_common_subexprs(stmt, namer=None):
    """Reuse repeated pure subexpressions within each block."""
    if namer is None:
        namer = _namer_for(stmt)

    def visit(node):
        if isinstance(node, Block):
            return _cse_block(node, namer)
        return None

    return map_statements(stmt, visit)


def _read_subexprs(stmt):
    """Every shareable subexpression in read position of ``stmt``
    (assignment targets are writes; only their addresses count)."""
    roots = entry_exprs(stmt)
    if isinstance(stmt, If):    # the later conditions are reads too
        roots = [cond for cond, _ in stmt.branches if cond is not None]
    for root in roots:
        for expr in walk_expr(root):
            if _shareable(expr):
                yield expr


def _cse_block(block, namer):
    avail = {}
    out = []

    def invalidate(writes, stores):
        if not writes and not stores:
            return
        for key, record in list(avail.items()):
            if record.expr.free_vars() & writes \
                    or load_buffers(record.expr) & stores \
                    or (record.temp is not None
                        and record.temp.name in writes):
                del avail[key]

    def materialize(record):
        if record.temp is not None:
            return record.temp
        record.temp = Var(namer.fresh("t"))
        definition = AssignStmt(record.temp, record.expr)
        replaced = {record.expr.key(): record.temp}
        out[record.index] = map_statement_exprs(
            out[record.index], lambda e: replace_by_key(e, replaced))
        out.insert(record.index, definition)
        for other in avail.values():
            if other is not record and other.index >= record.index:
                other.index += 1
        return record.temp

    pending = list(reversed(block.stmts))
    while pending:
        stmt = pending.pop()
        if isinstance(stmt, (Comment, Nop)):
            out.append(stmt)
            continue
        mapping = {}
        for expr in _read_subexprs(stmt):
            record = avail.get(expr.key())
            if record is not None and expr.key() not in mapping:
                mapping[expr.key()] = materialize(record)
        if mapping:
            stmt = map_statement_exprs(
                stmt, lambda e: replace_by_key(e, mapping))
        _, writes, stores = effects(stmt)
        invalidate(writes, stores)
        # Register only strict-position subexpressions: an expr under
        # a lazy ifelse/and/or arm may never have been evaluated here,
        # and materializing its temp at this site would speculate it
        # (e.g. hoist a guarded out-of-bounds load past its guard).
        fresh, repeat, sliced = {}, None, _slice_operation(stmt)
        for root in entry_exprs(stmt):
            for expr in walk_strict_expr(root):
                if not _shareable(expr):
                    continue
                key = expr.key()
                if key in avail:
                    continue
                if expr.free_vars() & writes \
                        or load_buffers(expr) & stores:
                    continue
                if key in fresh and sliced and repeat is None:
                    repeat = expr
                fresh[key] = expr
        if repeat is not None:
            # A slice statement evaluates it twice (a slice's two bounds
            # share their offset): define it just ahead and start over.
            temp = Var(namer.fresh("t"))
            replaced = {repeat.key(): temp}
            pending += [map_statement_exprs(
                stmt, lambda e: replace_by_key(e, replaced)),
                AssignStmt(temp, repeat)]
            continue
        for key, expr in fresh.items():
            avail[key] = _Avail(expr, len(out))
        if isinstance(stmt, AssignStmt) and isinstance(stmt.target, Var) \
                and _shareable(stmt.value):
            record = avail.get(stmt.value.key())
            if record is not None and record.temp is None \
                    and record.index == len(out):
                # The assignment itself is the temp for its value.
                record.temp = Var(stmt.target.name)
        out.append(stmt)
    return block if unchanged(out, block.stmts) else Block(out)


# --------------------------------------------------------------------------
# Dense-loop vectorization
# --------------------------------------------------------------------------
def vectorize(stmt):
    """Rewrite simple dense inner loops into numpy slice operations."""

    def visit(node):
        if isinstance(node, ForLoop):
            return _vectorize_loop(node)
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


def _vectorize_loop(loop):
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
        out.append(_vectorize_core(core, var, loop.start, loop.stop))
        if out[0] is None:
            return None
    trip = build.minus(loop.stop, loop.start)
    for counter in counters:
        out.append(AccumStmt(counter.target, counter.op,
                             simplify_expr(build.times(counter.value,
                                                       trip))))
    guard = simplify_expr(build.lt(loop.start, loop.stop))
    truth = _literal_truth(guard)
    if truth is True:
        return Block(out)
    if truth is False:
        return Nop()
    return If([(guard, Block(out))])


def _vectorize_core(core, var, start, stop):
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
    return AccumStmt(target, op, Reduce(op, value))


# --------------------------------------------------------------------------
# The pipeline
# --------------------------------------------------------------------------
#: Pass names at each level, for documentation and introspection.
PIPELINE = {
    1: ("fold_constants", "dead_code", "hoist_invariants",
        "eliminate_common_subexprs"),
    2: ("fold_constants", "dead_code", "vectorize", "hoist_invariants",
        "eliminate_common_subexprs"),
}


def _scalar_cleanup(stmt, rounds=4):
    """fold+dce to a (bounded) fixpoint: the round that hands back the
    very tree it was given changed nothing."""
    for _ in range(rounds):
        cleaned = dead_code(fold_constants(stmt))
        if cleaned is stmt:
            break
        stmt = cleaned
    return stmt


def optimize_kernel(func, level=DEFAULT_OPT_LEVEL):
    """Run the optimizer pipeline over a lowered kernel.

    ``level`` 0 returns the tree untouched; 1 runs the scalar passes
    (folding, dead code, LICM, CSE); 2 (default) adds dense-loop
    vectorization.  The returned tree shares every node no pass changed
    with the input (it *is* the input when none did) and has identical
    parameters and returns.
    """
    if level is None:
        level = DEFAULT_OPT_LEVEL
    level = int(level)
    if level <= 0:
        return func
    namer = _namer_for(func)
    func = _scalar_cleanup(func)
    if level >= 2:
        func = vectorize(func)
    func = hoist_invariants(func, namer)
    func = eliminate_common_subexprs(func, namer)
    func = _scalar_cleanup(func)
    return func
