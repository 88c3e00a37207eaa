"""The numpy types of target-IR expressions, and the parameters a python
kernel may therefore read as Python scalars.

The reference semantics are those of an ``opt_level=0`` kernel: a load
is a numpy scalar of its buffer's dtype, and numpy promotes by NEP 50 —
a Python literal is *weak*, it takes the width of the numpy operand it
meets (``np.uint8(200) * 25`` wraps in ``uint8``), and a comparison
gives ``bool``.  An element view — what a python kernel's entry hands
it in place of a parameter's ndarray
(:func:`repro.ir.runtime.python_entry`) — reads a Python
``int``/``float``/``bool``, which is weak everywhere.

One walk over the statements, repeated for the assignments until no
variable grows (:func:`sites`), gives every expression the set of types
its value may have — a set, since a variable may be assigned a load and
a literal, and ``min`` returns whichever operand it picks — and the
parameters whose loads reach it.  A call's result types are what its
printed form returns on one sample operand of each type, so an operator
is typed by the code the kernel runs.  Then a candidate parameter is
viewed exactly when every call its loads reach computes alike on Python
scalars (:func:`_verdict`), and every store it reaches converts alike;
docs/backends.md has the rule and a table of operand pairs.  The C
emitter (:mod:`repro.codegen.c_emit`) types its kernels with the same
walk.
"""

import functools
import itertools
import math

import numpy as np

from repro.ir import asm
from repro.ir.nodes import Call, Literal, Load, Slice, Var
from repro.ir.ops import MISSING, MUL
from repro.rewrite.rules import RANGE_OF_CALL, UNBOUNDED, value_range

_NONE = type(None)


class _Unknown:
    """The type of a value no sample computes: alike with nothing."""


#: numpy type -> the Python type that computes like it.
_PYTHON = {np.float64: float, np.int64: int, np.bool_: bool}

#: A weak Python operand, as ``np.result_type`` takes one.
_WEAK = {int: 0, float: 0.0, bool: False}

_LITERAL = {kind: frozenset([kind]) for kind in (bool, int, float, _NONE)}


def read_as(kind):
    """The type a view reads a value of ``kind`` as."""
    if not issubclass(kind, np.generic):
        return kind
    if issubclass(kind, np.bool_):
        return bool
    return float if issubclass(kind, np.floating) else int


def _promote(kinds):
    """The type NEP 50 computes over ``kinds`` in (Python's own when all
    are Python types); a whole buffer operand does not count."""
    if _Unknown in kinds:
        return _Unknown
    strong = [kind for kind in kinds if issubclass(kind, np.generic)]
    if not strong:
        return float if float in kinds else int if int in kinds else bool
    return np.result_type(*strong, *[_WEAK[kind] for kind in kinds
                                     if kind in _WEAK]).type


def _sample(kind):
    return np.ones(1, dtype=np.int64) if kind is np.ndarray else kind(1)


@functools.lru_cache(maxsize=1024)
def _printed(op, arity):
    """A call of ``op`` as the kernel computes it: its printed form
    (``a + b``, where ``fn`` may compute ``0 + a + b``)."""
    from repro.ir.pretty import expr_source
    from repro.ir.runtime import kernel_globals

    names = ["x%d" % pos for pos in range(arity)]
    source = expr_source(Call(op, [Var(name) for name in names]))
    return eval("lambda %s: %s" % (", ".join(names), source),
                kernel_globals())


def _apply(op, kinds):
    """The type a call of ``op`` returns on one operand of each kind;
    ``None`` when it raises."""
    try:
        with np.errstate(all="ignore"):
            return type(_printed(op, len(kinds))(*map(_sample, kinds)))
    except Exception:       # the operator's own error: no value flows
        return None


def _alike(reference, viewed):
    """The same type, or a numpy type and the Python type that computes
    like it; never an error (``None``) or an unknown."""
    return reference not in (None, _Unknown) and (
        reference is viewed or _PYTHON.get(reference) is viewed)


def _passed(op):
    """The operands a call of ``op`` returns one of (``min``,
    ``coalesce``, ``and``; ``ifelse`` past its condition), or ``None``
    when it computes a value."""
    form = (op.python or (None,))[0]
    if form == "conditional":
        return slice(1, None)
    if op.lazy or form in ("select", "first_not_none"):
        return slice(None)
    return None


@functools.lru_cache(maxsize=4096)
def _result(op, vector, masks):
    """The types a call of ``op`` over operands of types ``masks``
    returns."""
    passed = None if vector else _passed(op)
    if passed is not None:
        return frozenset().union(*masks[passed])
    out = set()
    for kinds in itertools.product(*masks):
        if _NONE not in kinds:  # ``None`` raises, or is tested, alike
            kind = _promote(kinds) if vector else _apply(op, kinds)
            out.add(_Unknown if kind is None else kind)
    return frozenset(out)


@functools.lru_cache(maxsize=1024)
def _reduced(op, mask):
    """The types ``op.numpy_reduce`` returns over a vector of ``mask``
    (``_np.add.reduce`` sums ``bool`` to ``int64``), and the operand's
    (the sum of products printed as ``_np.dot``)."""
    reduce = eval(op.numpy_reduce, {"_np": np})     # a registry string
    with np.errstate(all="ignore"):
        return mask | {type(reduce(np.ones(2, dtype=kind))) for kind in mask
                       if issubclass(kind, np.generic)}


#: Verdicts on a call some of whose operands are read through views.
SAME, INT64, DIFFERS = "same", "int64", "differs"


@functools.lru_cache(maxsize=4096)
def _verdict(op, vector, masks, viewed):
    """:data:`SAME` when a call of ``op`` computes alike with its
    ``viewed`` operands read as Python scalars, for every combination of
    its operands' types: NEP 50 computes in alike types, and the result
    has alike types.  :data:`INT64` when it computes in ``int64`` where
    the views compute in an unbounded ``int``; else :data:`DIFFERS`."""
    if not vector and not op.exact:
        return DIFFERS
    passed = None if vector else _passed(op)
    if passed is not None and (op.python or ())[:1] != ("select",):
        return SAME         # picks an operand by truth or ``is None``
    verdict = SAME
    for kinds in itertools.product(*masks):
        views = tuple(read_as(kind) if read else kind
                      for kind, read in zip(kinds, viewed))
        if _NONE in kinds or views == kinds:
            continue
        # A select compares each pair of operands.
        groups = (itertools.combinations(range(len(kinds)), 2)
                  if passed is not None else [range(len(kinds))])
        for group in groups:
            reference = _promote([kinds[pos] for pos in group])
            computed = _promote([views[pos] for pos in group])
            if not _alike(reference, computed):
                return DIFFERS
            if passed is None and reference is np.int64 \
                    and computed is int:
                verdict = INT64
        if passed is None and not vector and not _alike(
                _apply(op, kinds), _apply(op, views)):
            return DIFFERS
    return verdict


@functools.lru_cache(maxsize=1024)
def _stores_alike(element, mask):
    """Whether a ``element`` ndarray stores a value of types ``mask``
    and the one a view computed instead alike: a Python value is stored
    as itself, a ``float64``/``bool`` element converts any number alike,
    but ``np.int64(300)`` wraps into ``uint8`` where ``300`` raises."""
    return all(kind is element or kind in _WEAK or kind is _NONE
               or element in (np.float64, np.bool_) and kind is not _Unknown
               for kind in mask)


@functools.lru_cache(maxsize=1024)
def _view_stores(element, mask):
    """Whether an element view of an ``element`` buffer stores a value of
    every type in ``mask``: none takes ``None``, and an integer view
    raises on a value that is not an integer (a ``float``, a
    ``np.bool_``), which numpy would convert."""
    if issubclass(element, np.integer):
        return all(kind in (int, bool) or issubclass(kind, np.integer)
                   for kind in mask)
    return _NONE not in mask


def _statements(func):
    """``(assigns, uses, stored)``: the statements of ``func`` in
    program order — each assignment to a variable as ``(name, value)``,
    where ``x op= v`` is ``(op, x, v)`` and a loop index's value is its
    ``ForLoop``; each expression a statement reads outside those (a
    condition, a loop's bounds; ``None`` for an ``else``); each store as
    ``(target, value)``."""
    assigns, uses, stored = [], [], []
    stack = [func.body]
    while stack:
        stmt = stack.pop()
        cls = type(stmt)
        if cls is asm.Block:
            stack += reversed(stmt.stmts)
        elif cls is asm.AssignStmt or cls is asm.AccumStmt:
            target = stmt.target
            value = stmt.value if cls is asm.AssignStmt \
                else (stmt.op, target, stmt.value)
            if type(target) is Var:
                assigns.append((target.name, value))
            else:
                stored.append((target, value))
        elif cls is asm.If:
            for cond, body in reversed(stmt.branches):
                uses.append(cond)
                stack.append(body)
        elif cls is asm.ForLoop:
            uses += stmt.start, stmt.stop
            assigns.append((stmt.var.name, stmt))
            stack.append(stmt.body)
        elif cls is asm.WhileLoop:
            uses.append(stmt.cond)
            stack.append(stmt.body)
    return assigns, uses, stored


def sites(func, dtypes):
    """``(calls, stores, sliced, kinds)`` of ``func``, whose parameters
    ``dtypes`` maps, in order, to their numpy dtypes: every call and
    store some load reaches, with its operands' types and reach (a
    store's target bit is 0 for a slice, which numpy does), the bit
    mask of the parameters only a ``Slice`` names (never a load, a
    store to one element or a helper's buffer operand), and
    ``kinds(expr)``, the types an expression of ``func`` may have (none
    for a load from a name that is not a parameter)."""
    bits, elements, loads = {}, {}, {}
    for pos, (name, dtype) in enumerate(dtypes.items()):
        bits[name], elements[name] = 1 << pos, np.dtype(dtype).type
        loads[name] = frozenset([elements[name]])
    assigns, uses, stored = _statements(func)
    uses += [target for target, _ in stored]    # visits its address

    env, read, calls, sliced, indexed = {}, set(), set(), [0], [0]
    unknown, buffer = (frozenset(), 0), (frozenset([np.ndarray]), 0)

    def visit(expr):
        cls = type(expr)
        if cls is Var:
            read.add(expr.name)     # a parameter is a whole buffer
            indexed[0] |= bits.get(expr.name, 0)
            return env.get(expr.name) or (
                buffer if expr.name in bits else unknown)
        if cls is Load:
            if type(expr.index) is Call:    # a load is its buffer's type
                visit(expr.index)
            bit = bits.get(expr.buffer.name, 0)
            indexed[0] |= bit
            return loads.get(expr.buffer.name, unknown[0]), bit
        if cls is Literal:
            return _LITERAL[_NONE if expr.value is MISSING
                            else type(expr.value)], 0
        if cls is Call:
            return call(expr.op, expr.vector, expr.args)
        if cls is Slice:
            visit(expr.start)
            visit(expr.stop)
            sliced[0] |= bits.get(expr.buffer.name, 0)
            return loads.get(expr.buffer.name, unknown[0]), 0
        if cls is tuple:        # an accumulation
            op, target, value = expr
            return call(op, target.vector or value.vector, (target, value))
        kinds, reach = visit(expr.operand)     # a Reduce
        return _reduced(expr.op, kinds), reach

    def call(op, vector, args):
        masks, reaches, reach = [], [], 0
        for arg in args:
            kinds, arg_reach = visit(arg)
            masks.append(kinds)
            reaches.append(arg_reach)
            reach |= arg_reach
        masks = tuple(masks)
        if reach:
            calls.add((op, vector, masks, tuple(reaches), reach))
        return _result(op, vector, masks), reach

    # Each assignment in program order, then again every one that read
    # a variable which grew after it: the assignment fixpoint.
    readers, found = {}, [None] * len(assigns)
    todo = list(reversed(range(len(assigns))))
    while todo:
        pos = todo.pop()
        name, value = assigns[pos]
        read.clear()
        calls.clear()
        kinds, reach = (_LITERAL[int], 0) if type(value) is asm.ForLoop \
            else visit(value)
        if found[pos] is None:
            for var in read:
                readers.setdefault(var, []).append(pos)
        found[pos] = tuple(calls)
        old = env.get(name, unknown)
        new = (old[0] | kinds, old[1] | reach)
        if new != old:
            env[name] = new
            todo += readers.get(name, ())
    calls.clear()
    for expr in uses:
        if expr is not None:    # an ``else``
            visit(expr)
    stores = {(bits[target.buffer.name] if type(target) is Load else 0,
               elements[target.buffer.name]) + visit(value)
              for target, value in stored if target.buffer.name in bits}
    calls.update(itertools.chain.from_iterable(found))
    return (calls, stores, sliced[0] & ~indexed[0],
            lambda expr: visit(expr)[0])


#: An ``int64`` computation's range: a bound past it is unbounded, so a
#: bounded value never wrapped on its way.
_INT64 = np.iinfo(np.int64)


def _call_range(op, ranges):
    """The range a call of ``op`` over operands in ``ranges`` lies in:
    :func:`~repro.rewrite.rules.value_range`'s, a product's corners, a
    rounded operator's clamp; else unbounded.  (The last two stay out
    of ``value_range``: the rewriter folds by it, and the tree both
    backends print must not change for a view.)"""
    if op in RANGE_OF_CALL:
        lo, hi = RANGE_OF_CALL[op](ranges)
    elif op is MUL and all(map(math.isfinite, itertools.chain(*ranges))):
        lo = hi = 1
        for first, last in ranges:
            corners = (lo * first, lo * last, hi * first, hi * last)
            lo, hi = min(corners), max(corners)
    elif (op.python or (None,))[0] == "rounded":
        lo, hi = op.python[1:]
    else:
        return UNBOUNDED
    return (lo if lo >= _INT64.min else -math.inf,
            hi if hi <= _INT64.max else math.inf)


def stored_ranges(func, dtypes):
    """``{name: (lo, hi)}``: the closed range every value ``func`` stores
    to one element of parameter ``name`` lies in, where ``dtypes`` maps
    the parameters to their numpy dtypes.

    An ``int`` literal is itself, a load from an ``int64`` parameter
    what its level declares (:func:`~repro.rewrite.rules.value_range`),
    a loop index its ``range``, a call what :func:`_call_range` makes of
    its operands, and a variable the hull of every value assigned to it,
    where a value that reads the variable back takes it as unbounded (a
    counter is).  Anything else, a narrower load included (its
    arithmetic wraps), is unbounded."""
    assigns, _, stored = _statements(func)
    values = {}
    for name, value in assigns:
        values.setdefault(name, []).append(value)
    env = {}

    def bound(expr):
        cls = type(expr)
        if cls is Literal:
            return value_range(expr)
        if cls is Var:
            name = expr.name
            if name not in env:
                env[name] = UNBOUNDED   # as a value reading it back sees it
                found = [bound(value) for value in values.get(name, ())]
                if found:
                    env[name] = (min(lo for lo, _ in found),
                                 max(hi for _, hi in found))
            return env[name]
        if cls is Load:
            return value_range(expr) if dtypes.get(expr.buffer.name) \
                == np.int64 else UNBOUNDED
        if cls is asm.ForLoop:
            return bound(expr.start)[0], bound(expr.stop)[1] - 1
        if cls is tuple:        # ``x op= v``
            op, *args = expr
        elif cls is Call:
            op, args = expr.op, expr.args
        else:
            return UNBOUNDED
        return _call_range(op, [bound(arg) for arg in args])

    out = {}
    for target, value in stored:
        if type(target) is Load:    # numpy does a slice's store
            name = target.buffer.name
            found = bound(value)
            old = out.get(name, found)
            out[name] = (min(old[0], found[0]), max(old[1], found[1]))
    return out


def sums_alike(func, buffers):
    """``alike(op, target, value)``: whether ``target op= value`` over a
    loop of ``func`` may run as one numpy reduction — whether, for every
    type the two may have, ``_np.dot`` or ``op.numpy_reduce`` computes in
    the type one step of the loop does (``_np.dot`` sums ``uint8`` in
    ``uint8``, where a ``float64`` accumulator takes each term as it
    is).  ``func`` is typed on the first call."""
    typed = []

    def alike(op, target, value):
        if not typed:
            typed.append(sites(func, {
                name: array.dtype for name, array in buffers})[3])
        kinds = typed[0]
        targets = kinds(target)
        return all(
            issubclass(element, np.generic) and all(
                _reduced(op, frozenset([element]))
                == {_apply(op, (kind, element))} for kind in targets)
            for element in kinds(value))

    return alike


def _fits(bounds, dtype):
    """Whether the closed range ``bounds`` lies in integer ``dtype``'s."""
    info = np.iinfo(dtype)
    return info.min <= bounds[0] and bounds[1] <= info.max


def viewable(func, buffers, plan, values):
    """The parameters of ``func`` a python kernel may read and store
    through element views, in parameter order: the view set an artifact
    carries (``CompiledKernel.views``), which its entry turns into
    views once per binding.

    ``buffers`` are the compile-time ``(name, array)`` pairs, ``plan``
    their binding-plan entries, and ``values`` the names of those that
    are a tensor's element values.  A candidate has a plan entry (a
    buffer pinned by a custom format stays what it is) and native byte
    order, and is ``float64``; or an ``int64`` structure array (any
    buffer but element values), or values of another integer or float
    dtype of at most 8 bytes.  One the kernel stores to must be an
    integer, and every value stored to one of its elements must be an
    integer that lies in its dtype's range (:func:`stored_ranges`): a
    view raises where numpy would wrap or truncate.  A candidate is
    viewed unless a ``Slice`` alone names it (numpy does those; a slice
    of a viewed parameter is printed through the view's ndarray), when
    every call and store its loads reach compute alike on Python
    scalars; a computation moved from ``int64`` to a Python ``int`` only
    for a structure array (positions do not overflow).
    """
    dtypes = {name: array.dtype for name, array in buffers}
    stored = asm.effects(func).stores
    ranges = stored_ranges(func, dtypes) if any(
        dtypes[name].kind in "iu" for name in stored & dtypes.keys()) else {}
    candidates = structure = 0
    for pos, ((name, array), entry) in enumerate(zip(buffers, plan)):
        dtype = array.dtype
        if entry is None or not dtype.isnative:
            continue
        value = name in values
        if not value:
            structure |= 1 << pos
        if dtype.type is np.float64 or (
                dtype.kind in "iuf" and dtype.itemsize <= 8
                and (dtype.type is not np.int64 or not value)
                and (name not in stored or dtype.kind in "iu"
                     and _fits(ranges.get(name, UNBOUNDED), dtype))):
            candidates |= 1 << pos
    if not candidates:
        return ()
    calls, stores, sliced, _ = sites(func, dtypes)
    views = candidates & ~sliced
    while True:     # a refused parameter's calls are checked again
        lost = 0
        for op, vector, masks, reaches, reach in calls:
            mine = reach & views
            if mine:
                verdict = _verdict(op, vector, masks, tuple(
                    [arg_reach & views != 0 for arg_reach in reaches]))
                if verdict is DIFFERS:
                    lost |= mine
                elif verdict is INT64:
                    lost |= mine & ~structure
        for bit, element, kinds, reach in stores:
            if views & bit:
                if not _view_stores(element, kinds):
                    lost |= bit
            elif reach & views and not _stores_alike(element, kinds):
                lost |= reach & views
        if not lost:
            return tuple(name for pos, (name, _) in enumerate(buffers)
                         if views >> pos & 1)
        views &= ~lost
