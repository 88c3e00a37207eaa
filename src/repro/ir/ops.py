"""Operator registry for the scalar expression IR.

Each :class:`Op` is the one declaration of an operator: how to *fold* it
over constants, the algebraic properties the rewriter (Figure 5 of the
paper) relies on — identity and annihilator elements, commutativity and
associativity, whether it propagates ``missing`` (rendered as Python
``None``) — and its three target forms: the Python the printer emits,
the numpy the vectoriser emits, and the C lowering.

The registry is open: callers may register their own operators (e.g. a
semiring product) and the whole compiler pipeline — rewriting, the
optimizer and both backends — picks everything up from here; no
consumer tests an operator by name.
"""

import math
import re
from bisect import bisect_left

from repro.util.errors import ReproError


class Missing:
    """Singleton sentinel for the paper's ``missing`` value.

    ``missing`` is produced by the ``permit`` index modifier for
    out-of-bounds accesses; ``f(x, missing) = missing`` for ordinary
    operators, and ``coalesce`` selects its first non-missing argument.
    Rendered as ``None`` in emitted code.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "missing"


MISSING = Missing()


class Op:
    """A scalar operator usable in IR ``Call`` nodes.

    Parameters
    ----------
    name:
        Registry key and default rendering (as ``name(args...)``).
    fn:
        Python callable used for constant folding and by the reference
        interpreter.
    symbol:
        Infix symbol; when given, binary calls render as ``a <sym> b``.
    precedence:
        Python operator precedence (higher binds tighter) used by the
        pretty printer to insert minimal parentheses.
    identity / annihilator:
        Algebraic elements, or ``None`` when absent.  ``op(identity, x)
        == x`` and ``op(annihilator, x) == annihilator``.
    commutative / associative:
        Enable argument reordering / flattening in the rewriter.
    propagates_missing:
        ``op(..., missing, ...) == missing`` (true for arithmetic, false
        for ``coalesce``).
    unary:
        A one-argument call renders as the prefix ``<sym>a``.
    chains:
        Python chains the infix ``symbol`` with its precedence peers
        (``a < b < c`` is ``a < b and b < c``), so an operand of that
        precedence prints in parentheses on either side.
    accum:
        Compound-assignment spelling (``"+="``) of ``x = op(x, v)``,
        valid on scalars and numpy slices alike; without it an
        accumulation is spelled out.
    python:
        The Python form :mod:`repro.ir.pretty` prints instead of a call,
        a conditional expression: ``("select", "<")`` (``min``: the
        running value stays unless a later operand compares strictly
        less, the builtin's own rule), ``("first_not_none",)`` (the
        first operand that is not ``None``, which is how emitted code
        spells ``missing``; the ones after it are not evaluated),
        ``("conditional",)`` (``then if cond else otherwise``) or
        ``("rounded", 0, 255)`` (``round``, half to even, clamped into
        the bounds).  Each operand is evaluated once.  ``None``: an op
        with no ``symbol`` prints as ``runtime_name(args...)``.
    runtime_name / runtime:
        For ops that print as calls: the name emitted code calls and
        the callable the kernel namespace binds to it (default ``fn``).
        No runtime name may have the shape of a printer temp
        (``_t1``, ``_t2``...): a temp is a local of the whole kernel
        function and would shadow it.
    lazy:
        Emitted Python evaluates only the first argument
        unconditionally (``and``/``or`` short-circuit, ``ifelse`` is a
        conditional expression); the optimizer never speculates the rest.
    total:
        Cannot raise on well-typed scalars, so a hoist needs no guard.
        Anything else (division, user ops) is treated as possibly raising.
    exact:
        Gives the same value, and the same error, on Python ``float`` /
        ``int`` operands as on ``np.float64`` / ``np.int64`` ones, so the
        python backend may run it on Python scalars.  Types are not part
        of the declaration: the dtype pass (:mod:`repro.ir.dtypes`) reads
        them off the printed form on sample operands, and lets a view's
        Python scalar reach a call only where numpy computes it in
        ``float64``, ``int64`` or ``bool`` and gives the same type
        (``np.uint8 * 0.4`` is ``float64``, ``np.uint8 * 3`` wraps in
        ``uint8``, ``np.True_ + np.True_`` is ``True`` where ``True +
        True`` is 2).  Division is not exact — ``1.0 / 0.0`` is ``inf``
        and a ``RuntimeWarning`` on numpy scalars, a ``ZeroDivisionError``
        on Python ones — and neither is an op that does not say: the
        parameters a call of one reaches keep reading ndarrays.
    numpy / numpy_reduce:
        What the vectoriser turns a loop calling the op into —
        ``("infix", "+")``, ``("pairwise", "_np.copysign")`` (a binary
        ufunc, folded over more arguments), ``("unary", "_np.abs(%s)")``
        — and a loop accumulating with it (``"_np.add.reduce"``).
        The form must compute what the scalar op computes, NaN and
        signed zero included.  ``None``: such loops stay scalar.
    c:
        The C lowering :mod:`repro.codegen.c_emit` dispatches on:
        ``("infix", "+", 12)`` / ``("prefix", "-", 14)`` (symbol, C
        precedence), ``("helper", "fl_div")`` (a prelude or libm
        function), ``("typed", "fl_min")`` (``fl_min_i64``/``_f64`` by
        operand type; ``("typed", "fl_mod", "checked")`` when the
        ``_i64`` one reports an error through the kernel's status), or
        a custom renderer named there:
        ``("logical", "&&", 5)``, ``("conditional",)``,
        ``("magnitude",)``, ``("search", "fl_search_ge")``,
        ``("checked", "fl_round_u8")`` (a helper that reports Python's
        error through the kernel's status).  ``None``: kernels using the
        op fall back to the python backend.  Like the python backend, C
        reads its types off the dtype pass, not off the declaration.
    """

    def __init__(self, name, fn, symbol=None, precedence=0, identity=None,
                 annihilator=None, commutative=False, associative=False,
                 propagates_missing=True, runtime_name=None, unary=False,
                 accum=None, runtime=None, lazy=False, total=False,
                 exact=False, numpy=None, numpy_reduce=None, c=None,
                 python=None, chains=False):
        self.name = name
        self.fn = fn
        self.symbol = symbol
        self.precedence = precedence
        self.identity = identity
        self.annihilator = annihilator
        self.commutative = commutative
        self.associative = associative
        self.propagates_missing = propagates_missing
        # Name the op is reachable under inside emitted-kernel namespaces,
        # for ops that render as function calls rather than infix syntax.
        self.runtime_name = runtime_name or name
        self.runtime = runtime or fn
        self.unary = unary
        self.accum = accum
        self.lazy = lazy
        self.total = total
        self.exact = exact
        self.numpy = numpy
        self.numpy_reduce = numpy_reduce
        self.c = c
        self.python = python
        self.chains = chains

    def __repr__(self):
        return "Op(%s)" % self.name

    def fold(self, *args):
        """Apply the underlying Python function to constant arguments."""
        if self.propagates_missing and any(a is MISSING for a in args):
            return MISSING
        return self.fn(*args)


_REGISTRY = {}
_REGISTRY_VERSION = 0


#: The names :mod:`repro.ir.pretty` binds its temps to: ``_t`` and a
#: number.  A temp is a local of the whole kernel function, so no other
#: name may take that shape: none the lowerer or the optimizer makes
#: starts with an underscore (:func:`repro.util.namer.sanitize` strips
#: them), the kernel namespace's fixed names are ``_np``/``_inf``/
#: ``_nan``, and :func:`register_op` refuses such a runtime name.
PRINTER_TEMP = "_t%d"
_PRINTER_TEMP_SHAPE = re.compile(r"_t[0-9]+\Z")


def register_op(op):
    """Add ``op`` to the global registry, replacing any previous entry."""
    global _REGISTRY_VERSION
    if _PRINTER_TEMP_SHAPE.match(op.runtime_name):
        raise ReproError("operator %r: runtime name %r is reserved for "
                         "printer temps" % (op.name, op.runtime_name))
    _REGISTRY[op.name] = op
    _REGISTRY_VERSION += 1
    return op


def registry_version():
    """Monotone counter bumped by every :func:`register_op` call.

    Lets caches built over the registry (the kernel runtime namespace)
    invalidate on late op registrations instead of rebuilding on every
    lookup.
    """
    return _REGISTRY_VERSION


def get_op(name):
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ReproError("unknown operator: %r" % (name,))


def all_ops():
    return dict(_REGISTRY)


def _coalesce(*args):
    for arg in args:
        if arg is not MISSING and arg is not None:
            return arg
    return MISSING


def _ifelse(cond, then, otherwise):
    return then if cond else otherwise


def _round_u8(value):
    """Round half to even and clamp to the uint8 range (paper's
    ``round(UInt8, x)``): what the printed form computes, ``ValueError``
    on NaN and ``OverflowError`` on infinities included."""
    rounded = round(value)
    return 0 if rounded < 0 else 255 if rounded > 255 else rounded


def _divide(a, b):
    return a / b


def _and(*args):
    result = True
    for arg in args:
        result = result and arg
    return result


def _or(*args):
    result = False
    for arg in args:
        result = result or arg
    return result


def _add(*args):
    """``a + b + ...`` as printed, so two ``np.bool_`` add to ``True``
    (``0 + a + b`` would be 2); ``0`` for no operand."""
    result, *rest = args or (0,)
    for arg in rest:
        result = result + arg
    return result


def _mul(*args):
    result, *rest = args or (1,)
    for arg in rest:
        result = result * arg
    return result


def _min(*args):
    return min(args)


def _max(*args):
    return max(args)


def _compare(name, fn, symbol, c_precedence):
    return register_op(Op(name, fn, symbol=symbol, precedence=6, total=True,
                          exact=True, c=("infix", symbol, c_precedence),
                          chains=True))


ADD = register_op(Op("add", _add, symbol="+", precedence=10, identity=0,
                     commutative=True, associative=True, accum="+=",
                     total=True, exact=True, numpy=("infix", "+"),
                     numpy_reduce="_np.add.reduce", c=("infix", "+", 12)))
SUB = register_op(Op("sub", lambda a, b: a - b, symbol="-", precedence=10,
                     accum="-=", total=True, exact=True,
                     numpy=("infix", "-"), c=("infix", "-", 12)))
NEG = register_op(Op("neg", lambda a: -a, symbol="-", precedence=13,
                     unary=True, total=True, exact=True,
                     numpy=("unary", "(-%s)"), c=("prefix", "-", 14)))
MUL = register_op(Op("mul", _mul, symbol="*", precedence=11, identity=1,
                     annihilator=0, commutative=True, associative=True,
                     accum="*=", total=True, exact=True,
                     numpy=("infix", "*"),
                     numpy_reduce="_np.multiply.reduce",
                     c=("infix", "*", 13)))
DIV = register_op(Op("div", _divide, symbol="/", precedence=11, accum="/=",
                     numpy=("infix", "/"), c=("helper", "fl_div")))
FLOORDIV = register_op(Op("floordiv", lambda a, b: a // b, symbol="//",
                          precedence=11,
                          c=("typed", "fl_floordiv", "checked")))
MOD = register_op(Op("mod", lambda a, b: a % b, symbol="%", precedence=11,
                     c=("typed", "fl_mod", "checked")))
POW = register_op(Op("pow", lambda a, b: a ** b, symbol="**", precedence=14))
# No numpy form: ``_np.minimum``/``_np.maximum`` propagate a NaN where
# Python's ``min``/``max`` keep their first argument.
MIN = register_op(Op("min", _min, identity=None, commutative=True,
                     associative=True, total=True, exact=True,
                     python=("select", "<"), c=("typed", "fl_min")))
MAX = register_op(Op("max", _max, identity=None, commutative=True,
                     associative=True, total=True, exact=True,
                     python=("select", ">"), c=("typed", "fl_max")))
EQ = _compare("eq", lambda a, b: a == b, "==", 9)
NE = _compare("ne", lambda a, b: a != b, "!=", 9)
LT = _compare("lt", lambda a, b: a < b, "<", 10)
LE = _compare("le", lambda a, b: a <= b, "<=", 10)
GT = _compare("gt", lambda a, b: a > b, ">", 10)
GE = _compare("ge", lambda a, b: a >= b, ">=", 10)
AND = register_op(Op("and", _and, symbol="and", precedence=4, identity=True,
                     annihilator=False, commutative=True, associative=True,
                     lazy=True, total=True, exact=True,
                     c=("logical", "&&", 5)))
OR = register_op(Op("or", _or, symbol="or", precedence=3, identity=False,
                    annihilator=True, commutative=True, associative=True,
                    lazy=True, total=True, exact=True,
                    c=("logical", "||", 4)))
NOT = register_op(Op("not", lambda a: not a, symbol="not ", precedence=5,
                     unary=True, total=True, exact=True,
                     c=("prefix", "!", 14)))
ABS = register_op(Op("abs", abs, total=True, exact=True,
                     numpy=("unary", "_np.abs(%s)"), c=("magnitude",)))
SQRT = register_op(Op("sqrt", math.sqrt, runtime_name="_sqrt", exact=True,
                      numpy=("unary", "_np.sqrt(%s)"), c=("helper", "sqrt")))
COALESCE = register_op(Op("coalesce", _coalesce, propagates_missing=False,
                          exact=True, python=("first_not_none",)))
IFELSE = register_op(Op("ifelse", _ifelse, propagates_missing=False,
                        lazy=True, total=True, exact=True,
                        python=("conditional",), c=("conditional",)))
ROUND_U8 = register_op(Op("round_u8", _round_u8, runtime_name="_round_u8",
                          exact=True, python=("rounded", 0, 255),
                          c=("checked", "fl_round_u8")))


def _search_ge(idx, lo, hi, key):
    """First position ``p`` in ``[lo, hi)`` with ``idx[p] >= key``.

    This is the ``search`` used by stepper/jumper ``seek`` functions in
    the paper (a binary search over a sorted coordinate array).
    """
    return bisect_left(idx, key, lo, hi)


def _search_abs_ge(idx, lo, hi, key):
    """Like ``search_ge`` over ``abs(idx)`` (PackBits signed markers)."""
    while lo < hi:
        mid = (lo + hi) // 2
        if abs(idx[mid]) < key:
            lo = mid + 1
        else:
            hi = mid
    return lo


SEARCH_GE = register_op(Op("search_ge", _search_ge, exact=True,
                           c=("search", "fl_search_ge")))
SEARCH_ABS_GE = register_op(Op("search_abs_ge", _search_abs_ge, exact=True,
                               c=("search", "fl_search_abs_ge")))
