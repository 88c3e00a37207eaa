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
        Infix symbol; when given, binary calls render as ``a <sym> b``,
        otherwise as ``runtime_name(args...)``.
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
    accum:
        Compound-assignment spelling (``"+="``) of ``x = op(x, v)``,
        valid on scalars and numpy slices alike; without it an
        accumulation is spelled out.
    runtime_name / runtime:
        For ops that render as calls: the name emitted code calls and
        the callable the kernel namespace binds to it (default ``fn``;
        ``min``/``max`` bind the builtins, ``coalesce`` a variant over
        ``None``, which is how emitted code spells ``missing``).
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
        python backend may run it on Python scalars
        (:func:`repro.ir.emit.scalar_views`).  Division is not — ``1.0 /
        0.0`` is ``inf`` and a ``RuntimeWarning`` on numpy scalars, a
        ``ZeroDivisionError`` on Python ones — and neither is an op that
        does not say: a kernel using one keeps reading ndarrays.  Truth
        values are the one exception, and ``c_type`` names it: a
        ``"bool"`` result is a ``bool`` on Python scalars and an
        ``np.bool_`` on numpy ones, and an ``"arith"`` op over nothing
        but those (``True + True``: 2, or ``True``) opts the kernel out
        as well.
    numpy / numpy_reduce:
        What the vectoriser turns a loop calling the op into —
        ``("infix", "+")``, ``("pairwise", "_np.minimum")`` (a binary
        ufunc, folded over more arguments), ``("unary", "_np.abs(%s)")``
        — and a loop accumulating with it (``"_np.add.reduce"``).
        ``None``: such loops stay scalar.
    c / c_type:
        The C lowering :mod:`repro.codegen.c_emit` dispatches on, and its
        result-type rule (``"arith"``: operand join with bools promoted
        to int, ``"join"``, ``"f64"``, ``"i64"``, ``"bool"``):
        ``("infix", "+", 12)`` / ``("prefix", "-", 14)`` (symbol, C
        precedence), ``("helper", "fl_div")`` (a prelude or libm
        function), ``("typed", "fl_min")`` (``fl_min_i64``/``_f64`` by
        operand type), or a custom renderer named there, which may type
        itself: ``("logical", "&&", 5)``, ``("conditional",)``,
        ``("magnitude",)``, ``("search", "fl_search_ge")``.  ``None``:
        kernels using the op fall back to the python backend.
    """

    def __init__(self, name, fn, symbol=None, precedence=0, identity=None,
                 annihilator=None, commutative=False, associative=False,
                 propagates_missing=True, runtime_name=None, unary=False,
                 accum=None, runtime=None, lazy=False, total=False,
                 exact=False, numpy=None, numpy_reduce=None, c=None,
                 c_type=None):
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
        self.c_type = c_type

    def __repr__(self):
        return "Op(%s)" % self.name

    def fold(self, *args):
        """Apply the underlying Python function to constant arguments."""
        if self.propagates_missing and any(a is MISSING for a in args):
            return MISSING
        return self.fn(*args)


_REGISTRY = {}
_REGISTRY_VERSION = 0


def register_op(op):
    """Add ``op`` to the global registry, replacing any previous entry."""
    global _REGISTRY_VERSION
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


def _coalesce_runtime(*args):
    """First non-``None`` argument (``coalesce`` inside emitted code)."""
    for arg in args:
        if arg is not None:
            return arg
    return None


def _ifelse(cond, then, otherwise):
    return then if cond else otherwise


def _round_u8(value):
    """Round and clamp to the uint8 range (paper's ``round(UInt8, x)``)."""
    return max(0, min(255, int(round(float(value)))))


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
    result = 0
    for arg in args:
        result = result + arg
    return result


def _mul(*args):
    result = 1
    for arg in args:
        result = result * arg
    return result


def _min(*args):
    return min(args)


def _max(*args):
    return max(args)


def _compare(name, fn, symbol, c_precedence):
    return register_op(Op(name, fn, symbol=symbol, precedence=6, total=True,
                          exact=True, c=("infix", symbol, c_precedence),
                          c_type="bool"))


ADD = register_op(Op("add", _add, symbol="+", precedence=10, identity=0,
                     commutative=True, associative=True, accum="+=",
                     total=True, exact=True, numpy=("infix", "+"),
                     numpy_reduce="_np.add.reduce", c=("infix", "+", 12),
                     c_type="arith"))
SUB = register_op(Op("sub", lambda a, b: a - b, symbol="-", precedence=10,
                     accum="-=", total=True, exact=True,
                     numpy=("infix", "-"), c=("infix", "-", 12),
                     c_type="arith"))
NEG = register_op(Op("neg", lambda a: -a, symbol="-", precedence=13,
                     unary=True, total=True, exact=True,
                     numpy=("unary", "(-%s)"), c=("prefix", "-", 14),
                     c_type="arith"))
MUL = register_op(Op("mul", _mul, symbol="*", precedence=11, identity=1,
                     annihilator=0, commutative=True, associative=True,
                     accum="*=", total=True, exact=True,
                     numpy=("infix", "*"),
                     numpy_reduce="_np.multiply.reduce",
                     c=("infix", "*", 13), c_type="arith"))
DIV = register_op(Op("div", _divide, symbol="/", precedence=11, accum="/=",
                     numpy=("infix", "/"), c=("helper", "fl_div"),
                     c_type="f64"))
FLOORDIV = register_op(Op("floordiv", lambda a, b: a // b, symbol="//",
                          precedence=11, c=("typed", "fl_floordiv"),
                          c_type="arith"))
MOD = register_op(Op("mod", lambda a, b: a % b, symbol="%", precedence=11,
                     c=("typed", "fl_mod"), c_type="arith"))
POW = register_op(Op("pow", lambda a, b: a ** b, symbol="**", precedence=14))
MIN = register_op(Op("min", _min, identity=None, commutative=True,
                     associative=True, runtime=min, total=True, exact=True,
                     numpy=("pairwise", "_np.minimum"),
                     numpy_reduce="_np.minimum.reduce",
                     c=("typed", "fl_min"), c_type="join"))
MAX = register_op(Op("max", _max, identity=None, commutative=True,
                     associative=True, runtime=max, total=True, exact=True,
                     numpy=("pairwise", "_np.maximum"),
                     numpy_reduce="_np.maximum.reduce",
                     c=("typed", "fl_max"), c_type="join"))
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
                     c=("prefix", "!", 14), c_type="bool"))
ABS = register_op(Op("abs", abs, total=True, exact=True,
                     numpy=("unary", "_np.abs(%s)"), c=("magnitude",),
                     c_type="arith"))
SQRT = register_op(Op("sqrt", math.sqrt, runtime_name="_sqrt", exact=True,
                      numpy=("unary", "_np.sqrt(%s)"), c=("helper", "sqrt"),
                      c_type="f64"))
COALESCE = register_op(Op("coalesce", _coalesce, propagates_missing=False,
                          runtime_name="_coalesce",
                          runtime=_coalesce_runtime, exact=True))
IFELSE = register_op(Op("ifelse", _ifelse, propagates_missing=False,
                        runtime_name="_ifelse", lazy=True, total=True,
                        exact=True, c=("conditional",)))
ROUND_U8 = register_op(Op("round_u8", _round_u8, runtime_name="_round_u8",
                          exact=True, c=("helper", "fl_round_u8"),
                          c_type="i64"))


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
