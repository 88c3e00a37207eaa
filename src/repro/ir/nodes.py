"""Expression IR.

These nodes describe *values* in emitted kernels: literals known at
compile time, runtime variables, operator applications, and loads from
flat numpy buffers.  Looplets produce these expressions as their leaves,
and the rewriter simplifies them (zero annihilation, constant folding)
before any code is emitted.

A dense reset and a vectorized loop are numpy slice operations:
:class:`Slice` is the one *vector* leaf (its bounds are scalars), a
:class:`Call` over a vector is a vector (``vector`` is true on both),
and :class:`Reduce` folds a vector back to a scalar.

Expressions are immutable and structurally hashable, so they can be used
as dictionary keys (e.g. by the kernel cache).
"""

from repro.ir.ops import MISSING, Op, get_op
from repro.util.errors import ReproError


class Expr:
    """Base class for IR expressions."""

    #: ``_simple``: set by :func:`repro.rewrite.simplify_expr` on a
    #: normal form of the default rules (a cache, not part of the value).
    #: ``_range``: the closed ``(lo, hi)`` range of the value, kept by
    #: :func:`repro.rewrite.rules.value_range` (also a cache) or given
    #: to a :class:`Var`.
    __slots__ = ("_simple", "_range")

    #: Whether the value is a numpy vector (a slice, or a call over one).
    vector = False

    #: Whether the value is known to be an integer (a bool included), so
    #: never a NaN, an infinity or ``missing``: of a literal, its type;
    #: of a :class:`Var`, what the compiler declared; of a load, its
    #: buffer's.  A call's follows from its operator
    #: (:func:`repro.rewrite.rules.integer_valued`).
    integral = False

    def key(self):
        """A hashable structural identity for this expression."""
        raise NotImplementedError

    def children(self):
        """Child expressions, in order."""
        return ()

    def rebuild(self, children):
        """Reconstruct this node with new children."""
        raise NotImplementedError

    def __eq__(self, other):
        return isinstance(other, Expr) and self.key() == other.key()

    def __ne__(self, other):
        return not self.__eq__(other)

    def __hash__(self):
        return hash(self.key())

    def free_vars(self):
        """The set of runtime variable names this expression reads."""
        out = set()
        _collect_free_vars(self, out)
        return out


def _collect_free_vars(expr, out):
    if isinstance(expr, Var):
        out.add(expr.name)
    for child in expr.children():
        _collect_free_vars(child, out)


class Literal(Expr):
    """A compile-time constant (number, bool, or the ``missing`` value)."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def key(self):
        # Distinguish 1 from 1.0 from True: fold decisions depend on type.
        return ("lit", type(self.value).__name__, repr(self.value))

    def rebuild(self, children):
        return self

    def __repr__(self):
        return "Literal(%r)" % (self.value,)

    @property
    def integral(self):
        return type(self.value) in (int, bool)

    @property
    def is_missing(self):
        return self.value is MISSING


class Var(Expr):
    """A runtime variable in the emitted kernel (loop index, position...).

    ``bounds`` is a closed range ``(lo, hi)`` its value always lies in
    — of each element, for a buffer parameter — when the compiler knows
    one: a level's declared coordinate bounds, or the range of the one
    value a named temporary is assigned.  ``integral`` says its value
    (each element's, for a buffer) is an integer: a loop index, a
    position, an integer buffer, a temporary assigned an integer.
    Neither is part of the variable's identity."""

    __slots__ = ("name", "integral")

    def __init__(self, name, bounds=None, integral=False):
        self.name = name
        self.integral = integral
        if bounds is not None:
            self._range = bounds

    def key(self):
        return ("var", self.name)

    def rebuild(self, children):
        return self

    def __repr__(self):
        return "Var(%s)" % self.name


class Call(Expr):
    """Application of a registered operator to argument expressions.

    ``_renormalized`` is set on a call a smart constructor of
    :mod:`repro.ir.build` returned: building it again from its operands
    gives the same call, so :func:`repro.rewrite.rules.rule_renormalize`
    leaves it (a cache, like ``_simple``)."""

    __slots__ = ("op", "args", "vector", "_renormalized")

    def __init__(self, op, args):
        if isinstance(op, str):
            op = get_op(op)
        if not isinstance(op, Op):
            raise ReproError("Call op must be an Op, got %r" % (op,))
        self.op = op
        self.args = tuple(as_expr(a) for a in args)
        self.vector = any(a.vector for a in self.args)

    def key(self):
        return ("call", self.op.name) + tuple(a.key() for a in self.args)

    def children(self):
        return self.args

    def rebuild(self, children):
        return Call(self.op, tuple(children))

    def __repr__(self):
        return "Call(%s, %s)" % (self.op.name, list(self.args))


class Load(Expr):
    """A read of ``buffer[index]`` where buffer is a flat numpy array."""

    __slots__ = ("buffer", "index")

    def __init__(self, buffer, index):
        if isinstance(buffer, str):
            buffer = Var(buffer)
        self.buffer = buffer
        self.index = as_expr(index)

    def key(self):
        return ("load", self.buffer.key(), self.index.key())

    def children(self):
        return (self.buffer, self.index)

    def rebuild(self, children):
        buffer, index = children
        return Load(buffer, index)

    def __repr__(self):
        return "Load(%s, %r)" % (self.buffer.name, self.index)

    @property
    def integral(self):
        return self.buffer.integral


class Slice(Expr):
    """The vector ``buffer[start:stop:step]``; ``step`` is a positive
    Python int, the bounds are scalar expressions.  As an assignment
    target it stores to every element of the range."""

    __slots__ = ("buffer", "start", "stop", "step")
    vector = True

    def __init__(self, buffer, start, stop, step=1):
        self.buffer = as_expr(buffer)
        self.start = as_expr(start)
        self.stop = as_expr(stop)
        self.step = step

    def key(self):
        return ("slice", self.buffer.key(), self.start.key(),
                self.stop.key(), self.step)

    def children(self):
        return (self.buffer, self.start, self.stop)

    def rebuild(self, children):
        return Slice(*children, step=self.step)

    def __repr__(self):
        return "Slice(%s, %r, %r, %d)" % (self.buffer.name, self.start,
                                          self.stop, self.step)


class Reduce(Expr):
    """The scalar ``op`` folds the vector ``operand`` to (numpy's
    ``op.numpy_reduce``; a sum of products prints as ``_np.dot``)."""

    __slots__ = ("op", "operand")

    def __init__(self, op, operand):
        if op.numpy_reduce is None or not operand.vector:
            raise ReproError("cannot reduce %r with %r" % (operand, op))
        self.op = op
        self.operand = operand

    def key(self):
        return ("reduce", self.op.name, self.operand.key())

    def children(self):
        return (self.operand,)

    def rebuild(self, children):
        return Reduce(self.op, children[0])

    def __repr__(self):
        return "Reduce(%s, %r)" % (self.op.name, self.operand)


def as_expr(value):
    """Coerce a Python value into an IR expression."""
    if isinstance(value, Expr):
        return value
    if value is MISSING or isinstance(value, (bool, int, float)):
        return Literal(value)
    if isinstance(value, str):
        return Var(value)
    # numpy scalars quack like Python numbers; normalize them.
    if hasattr(value, "item"):
        return Literal(value.item())
    raise ReproError("cannot convert %r to an IR expression" % (value,))


def replace_in_expr(expr, fn):
    """Preorder expression replacement: ``fn`` returning non-None stops
    descent at that node; an unchanged node is returned as it is."""
    replacement = fn(expr)
    if replacement is not None:
        return replacement
    children = expr.children()
    if not children:
        return expr
    new_children = [replace_in_expr(child, fn) for child in children]
    if all(new is old for new, old in zip(new_children, children)):
        return expr
    return expr.rebuild(new_children)


def substitute(expr, mapping):
    """Replace variables by expressions.

    ``mapping`` maps variable *names* to replacement expressions.
    """
    return replace_in_expr(expr, lambda node: as_expr(mapping[node.name])
                           if isinstance(node, Var) and node.name in mapping
                           else None)


class Extent:
    """A half-open index range ``[start, stop)`` with symbolic bounds."""

    __slots__ = ("start", "stop")

    def __init__(self, start, stop):
        self.start = as_expr(start)
        self.stop = as_expr(stop)

    def key(self):
        return ("extent", self.start.key(), self.stop.key())

    def __eq__(self, other):
        return isinstance(other, Extent) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return "Extent(%r, %r)" % (self.start, self.stop)

    def static_length(self):
        """The number of iterations if statically known, else ``None``."""
        if isinstance(self.start, Literal) and isinstance(self.stop, Literal):
            return max(0, self.stop.value - self.start.value)
        # A common dynamic-but-unit shape: [x, x + 1).
        stop = self.stop
        if (isinstance(stop, Call) and stop.op.name == "add"
                and len(stop.args) == 2
                and stop.args[0] == self.start
                and stop.args[1] == Literal(1)):
            return 1
        if self.start == self.stop:
            return 0
        return None
