"""Tests derived from the operator registry: one declaration, three
consumers.

Every case below is generated from ``repro.ir.ops.all_ops()`` — none
names an operator — so a newly registered op is covered the moment it
declares a form (docs/ARCHITECTURE.md, "Adding an operator"):

* an op that declares a C lowering (``Op.c``) compiles natively and is
  bit-identical to the python backend's scalar kernel
  (``opt_level=0``) on int64 and float64 operands (the stencil_code idiom: one ``backend="c"`` vs ``backend="python"``
  check per kernel, exact ``==``);
* an op that declares a numpy form (``Op.numpy`` / ``Op.numpy_reduce``)
  vectorises at ``opt_level=2`` and agrees with the scalar loop;
* an op that declares neither falls back / stays scalar, with its
  reason;
* an op that declares a python form (``Op.python``) prints as it,
  computes the very object ``op.fn`` returns, and evaluates each
  operand at most once;
* a toy op registered *here* with a full declaration gets python, numpy
  and C with no edit to ``c_emit.py`` or ``optimize.py``.
"""

import inspect
import itertools
import math

import numpy as np
import pytest

import repro.lang as fl
from repro import codegen
from repro.codegen.c_emit import CUnsupportedError, emit_c
from repro.ir import asm, ops
from repro.ir.emit import emit
from repro.ir.nodes import Call, Literal, Load, Var
from repro.ir.optimize import vectorize
from repro.ir.pretty import expr_source
from repro.ir.runtime import kernel_globals

needs_cc = pytest.mark.skipif(
    not codegen.have_toolchain(), reason="no C compiler on PATH")

OPS = sorted(ops.all_ops().items())
#: Integer-valued operand columns, negatives and zeros included.
COLUMNS = (np.array([3, -2, 0, 5, -7, 1, 4, -9, 6, 2, -1, 8]),
           np.array([2, 3, -4, 0, 2, -1, 4, 3, -5, 7, 0, -6]),
           np.array([1, 0, 2, -3, 0, 5, -1, 0, 7, -2, 4, 0]))


def _variadic(op):
    params = inspect.signature(op.fn).parameters.values()
    return any(p.kind is p.VAR_POSITIONAL for p in params)


def _arity(op):
    """How many operands to call ``op`` with (variadic ops: two)."""
    if _variadic(op):
        return 2
    return len(inspect.signature(op.fn).parameters)


def _select(predicate):
    pairs = [(name, op) for name, op in OPS if predicate(op)]
    return pytest.mark.parametrize("op", [op for _, op in pairs],
                                   ids=[name for name, _ in pairs])


def _in_domain(op, dtype):
    """``COLUMNS`` cast to ``dtype``, cut down to the rows ``op`` is
    defined on (no zero divisors, no negative roots)."""
    columns = [col.astype(dtype) for col in COLUMNS[:_arity(op)]]
    keep = []
    for row in range(len(COLUMNS[0])):
        try:
            op.fn(*[col[row].item() for col in columns])
        except (ArithmeticError, ValueError):
            continue
        keep.append(row)
    assert len(keep) >= 4, "operand grid leaves too few rows"
    return [col[keep] for col in columns]


def _reduce_kernel(op, columns, **opts):
    """``C[] += op(A[i], B[i], ...)`` over dense vectors; returns the
    kernel (already run) and the scalar."""
    tensors = [fl.from_numpy(col, ("dense",), name=name)
               for col, name in zip(columns, "ABD")]
    C = fl.Scalar(name="C")
    i = fl.indices("i")
    prog = fl.forall(i, fl.increment(
        C[()], fl.call(op, *[t[i] for t in tensors])))
    kernel = fl.compile_kernel(prog, cache=False, **opts)
    kernel.run()
    return kernel, C.value


def _map_kernel(op, columns, level):
    """``C[i] = op(A[i], B[i], ...)``; returns (kernel, output)."""
    tensors = [fl.from_numpy(col, ("dense",), name=name)
               for col, name in zip(columns, "ABD")]
    C = fl.zeros((len(columns[0]),), name="C")
    i = fl.indices("i")
    prog = fl.forall(i, fl.store(
        C[i], fl.call(op, *[t[i] for t in tensors])))
    kernel = fl.compile_kernel(prog, cache=False, opt_level=level)
    kernel.run()
    return kernel, C.to_numpy()


def _scalar_operands(op):
    """Whether ``op`` applies to scalar values (the search ops take an
    index buffer and are reached through the formats instead)."""
    return _arity(op) <= 3


def _c_body(kernel):
    return kernel.c_source.split("FL_EXPORT int64_t", 1)[1]


# ------------------------------------------------------------------ C
@needs_cc
class TestDeclaredCLowering:
    @_select(lambda op: op.c is not None and _scalar_operands(op))
    @pytest.mark.parametrize("dtype", [np.int64, np.float64],
                             ids=["int64", "float64"])
    def test_native_and_bit_identical(self, op, dtype):
        if op.c[0] == "logical":
            # Python's and/or return an operand, C's 0/1: only bool
            # operands are translated (the fallback is the next test).
            dtype = np.bool_
        columns = _in_domain(op, dtype)
        _, expected = _reduce_kernel(op, columns, opt_level=0)
        kernel, got = _reduce_kernel(op, columns, backend="c")
        assert kernel.effective_backend == "c"
        assert got == expected

    @_select(lambda op: op.c is not None and op.c[0] == "logical")
    def test_logical_ops_refuse_non_bool_operands(self, op):
        columns = _in_domain(op, np.int64)
        _, expected = _reduce_kernel(op, columns)
        codegen.clear_fallback_events()
        kernel, got = _reduce_kernel(op, columns, backend="c")
        assert kernel.effective_backend == "python"
        (_, reason), = codegen.fallback_events()
        assert reason.startswith("non-boolean operand to %r" % op.name)
        assert got == expected

    @_select(lambda op: op.c is not None and not _scalar_operands(op))
    def test_buffer_taking_ops_are_reached_through_a_format(self, op):
        rng = np.random.default_rng(5)
        a = np.zeros(48)
        a[rng.choice(48, 9, replace=False)] = rng.integers(1, 9, 9)
        a[20:26] = 4.0
        b = np.zeros(48)
        b[rng.choice(48, 12, replace=False)] = rng.integers(1, 9, 12)
        bodies = []
        for fmt, proto in (("sparse", fl.gallop), ("packbits", fl.walk)):
            results = []
            for backend in ("python", "c"):
                A = fl.from_numpy(a, (fmt,), name="A")
                B = fl.from_numpy(b, ("sparse",), name="B")
                C = fl.Scalar(name="C")
                i = fl.indices("i")
                kernel = fl.compile_kernel(
                    fl.forall(i, fl.increment(C[()],
                                              A[proto(i)] * B[i])),
                    cache=False, backend=backend)
                kernel.run()
                results.append(C.value)
            assert kernel.effective_backend == "c"
            assert results[0] == results[1] == float(a @ b)
            bodies.append(_c_body(kernel))
        assert any(op.c[1] + "(" in body for body in bodies)


class TestNoCLowering:
    @_select(lambda op: op.c is None)
    def test_falls_back_with_its_reason(self, op):
        args = [Load(name, Literal(0)) for name in "xyz"[:_arity(op)]]
        func = asm.FuncDef("kernel", ("out", "x", "y", "z"), asm.Block([
            asm.AssignStmt(Load("out", Literal(0)), Call(op, args))]))
        with pytest.raises(CUnsupportedError) as caught:
            emit_c(func, dict.fromkeys(("out", "x", "y", "z"), "float64"))
        assert str(caught.value) \
            == "operator %r has no C lowering" % op.name


# -------------------------------------------------------------- numpy
class TestDeclaredNumpyForm:
    @_select(lambda op: op.numpy is not None)
    def test_elementwise_map_vectorises(self, op):
        columns = _in_domain(op, np.float64)
        scalar, expected = _map_kernel(op, columns, level=0)
        vector, got = _map_kernel(op, columns, level=2)
        assert "for i in range" in scalar.source
        assert "for i in range" not in vector.source
        if op.numpy[0] != "infix":
            assert op.numpy[1].split("(")[0] in vector.source
        assert np.array_equal(got, expected)

    @_select(lambda op: op.numpy_reduce is not None)
    def test_accumulation_vectorises_to_the_reduction(self, op):
        column = np.array([2.0, 1.0, 3.0, 1.0, 2.0, 1.0, 2.0, 3.0])
        values = []
        for level in (0, 2):
            A = fl.from_numpy(column, ("dense",), name="A")
            C = fl.Scalar(2.0, name="C")
            i = fl.indices("i")
            kernel = fl.compile_kernel(
                fl.forall(i, fl.reduce_into(C[()], op, A[i])),
                cache=False, opt_level=level)
            kernel.run()
            values.append(C.value)
        assert op.numpy_reduce in kernel.source
        assert values[0] == values[1]


class TestNoNumpyForm:
    @_select(lambda op: op.numpy is None)
    def test_calling_loop_stays_scalar(self, op):
        args = [Load(name, Var("i")) for name in "xyzw"[:_arity(op)]]
        loop = asm.ForLoop("i", Literal(0), Literal(8), asm.AssignStmt(
            Load("out", Var("i")), Call(op, args)))
        assert "for i in range(0, 8):" in emit(vectorize(loop))

    @_select(lambda op: op.numpy_reduce is None)
    def test_accumulating_loop_stays_scalar(self, op):
        loop = asm.ForLoop("i", Literal(0), Literal(8), asm.AccumStmt(
            Var("acc"), op, Load("x", Var("i"))))
        assert "for i in range(0, 8):" in emit(vectorize(loop))


# ------------------------------------------------------------- python
#: Operands a python form must treat exactly as ``op.fn`` does: NaN,
#: signed zeros, infinities, int/float mixes, Python and numpy scalars,
#: and ``None`` (``missing``).
PY_VALUES = (math.nan, 0.0, -0.0, math.inf, -math.inf, 1, -1, 2.5, True,
             np.float64(math.nan), np.float64(-0.0), np.float64(1.0),
             np.int64(1), np.int64(-2), np.bool_(False), None)


def _trees(op):
    """Call trees over the leaves 0, 1, 2: a flat call, the call nested
    in each operand position, and a three-operand call of a variadic
    op.  A tuple is a call of ``op``, an int a leaf."""
    n = _arity(op)
    flat = tuple(range(n))
    trees = [flat] + [
        flat[:p] + (tuple((p + k) % 3 for k in range(n)),) + flat[p + 1:]
        for p in range(n)]
    if _variadic(op):
        trees.append((0, 1, 2))
    return trees


def _ir(op, tree, leaf):
    if isinstance(tree, int):
        return leaf(tree)
    return Call(op, [_ir(op, sub, leaf) for sub in tree])


def _fold(op, tree, values):
    if isinstance(tree, int):
        return values[tree]
    result = op.fn(*[_fold(op, sub, values) for sub in tree])
    return None if result is ops.MISSING else result


def _compiled(source):
    """``source`` as the body of a kernel over ``a0 a1 a2 b0 b1 b2``."""
    namespace = kernel_globals()
    exec("def f(a0, a1, a2, b0, b1, b2):\n    return %s\n" % source,
         namespace)
    return namespace["f"]


def _numbered(tree, counter=None):
    """``tree`` with its leaves renumbered in order of occurrence."""
    counter = counter if counter is not None else itertools.count()
    if isinstance(tree, int):
        return next(counter)
    return tuple(_numbered(sub, counter) for sub in tree)


def _leaves(tree):
    return 1 if isinstance(tree, int) else sum(map(_leaves, tree))


def _counting(op, tree, temp_op):
    """``(evaluated, fn)``: ``fn()`` computes ``tree`` over operands
    that are each a call of a counting op.  ``evaluated[0]`` holds the
    leaf values; every evaluation appends its leaf's index."""
    evaluated = []

    def operand(index):
        evaluated.append(index)
        return evaluated[0][index]

    counted = temp_op(ops.Op("counted_operand", operand))

    def leaf(index):
        return Call(counted, [Literal(index)])

    return evaluated, _compiled(expr_source(_ir(op, tree, leaf)))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as error:  # noqa: BLE001 - the type is compared
        return type(error)


def _var(index):
    """A leaf that is a variable: printed as itself."""
    return Var("a%d" % index)


def _load(index):
    """A leaf that is computed: bound to a temp where first used."""
    return Load("b%d" % index, Literal(0))


class TestDeclaredPythonForm:
    @_select(lambda op: op.python is not None)
    def test_prints_its_form_and_binds_no_name(self, op):
        source = expr_source(_ir(op, tuple(range(_arity(op))), _var))
        assert "%s(" % op.runtime_name not in source
        assert op.runtime_name not in kernel_globals()

    @_select(lambda op: op.python is not None)
    def test_computes_the_object_fn_returns(self, op):
        for tree in _trees(op):
            for kinds in ((_var,) * 3, (_load,) * 3, (_var, _load, _var),
                          (_load, _var, _load)):
                expr = _ir(op, tree, lambda i: kinds[i](i))
                fn = _compiled(expr_source(expr))
                for values in itertools.product(PY_VALUES, repeat=3):
                    want = _outcome(_fold, op, tree, values)
                    got = _outcome(fn, *values, *[[v] for v in values])
                    # The very object (the same operand chosen, so the
                    # same type and bits), or the same error.
                    assert got is want, (tree, values, got, want)

    @_select(lambda op: op.python is not None)
    def test_evaluates_each_operand_at_most_once(self, op, temp_op):
        for tree in _trees(op):
            tree = _numbered(tree)
            evaluated, fn = _counting(op, tree, temp_op)
            for values in itertools.product(
                    (None, math.nan, -0.0, 1, True), repeat=_leaves(tree)):
                evaluated[:] = [values]
                got = _outcome(fn, *[None] * 6)
                indices = evaluated[1:]
                assert len(indices) == len(set(indices)), (tree, values)
                assert got is _outcome(_fold, op, tree, values)
                if op.python[0] == "select" and not isinstance(got, type):
                    assert sorted(indices) == list(range(len(values)))

    @_select(lambda op: op.python is not None
             and op.python[0] == "first_not_none")
    def test_coalesce_stops_at_the_first_value(self, op, temp_op):
        evaluated, fn = _counting(op, (0, 1, 2), temp_op)
        for values in itertools.product((None, 0.0, math.nan), repeat=3):
            evaluated[:] = [values]
            assert fn(*[None] * 6) is _fold(op, (0, 1, 2), values)
            present = [value is not None for value in values]
            taken = present.index(True) + 1 if any(present) else 3
            assert evaluated[1:] == list(range(taken))


# ---------------------------------------------------------------- toy
@pytest.fixture
def toy_op(temp_op):
    """A user operator with a full declaration — and nothing else: no
    consumer is edited for it."""
    return temp_op(ops.Op(
        "toy_copysign", math.copysign, total=True,
        numpy=("pairwise", "_np.copysign"),
        c=("helper", "copysign")))


class TestToyOperator:
    @pytest.mark.parametrize("dtype", [np.int64, np.float64],
                             ids=["int64", "float64"])
    def test_python_and_numpy(self, toy_op, dtype):
        columns = [col.astype(dtype) for col in COLUMNS[:2]]
        expected = np.array([math.copysign(a, b)
                             for a, b in zip(*columns)])
        scalar, at_zero = _map_kernel(toy_op, columns, level=0)
        vector, at_two = _map_kernel(toy_op, columns, level=2)
        assert "toy_copysign(val[i], val_2[i])" in scalar.source
        assert "_np.copysign(val[0:12], val_2[0:12])" in vector.source
        assert np.array_equal(at_zero, expected)
        assert np.array_equal(at_two, expected)

    @needs_cc
    @pytest.mark.parametrize("dtype", [np.int64, np.float64],
                             ids=["int64", "float64"])
    def test_goes_native(self, toy_op, dtype):
        columns = [col.astype(dtype) for col in COLUMNS[:2]]
        _, expected = _reduce_kernel(toy_op, columns, opt_level=0)
        kernel, got = _reduce_kernel(toy_op, columns, backend="c")
        assert kernel.effective_backend == "c"
        assert "copysign(val[i], val_2[i])" in _c_body(kernel)
        assert got == expected \
            == sum(math.copysign(a, b) for a, b in zip(*columns))
