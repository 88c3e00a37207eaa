"""Tests derived from the operator registry: one declaration, three
consumers.

Every case below is generated from ``repro.ir.ops.all_ops()`` — none
names an operator — so a newly registered op is covered the moment it
declares a form (docs/ARCHITECTURE.md, "Adding an operator"):

* an op that declares a C lowering (``Op.c``) compiles natively and is
  bit-identical to the python backend on int64 and float64 operands
  (the stencil_code idiom: one ``backend="c"`` vs ``backend="python"``
  check per kernel, exact ``==``);
* an op that declares a numpy form (``Op.numpy`` / ``Op.numpy_reduce``)
  vectorises at ``opt_level=2`` and agrees with the scalar loop;
* an op that declares neither falls back / stays scalar, with its
  reason;
* a toy op registered *here* with a full declaration gets python, numpy
  and C with no edit to ``c_emit.py`` or ``optimize.py``.
"""

import inspect
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

needs_cc = pytest.mark.skipif(
    not codegen.have_toolchain(), reason="no C compiler on PATH")

OPS = sorted(ops.all_ops().items())
#: Integer-valued operand columns, negatives and zeros included.
COLUMNS = (np.array([3, -2, 0, 5, -7, 1, 4, -9, 6, 2, -1, 8]),
           np.array([2, 3, -4, 0, 2, -1, 4, 3, -5, 7, 0, -6]),
           np.array([1, 0, 2, -3, 0, 5, -1, 0, 7, -2, 4, 0]))


def _arity(op):
    """How many operands to call ``op`` with (variadic ops: two)."""
    params = inspect.signature(op.fn).parameters.values()
    if any(p.kind is p.VAR_POSITIONAL for p in params):
        return 2
    return len(params)


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
        _, expected = _reduce_kernel(op, columns, opt_level=1)
        kernel, got = _reduce_kernel(op, columns, opt_level=1,
                                     backend="c")
        assert kernel.effective_backend == "c"
        assert got == expected

    @_select(lambda op: op.c is not None and op.c[0] == "logical")
    def test_logical_ops_refuse_non_bool_operands(self, op):
        columns = _in_domain(op, np.int64)
        _, expected = _reduce_kernel(op, columns, opt_level=1)
        codegen.clear_fallback_events()
        kernel, got = _reduce_kernel(op, columns, opt_level=1,
                                     backend="c")
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
                    cache=False, opt_level=1, backend=backend)
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
        scalar, expected = _map_kernel(op, columns, level=1)
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
        for level in (1, 2):
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


# ---------------------------------------------------------------- toy
@pytest.fixture
def toy_op(temp_op):
    """A user operator with a full declaration — and nothing else: no
    consumer is edited for it."""
    return temp_op(ops.Op(
        "toy_copysign", math.copysign, total=True,
        numpy=("pairwise", "_np.copysign"),
        c=("helper", "copysign"), c_type="f64"))


class TestToyOperator:
    @pytest.mark.parametrize("dtype", [np.int64, np.float64],
                             ids=["int64", "float64"])
    def test_python_and_numpy(self, toy_op, dtype):
        columns = [col.astype(dtype) for col in COLUMNS[:2]]
        expected = np.array([math.copysign(a, b)
                             for a, b in zip(*columns)])
        scalar, at_one = _map_kernel(toy_op, columns, level=1)
        vector, at_two = _map_kernel(toy_op, columns, level=2)
        assert "toy_copysign(val[i], val_2[i])" in scalar.source
        assert "_np.copysign(val[0:12], val_2[0:12])" in vector.source
        assert np.array_equal(at_one, expected)
        assert np.array_equal(at_two, expected)

    @needs_cc
    @pytest.mark.parametrize("dtype", [np.int64, np.float64],
                             ids=["int64", "float64"])
    def test_goes_native(self, toy_op, dtype):
        columns = [col.astype(dtype) for col in COLUMNS[:2]]
        _, expected = _reduce_kernel(toy_op, columns, opt_level=1)
        kernel, got = _reduce_kernel(toy_op, columns, opt_level=1,
                                     backend="c")
        assert kernel.effective_backend == "c"
        assert "copysign(val[i], val_2[i])" in _c_body(kernel)
        assert got == expected \
            == sum(math.copysign(a, b) for a, b in zip(*columns))
