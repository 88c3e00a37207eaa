"""Edge cases of the progressive lowerer.

Unit/integration coverage for corners the main suites don't hit:
statements other than assignments inside structured loops, empty
fibers, single-element extents, nested wheres, and the assembly-level
walking utilities.
"""

import numpy as np
import pytest

import repro.lang as fl
from repro.ir import Literal, Var, asm, ops
from repro.ir.asm import statement_exprs, walk_statements


class TestStructuredControlFlow:
    def test_sieve_inside_sparse_loop(self):
        vec = np.zeros(30)
        vec[[3, 7, 20]] = [1.0, 2.0, 3.0]
        A = fl.from_numpy(vec, ("sparse",), name="A")
        C = fl.Scalar(name="C")
        i = fl.indices("i")
        # Only count nonzeros at even coordinates.
        prog = fl.forall(i, fl.sieve(
            fl.eq(fl.call(fl.ops.MOD, i, 2), 0),
            fl.increment(C[()], A[i])))
        fl.execute(prog)
        assert C.value == pytest.approx(3.0)  # only index 20 is even

    def test_multi_inside_sparse_loop(self):
        vec = np.zeros(20)
        vec[[2, 9]] = [4.0, 6.0]
        A = fl.from_numpy(vec, ("sparse",), name="A")
        total = fl.Scalar(name="total")
        count = fl.Scalar(name="count")
        i = fl.indices("i")
        prog = fl.forall(i, fl.multi(
            fl.increment(total[()], A[i]),
            fl.increment(count[()], fl.call(
                fl.ops.IFELSE, fl.ne(A[i], 0.0), 1.0, 0.0))))
        fl.execute(prog)
        assert total.value == pytest.approx(10.0)
        assert count.value == pytest.approx(2.0)

    def test_nested_where(self):
        mat = np.arange(12.0).reshape(3, 4)
        A = fl.from_numpy(mat, ("dense", "dense"), name="A")
        out = fl.zeros(3, name="out")
        row_sum = fl.Scalar(name="row_sum")
        i, j = fl.indices("i", "j")
        inner = fl.forall(j, fl.increment(row_sum[()], A[i, j]))
        prog = fl.forall(i, fl.where(
            fl.store(out[i], row_sum[()] * 2.0), inner))
        fl.execute(prog)
        np.testing.assert_allclose(out.to_numpy(), mat.sum(axis=1) * 2)

    def test_where_producer_with_sparse_inputs(self):
        vec = np.zeros(15)
        vec[[1, 8]] = [2.0, 5.0]
        A = fl.from_numpy(vec, ("sparse",), name="A")
        result = fl.zeros(1, name="result")
        temp = fl.Scalar(name="temp")
        i, k = fl.indices("i", "k")
        inner = fl.forall(i, fl.increment(temp[()], A[i] * A[i]))
        prog = fl.forall(k, fl.where(
            fl.store(result[k], fl.call(fl.ops.SQRT, temp[()])), inner),
            ext=(0, 1))
        fl.execute(prog)
        assert result.to_numpy()[0] == pytest.approx(
            np.sqrt((vec ** 2).sum()))


class TestDegenerateExtents:
    def test_length_one_dimension(self):
        A = fl.from_numpy(np.array([5.0]), ("sparse",), name="A")
        C = fl.Scalar(name="C")
        i = fl.indices("i")
        fl.execute(fl.forall(i, fl.increment(C[()], A[i])))
        assert C.value == 5.0

    def test_zero_length_dimension(self):
        A = fl.from_numpy(np.zeros(0), ("dense",), name="A")
        C = fl.Scalar(name="C")
        i = fl.indices("i")
        fl.execute(fl.forall(i, fl.increment(C[()], A[i])))
        assert C.value == 0.0

    def test_statically_empty_explicit_extent_emits_nothing(self):
        A = fl.from_numpy(np.ones(5), ("dense",), name="A")
        C = fl.Scalar(name="C")
        i = fl.indices("i")
        kernel = fl.compile_kernel(
            fl.forall(i, fl.increment(C[()], A[i]), ext=(3, 3)))
        assert "for" not in kernel.source
        kernel.run()
        assert C.value == 0.0

    def test_all_empty_fibers_matrix(self):
        mat = np.zeros((4, 6))
        A = fl.from_numpy(mat, ("dense", "sparse"), name="A")
        B = fl.from_numpy(mat, ("dense", "vbl"), name="B")
        C = fl.Scalar(name="C")
        i, j = fl.indices("i", "j")
        fl.execute(fl.forall(i, fl.forall(j, fl.increment(
            C[()], A[i, j] * B[i, j]))))
        assert C.value == 0.0

    def test_single_stored_element(self):
        vec = np.zeros(100)
        vec[99] = 7.0  # at the very end of the dimension
        A = fl.from_numpy(vec, ("sparse",), name="A")
        C = fl.Scalar(name="C")
        i = fl.indices("i")
        fl.execute(fl.forall(i, fl.increment(C[()], A[i])))
        assert C.value == 7.0

    def test_first_element_stored(self):
        vec = np.zeros(50)
        vec[0] = 3.0
        A = fl.from_numpy(vec, ("sparse",), name="A")
        C = fl.Scalar(name="C")
        i = fl.indices("i")
        fl.execute(fl.forall(i, fl.increment(C[()], A[i])))
        assert C.value == 3.0


class TestOverwriteSemantics:
    def test_later_iterations_win(self):
        A = fl.from_numpy(np.array([1.0, 2.0, 3.0]), ("dense",),
                          name="A")
        C = fl.Scalar(name="C")
        i = fl.indices("i")
        fl.execute(fl.forall(i, fl.store(C[()], A[i])))
        assert C.value == 3.0

    def test_constant_overwrite_collapses_loop(self):
        C = fl.Scalar(name="C")
        i = fl.indices("i")
        kernel = fl.compile_kernel(
            fl.forall(i, fl.store(C[()], fl.literal(9.0)), ext=(0, 1000)))
        assert "for" not in kernel.source
        kernel.run()
        assert C.value == 9.0

    def test_min_reduction_collapses_loop(self):
        m = fl.Scalar(name="m")
        i = fl.indices("i")
        kernel = fl.compile_kernel(fl.forall(
            i, fl.reduce_into(m[()], fl.ops.MIN, fl.literal(-2.0)),
            ext=(0, 500)))
        assert "for" not in kernel.source
        kernel.run()
        assert m.value == -2.0


class TestAsmUtilities:
    def test_walk_statements_covers_nesting(self):
        inner = asm.AssignStmt(Var("x"), Literal(1))
        loop = asm.ForLoop("i", 0, 3, inner)
        branch = asm.If([(Var("c"), loop)])
        kinds = [type(s).__name__ for s in walk_statements(branch)]
        # If bodies are Blocks; the loop body is a Block too.
        assert kinds == ["If", "Block", "ForLoop", "Block", "AssignStmt"]

    def test_statement_exprs(self):
        stmt = asm.AccumStmt(Var("acc"), ops.ADD, Var("v"))
        exprs = list(statement_exprs(stmt))
        assert Var("acc") in exprs and Var("v") in exprs

    def test_loop_bounds_are_exprs(self):
        loop = asm.ForLoop("i", Var("a"), Var("b"), asm.Block([]))
        exprs = list(statement_exprs(loop))
        assert exprs == [Var("a"), Var("b")]


class TestPipelineClipping:
    """Phase strides beyond the target stop or before its start must
    clip correctly (the min/max arithmetic of the pipeline pass)."""

    def _pipe_tensor(self, n, stride_value):
        from repro.formats.custom import LoopletTensor
        from repro.looplets import Phase, Pipeline, Run

        return LoopletTensor(n, lambda ctx, pos: Pipeline([
            Phase(Run(Literal(1.0)), stride=Literal(stride_value)),
            Phase(Run(Literal(10.0))),
        ]), name="P")

    def test_stride_beyond_stop(self):
        A = self._pipe_tensor(8, 100)
        C = fl.Scalar(name="C")
        i = fl.indices("i")
        fl.execute(fl.forall(i, fl.increment(C[()], A[i])))
        assert C.value == 8.0  # whole extent in phase one

    def test_stride_zero(self):
        A = self._pipe_tensor(8, 0)
        C = fl.Scalar(name="C")
        i = fl.indices("i")
        fl.execute(fl.forall(i, fl.increment(C[()], A[i])))
        assert C.value == 80.0  # whole extent in phase two

    def test_stride_interior(self):
        A = self._pipe_tensor(8, 3)
        C = fl.Scalar(name="C")
        i = fl.indices("i")
        fl.execute(fl.forall(i, fl.increment(C[()], A[i])))
        assert C.value == 3 * 1.0 + 5 * 10.0

    def test_two_pipelines_with_crossing_strides(self):
        A = self._pipe_tensor(10, 7)
        B = self._pipe_tensor(10, 3)
        C = fl.Scalar(name="C")
        i = fl.indices("i")
        fl.execute(fl.forall(i, fl.increment(C[()], A[i] * B[i])))
        # [0,3): 1*1, [3,7): 1*10, [7,10): 10*10
        assert C.value == 3 * 1 + 4 * 10 + 3 * 100


class TestNegativeLiterals:
    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_negative_base_of_a_power(self, level):
        # ``-2.0 ** x`` parses as ``-(2.0 ** x)``: the literal must print
        # parenthesized for the kernel to agree with the interpreter.
        from repro.baselines.reference import interpret

        x = fl.from_numpy(np.array([2.0, 3.0, 4.0]), ("dense",), name="x")
        y = fl.zeros((3,), name="y")
        i = fl.indices("i")
        prog = fl.forall(i, fl.store(y[i], fl.call(fl.ops.POW, -2.0, x[i])))
        want = np.asarray(interpret(prog).result_for(y))
        kernel = fl.compile_kernel(prog, cache=False, opt_level=level)
        kernel.run()
        assert y.to_numpy().tolist() == want.tolist() == [4.0, -8.0, 16.0]
        assert "(-2.0) ** " in kernel.source
