"""Unit and golden tests for the target-IR optimizer passes.

The unit tests drive each pass over hand-built asm trees; the golden
tests compile real CIN programs and assert the pass actually fired on
the emitted source (LICM on the paper's SpMSpV kernel, numpy
vectorization on dense loops), and that each of the two passes
changes at least one paper figure's kernel.
"""

import re

import numpy as np
import pytest

import repro.lang as fl
from repro import codegen
from repro.bench.kernels import spmspv_program
from repro.ir import asm, build, ops, optimize
from repro.ir.emit import emit
from repro.ir.nodes import Call, Literal, Load, Reduce, Slice, Var
from repro.ir.optimize import (
    can_raise,
    entry_exprs,
    hoist_invariants,
    linear_parts,
    vectorize,
)
from repro.rewrite import DEFAULT_EXPR_RULES, simplify_expr

#: The passes of ``opt_level=2``, in the order the compiler runs them.
STEPS = (hoist_invariants, vectorize)


def optimized(func, steps=STEPS):
    """``func`` through ``steps`` (the python source's whole pipeline)."""
    for step in steps:
        func = step(func)
    return func


def func_of(*stmts, params=("buf",), returns=()):
    return asm.FuncDef("kernel", params, asm.Block(stmts),
                       returns=returns)


def sink(value):
    """A structured stand-in for "some effectful statement": a store
    of ``value`` to the ``sink`` buffer (always live, touches no
    scalar)."""
    return asm.AssignStmt(Load("sink", Literal(0)), value)


class TestHoistInvariants:
    def test_invariant_load_hoists_with_guard(self):
        loop = asm.ForLoop(
            "i", Var("a"), Var("b"),
            asm.AccumStmt("acc", ops.ADD,
                          build.times(Load("w", Literal(0)),
                                      Load("x", Var("i")))))
        result = hoist_invariants(func_of(loop,
                                          params=("a", "b", "w", "x")))
        source = emit(result)
        # The w[0] load hoists, guarded by the loop entry condition
        # (it may be out of bounds when the loop never runs).
        assert "if a < b:" in source
        lines = source.splitlines()
        hoist_line = next(line for line in lines if "= w[0]" in line)
        loop_line = next(line for line in lines if "for i" in line)
        assert lines.index(hoist_line) < lines.index(loop_line)
        assert "w[0]" not in loop_line and source.count("w[0]") == 1

    def test_static_bounds_need_no_guard(self):
        loop = asm.ForLoop(
            "i", Literal(0), Literal(8),
            asm.AccumStmt("acc", ops.ADD,
                          build.times(Load("w", Literal(0)),
                                      Load("x", Var("i")))))
        source = emit(hoist_invariants(func_of(loop, params=("w", "x"))))
        assert "if" not in source
        assert "= w[0]" in source

    def test_mutated_inputs_do_not_hoist(self):
        body = asm.Block([
            asm.AccumStmt("acc", ops.ADD, Load("x", Var("q"))),
            asm.AccumStmt("q", ops.ADD, Literal(1)),
        ])
        loop = asm.WhileLoop(build.lt(Var("q"), Var("n")), body)
        source = emit(hoist_invariants(func_of(loop, params=("x", "n"))))
        # x[q] depends on the mutated cursor: it must stay in the loop.
        assert "x[q]" in source
        while_at = source.index("while")
        assert source.index("x[q]") > while_at

    def test_conditionally_evaluated_load_stays_put(self):
        body = asm.If([(build.lt(Var("i"), Var("k")),
                        asm.AccumStmt("acc", ops.ADD,
                                      Load("w", Literal(0))))])
        loop = asm.ForLoop("i", Var("a"), Var("b"), body)
        source = emit(hoist_invariants(
            func_of(loop, params=("a", "b", "k", "w"))))
        # w[0] only runs when i < k: hoisting would speculate the load.
        lines = source.splitlines()
        load_line = next(line for line in lines if "w[0]" in line)
        assert "if i < k" in lines[lines.index(load_line) - 1]

    def test_load_in_a_lazy_arm_is_never_evaluated_unguarded(self):
        # `buf[n - 1] if n > i else 0.0`: the load is invariant, but it
        # sits in a lazy ifelse arm.  With n == 0 and an empty buffer
        # the original never evaluates it; a hoist would raise.
        guarded = build.call(
            ops.IFELSE, build.gt(Var("n"), Var("i")),
            Load("buf", build.minus(Var("n"), Literal(1))), Literal(0.0))
        loop = asm.ForLoop("i", Literal(0), Literal(3),
                           asm.AssignStmt(Load("out", Var("i")), guarded))
        func = func_of(loop, params=("buf", "out", "n"))
        for steps in ((hoist_invariants,), STEPS):
            namespace = {"buf": [], "n": 0, "out": [None] * 3}
            exec(emit(optimized(func, steps))
                 + "kernel(buf, out, n)\n", namespace)
            assert namespace["out"] == [0.0] * 3, steps

    def test_a_loop_alone_in_a_branch_on_its_guard_is_not_reguarded(self):
        loop = asm.ForLoop(
            "i", Var("a"), Var("b"),
            asm.AccumStmt("acc", ops.ADD,
                          build.times(Load("w", Literal(0)),
                                      Load("x", Var("i")))))
        alone = asm.If([(build.lt(Var("a"), Var("b")), loop)])
        source = emit(hoist_invariants(func_of(
            alone, params=("a", "b", "w", "x"))))
        assert source.count("if a < b:") == 1
        assert "w_x = w[0]" in source
        # Beside another statement the loop keeps its own guard.
        beside = asm.If([(build.lt(Var("a"), Var("b")),
                          asm.Block([loop, sink(1)]))])
        source = emit(hoist_invariants(func_of(
            beside, params=("a", "b", "w", "x"))))
        assert source.count("if a < b:") == 2

    def test_pure_arithmetic_hoists_unguarded(self):
        loop = asm.ForLoop(
            "j", Var("a"), Var("b"),
            asm.AssignStmt(Load("out", build.plus(
                build.times(Literal(8), Var("i")), Var("j"))),
                Var("j")))
        source = emit(hoist_invariants(
            func_of(loop, params=("a", "b", "i", "out"))))
        # 8 * i cannot raise: hoisted with no guard.
        assert "if" not in source
        assert "= 8 * i" in source


class TestVectorize:
    def test_elementwise_map_becomes_slice_assign(self):
        loop = asm.ForLoop(
            "i", Literal(0), Literal(8),
            asm.AssignStmt(Load("out", Var("i")),
                           build.plus(Load("x", Var("i")),
                                      Load("y", Var("i")))))
        source = emit(vectorize(func_of(loop,
                                        params=("out", "x", "y"))))
        assert "out[0:8] = (x[0:8] + y[0:8])" in source
        assert "for" not in source

    def test_a_loop_alone_in_a_branch_on_its_test_is_not_reguarded(self):
        loop = asm.ForLoop("i", Var("a"), Var("b"), asm.AssignStmt(
            Load("out", Var("i")), Load("x", Var("i"))))
        alone = asm.If([(build.lt(Var("a"), Var("b")), loop)])
        source = emit(vectorize(func_of(alone, params=("a", "b", "out",
                                                       "x"))))
        assert source.count("if a < b:") == 1
        assert "out[a:b] = x[a:b]" in source

    def test_reduction_becomes_dot(self):
        loop = asm.ForLoop(
            "i", Literal(0), Literal(16),
            asm.AccumStmt("acc", ops.ADD,
                          build.times(Load("x", Var("i")),
                                      Load("y", Var("i")))))
        source = emit(vectorize(func_of(loop, params=("x", "y"))))
        assert "acc += _np.dot(x[0:16], y[0:16])" in source

    @pytest.mark.parametrize("dtype, dot", [
        ("float64", True), ("float32", True), ("int64", False),
        ("uint8", False), ("bool", False)])
    def test_typed_reduction_only_in_the_accumulators_type(self, dtype,
                                                           dot):
        # ``acc = 0.0``: a weak float, so the loop sums float64 and
        # float32 terms in their own type and the others in float64.
        loop = asm.ForLoop(
            "i", Literal(0), Literal(16),
            asm.AccumStmt("acc", ops.ADD,
                          build.times(Load("x", Var("i")),
                                      Load("y", Var("i")))))
        func = func_of(asm.AssignStmt(Var("acc"), Literal(0.0)), loop,
                       params=("x", "y"))
        buffers = [(name, np.zeros(16, dtype=dtype)) for name in "xy"]
        assert ("_np.dot" in emit(vectorize(func, buffers))) == dot

    def test_dynamic_bounds_get_a_guard(self):
        loop = asm.ForLoop(
            "i", Var("a"), Var("b"),
            asm.AccumStmt("acc", ops.ADD, Load("x", Var("i"))))
        source = emit(vectorize(func_of(loop, params=("a", "b", "x"))))
        assert "if a < b:" in source
        assert "_np.add.reduce(x[a:b])" in source

    def test_affine_index_with_stride(self):
        index = build.plus(build.times(Literal(2), Var("i")), Var("o"))
        loop = asm.ForLoop(
            "i", Literal(0), Literal(5),
            asm.AccumStmt("acc", ops.ADD, Load("x", index)))
        source = emit(vectorize(func_of(loop, params=("x", "o"))))
        assert "x[o:9 + o:2]" in source

    def test_counter_scales_by_trip_count(self):
        body = asm.Block([
            asm.AccumStmt("acc", ops.ADD, Load("x", Var("i"))),
            asm.AccumStmt("_ops", ops.ADD, Literal(1)),
        ])
        loop = asm.ForLoop("i", Var("a"), Var("b"), body)
        source = emit(vectorize(func_of(loop, params=("a", "b", "x"),
                                        returns=("_ops",))))
        assert "_ops += b - a" in source

    def test_lazy_ops_fall_back_to_scalar_loop(self):
        guarded = build.call(ops.IFELSE, build.lt(Var("i"), Literal(3)),
                             Load("x", Var("i")), Literal(0.0))
        loop = asm.ForLoop("i", Literal(0), Literal(8),
                           asm.AccumStmt("acc", ops.ADD, guarded))
        source = emit(vectorize(func_of(loop, params=("x",))))
        assert "for i in range(0, 8):" in source

    def test_loop_carried_dependence_bails(self):
        loop = asm.ForLoop(
            "i", Literal(1), Literal(8),
            asm.AssignStmt(Load("out", Var("i")),
                           Load("out", build.minus(Var("i"),
                                                   Literal(1)))))
        source = emit(vectorize(func_of(loop, params=("out",))))
        assert "for i in range(1, 8):" in source

    def test_same_cell_read_is_allowed(self):
        loop = asm.ForLoop(
            "i", Literal(0), Literal(8),
            asm.AssignStmt(Load("out", Var("i")),
                           build.times(Load("out", Var("i")),
                                       Literal(2.0))))
        source = emit(vectorize(func_of(loop, params=("out",))))
        assert "out[0:8] = (2.0 * out[0:8])" in source

    def nested(self, value):
        inner = asm.ForLoop("j", Literal(0), Literal(6), asm.AccumStmt(
            Load("y", Var("j")), ops.ADD, value))
        return func_of(asm.ForLoop("i", Literal(0), Literal(3), inner),
                       params=("y", "a", "x"))

    def test_loop_over_a_vectorized_loop_stays_a_loop(self):
        # The inner loop's guard folds away, so its slice statement is
        # the outer loop's whole body: it is not one scalar iteration,
        # and the outer loop must not be vectorized over it.
        func = vectorize(self.nested(build.times(Load("a", Var("i")),
                                                 Load("x", Var("j")))))
        assert emit(func.body) == ("for i in range(0, 3):\n"
                                   "    y[0:6] += (a[i] * x[0:6])\n")

    def test_outer_free_slice_statement_is_not_collapsed(self):
        # `y[0:6] += x[0:6]` does not mention i: treating it as a loop
        # body to vectorize would run it once instead of three times.
        func = vectorize(self.nested(Load("x", Var("j"))))
        assert emit(func.body) == ("for i in range(0, 3):\n"
                                   "    y[0:6] += x[0:6]\n")
        namespace = {"y": np.zeros(6), "a": None, "x": np.arange(6.0)}
        exec(emit(func) + "kernel(y, a, x)\n", namespace)
        assert namespace["y"].tolist() == (3 * np.arange(6.0)).tolist()

    def test_bare_loop_variable_bails(self):
        loop = asm.ForLoop(
            "i", Literal(0), Literal(8),
            asm.AccumStmt("acc", ops.ADD,
                          build.times(Var("i"), Var("i"))))
        source = emit(vectorize(func_of(loop, params=())))
        assert "for i in range(0, 8):" in source

    @pytest.mark.parametrize("op", ["min", "max"])
    @pytest.mark.parametrize("nan_in", ["first", "second"])
    @pytest.mark.parametrize("shape", ["map", "accumulate", "reduce"])
    def test_min_max_keep_pythons_nan_semantics(self, op, nan_in, shape):
        # Python's min/max keep their first argument against a NaN,
        # numpy's minimum/maximum propagate it: a dense min/max loop is
        # bit-identical to the interpreter at every level, 0 included
        # (no views: the operands are numpy scalars there).
        from repro.baselines.reference import interpret

        plain = np.array([0.5, 2.0, 3.0, 4.0, -0.0])
        holes = np.array([1.0, np.nan, 2.5, np.nan, 0.0])
        first, second = (holes, plain) if nan_in == "first" \
            else (plain, holes)
        for level in (0, 2):
            X = fl.from_numpy(first, ("dense",), name="X")
            Z = fl.from_numpy(second, ("dense",), name="Z")
            i = fl.indices("i")
            if shape == "map":
                out = fl.zeros((5,), name="Y")
                call = fl.minimum if op == "min" else fl.maximum
                prog = fl.forall(i, fl.store(out[i], call(X[i], Z[i])))
            elif shape == "accumulate":
                out = fl.zeros((5,), fill=first[1], name="Y")
                prog = fl.forall(i, fl.reduce_into(out[i], op, Z[i]))
            else:
                out = fl.Scalar(first[1], name="m")
                prog = fl.forall(i, fl.reduce_into(out[()], op, Z[i]))
            want = np.asarray(interpret(prog).result_for(out))
            kernel = fl.compile_kernel(prog, cache=False, opt_level=level)
            kernel.run()
            got = np.asarray(out.to_numpy() if out.ndim else out.value)
            assert got.tobytes() == want.tobytes(), (level, got, want)
            # The printer's select, not the builtin, at every level.
            assert "%s(" % op not in kernel.source

    @pytest.mark.parametrize("dtype", ["uint8", "float32", "int64", "bool"])
    @pytest.mark.parametrize("shape", ["dot", "matvec"])
    def test_a_reduction_sums_in_the_type_the_loop_does(self, dtype, shape):
        # Six products 15 * 15 sum to 1350 in the loop's float64, to 70
        # in the uint8 ``_np.dot`` computes; six True * True to 6.0, to
        # True.  A float32 term stays float32 from ``C = 0.0`` (a weak
        # float) and meets a float64 ``y[i]`` as float64.
        value = {"uint8": 15, "float32": 0.1, "int64": 15, "bool": True}
        i, j = fl.indices("i", "j")
        results = []
        for level in (0, 2):
            v = np.full(6, value[dtype], dtype=dtype)
            if shape == "dot":
                A = fl.from_numpy(v, ("dense",), name="A")
                B = fl.from_numpy(v.copy(), ("dense",), name="B")
                out = fl.Scalar(name="C")
                prog = fl.forall(i, fl.increment(out[()], A[i] * B[i]))
            else:
                M = fl.from_numpy(np.tile(v, (3, 1)), ("dense", "dense"),
                                  name="M")
                x = fl.from_numpy(v.copy(), ("dense",), name="x")
                out = fl.zeros((3,), name="y")
                prog = fl.forall(i, fl.forall(j, fl.increment(
                    out[i], M[i, j] * x[j])))
            fl.compile_kernel(prog, cache=False, opt_level=level).run()
            results.append(np.asarray(out.to_numpy() if out.ndim
                                      else out.value))
        if dtype == "float32" and shape == "dot":
            # Summed in float32 by both, in another order at level 2.
            np.testing.assert_allclose(results[1], results[0], rtol=1e-6)
            results.pop()
        assert len({result.tobytes() for result in results}) == 1, results
        if dtype in ("uint8", "int64"):
            assert results[0].ravel()[0] == 1350.0
        elif dtype == "bool":
            assert results[0].ravel()[0] == 6.0


class TestExactEffects:
    """``asm.effects`` reads the nodes: no name a statement does not
    touch, and one computation per node."""

    def vectorized(self):
        loop = asm.ForLoop(
            "i", Var("a"), Var("b"),
            asm.AccumStmt(Load("out", Var("i")), ops.ADD, build.times(
                Load("x", Var("i")),
                Load("y", build.plus(Var("i"), Var("c"),
                                     build.negate(Var("d")))))))
        func = vectorize(func_of(loop, params=(
            "out", "x", "y", "a", "b", "c", "d")))
        guard, = func.body.stmts
        stmt, = guard.branches[0][1].stmts
        return func, stmt

    def test_slice_accumulation(self):
        _, stmt = self.vectorized()
        assert emit(stmt) == \
            "out[a:b] += (x[a:b] * y[a + c + -d:b + c + -d])\n"
        reads, writes, stores = asm.effects(stmt)
        assert stores == {"out"}
        assert writes == set()
        assert reads == {"out", "x", "y", "a", "b", "c", "d"}

    def test_reduction_and_reset(self):
        acc = asm.AccumStmt("acc", ops.ADD, Reduce(ops.ADD, Call(
            ops.MUL, [Slice("x", Var("a"), Var("b")),
                      Slice("y", Var("a"), Var("b"))])))
        assert emit(acc) == "acc += _np.dot(x[a:b], y[a:b])\n"
        assert asm.effects(acc) == ({"acc", "x", "y", "a", "b"},
                                    {"acc"}, set())
        reset = asm.AssignStmt(Slice("out", 0, 8), Literal(0.0))
        assert asm.effects(reset) == ({"out"}, set(), {"out"})

    def test_effects_are_computed_once_per_node(self):
        func, stmt = self.vectorized()
        first = asm.effects(func)
        assert asm.effects(func) is first
        assert asm.effects(stmt) is asm.effects(stmt)
        # A parent's effects are built from its children's.
        assert first.stores == asm.effects(stmt).stores
        assert first.reads >= asm.effects(stmt).reads

    def test_loop_variable_is_written_by_the_loop_not_its_body(self):
        body = asm.AssignStmt(Load("out", Var("i")), Var("v"))
        loop = asm.ForLoop("i", Literal(0), Var("n"), body)
        assert asm.effects(body).writes == set()
        assert asm.effects(loop) == ({"out", "i", "v", "n"}, {"i"},
                                     {"out"})


class TestLinearParts:
    def var_free(self, expr, var="i"):
        return linear_parts(expr, var)

    def test_plain_variable(self):
        assert linear_parts(Var("i"), "i") == (1, Literal(0))

    def test_scaled_shifted(self):
        expr = build.plus(build.times(Literal(3), Var("i")), Var("o"))
        coeff, base = linear_parts(expr, "i")
        assert coeff == 3 and base == Var("o")

    def test_subtraction(self):
        expr = build.minus(Var("i"), Literal(2))
        coeff, base = linear_parts(expr, "i")
        assert coeff == 1 and base == Literal(-2)

    def test_var_free_expression(self):
        coeff, base = linear_parts(Var("q"), "i")
        assert coeff == 0 and base == Var("q")

    def test_nonlinear_is_rejected(self):
        assert linear_parts(build.times(Var("i"), Var("i")), "i") is None
        assert linear_parts(build.times(Var("i"), Var("k")), "i") is None


class TestHelpers:
    def test_can_raise_flags_loads_and_division(self):
        assert can_raise(Load("x", Literal(0)))
        assert can_raise(build.call(ops.DIV, Var("a"), Var("b")))
        assert not can_raise(build.plus(Var("a"), Literal(1)))

    def test_entry_exprs_skip_later_elif_conditions(self):
        first = build.lt(Var("a"), Var("b"))
        second = build.lt(Var("b"), Var("c"))
        stmt = asm.If([(first, sink(1)), (second, sink(2))])
        assert list(entry_exprs(stmt)) == [first]


class TestGoldenKernels:
    """The passes fire on real compiled kernels (the paper's shapes)."""

    def spmspv_kernel(self, **opts):
        rng = np.random.default_rng(0)
        mat = rng.random((8, 10))
        mat[rng.random((8, 10)) > 0.3] = 0.0
        vec = rng.random(10)
        vec[rng.random(10) > 0.4] = 0.0
        prog = spmspv_program(mat, vec, "walk_walk")[0]
        return fl.compile_kernel(prog, cache=False, **opts)

    def test_licm_fires_on_spmspv(self):
        raw_lines = self.spmspv_kernel(opt_level=0).source.splitlines()
        opt_lines = self.spmspv_kernel().source.splitlines()

        def first_index(lines, needle):
            return next(pos for pos, line in enumerate(lines)
                        if needle in line)

        # The x-vector's position bounds are loop-invariant: lowered
        # code loads them inside the row loop, optimized code hoists
        # them above it.
        raw_for = first_index(raw_lines, "for i in range")
        opt_for = first_index(opt_lines, "for i in range")
        assert first_index(raw_lines, "pos_2[0]") > raw_for
        assert first_index(opt_lines, "pos_2[0]") < opt_for

    def test_reset_output_is_never_loaded(self):
        a = np.arange(4.0)
        A = fl.from_numpy(a, ("dense",), name="A")
        C = fl.Scalar(name="C")
        i = fl.indices("i")
        prog = fl.forall(i, fl.increment(C[()], A[i]))
        # The scalar accumulator is reset before first read: the
        # lowerer emits no load of C_val[0] at any level.
        for level in (0, 2):
            kernel = fl.compile_kernel(prog, cache=False, opt_level=level)
            assert kernel.source.count("C_val[0]") == 1  # writeback only

    def test_no_figure_retests_a_condition_right_inside_it(self):
        # fig11's LICM guards once sat directly inside the lowerer's
        # test of the same condition (``if ij2_stop_2 < ij2_stride:``
        # twice); its op count is pinned in tests/paper.
        from repro.bench.figures import warm_start_programs

        retest = re.compile(r"^( *)if (.*):\n\1    if \2:$", re.M)
        for figure, _, make, opts in warm_start_programs():
            source = fl.compile_kernel(make(), cache=False, **opts).source
            assert not retest.findall(source), figure

    def test_dense_dot_vectorizes_to_np_dot(self):
        a = np.arange(32.0)
        A = fl.from_numpy(a, ("dense",), name="A")
        B = fl.from_numpy(a, ("dense",), name="B")
        C = fl.Scalar(name="C")
        i = fl.indices("i")
        prog = fl.forall(i, fl.increment(C[()], A[i] * B[i]))
        kernel = fl.compile_kernel(prog, cache=False)
        lowered = fl.compile_kernel(prog, cache=False, opt_level=0)
        assert "_np.dot" in kernel.source
        assert "_np.dot" not in lowered.source
        assert "for" not in kernel.source
        kernel.run()
        assert C.value == pytest.approx(float(a @ a))

    @pytest.mark.parametrize("shape", ["y[j] += a[i] * x[j]",
                                       "C[i,k] += a[j] * B[i,k]"])
    @pytest.mark.parametrize("backend", ["python", "c"])
    def test_loop_around_a_dense_inner_loop(self, shape, backend):
        # The inner loop vectorizes to a slice statement that omits the
        # enclosing loop's variable (or only broadcasts it): every
        # level must still run it once per outer iteration.
        from repro.baselines.reference import interpret

        rng = np.random.default_rng(3)
        for opt_level in (0, 2):
            a = fl.from_numpy(rng.random(3), ("dense",), name="a")
            i, j, k = fl.indices("i", "j", "k")
            if shape.startswith("y"):
                x = fl.from_numpy(rng.random(6), ("dense",), name="x")
                out = fl.zeros((6,), name="y")
                prog = fl.forall(i, fl.forall(j, fl.increment(
                    out[j], a[i] * x[j])))
            else:
                B = fl.from_numpy(rng.random((4, 5)), ("dense", "dense"),
                                  name="B")
                out = fl.zeros((4, 5), name="C")
                prog = fl.forall(i, fl.forall(j, fl.forall(
                    k, fl.increment(out[i, k], a[j] * B[i, k]))))
            want = np.asarray(interpret(prog).result_for(out))
            kernel = fl.compile_kernel(prog, cache=False, backend=backend,
                                       opt_level=opt_level)
            kernel.run()
            assert "for" in kernel.source
            assert out.to_numpy().tobytes() == want.tobytes(), opt_level

    @pytest.mark.skipif(not codegen.have_toolchain(),
                        reason="no C compiler on PATH")
    def test_c_prints_the_hoisted_tree_before_vectorize(self):
        a = np.arange(1.0, 5.0)
        b = np.arange(1.0, 4.0)
        A = fl.from_numpy(a, ("dense",), name="A")
        B = fl.from_numpy(b, ("dense",), name="B")
        C = fl.Scalar(name="C")
        i, j = fl.indices("i", "j")
        prog = fl.forall(i, fl.forall(j, fl.increment(C[()],
                                                      A[i] * B[j])))
        kernel = fl.compile_kernel(prog, cache=False, backend="c")
        # The python source vectorizes the j loop; the C kernel keeps
        # it, with A[i] hoisted out of it.
        assert "for j in range" not in kernel.source
        assert kernel.effective_backend == "c"
        c_source = kernel.artifact.c_source
        assert "val_x = val[i];" in c_source
        assert "for (j = " in c_source
        kernel.run()
        assert C.value == pytest.approx(a.sum() * b.sum())

    def test_level_zero_runs_neither_pass(self, monkeypatch):
        def refuse(func, buffers=None):
            raise AssertionError("an optimizer pass ran at opt_level=0")

        monkeypatch.setattr(optimize, "hoist_invariants", refuse)
        monkeypatch.setattr(optimize, "vectorize", refuse)
        backends = ("python", "c") if codegen.have_toolchain() \
            else ("python",)
        for backend in backends:
            a = np.arange(1.0, 5.0)
            A = fl.from_numpy(a, ("dense",), name="A")
            C = fl.Scalar(name="C")
            i, j = fl.indices("i", "j")
            kernel = fl.compile_kernel(
                fl.forall(i, fl.forall(j, fl.increment(C[()],
                                                       A[i] * A[j]))),
                cache=False, backend=backend, opt_level=0)
            kernel.run()
            assert kernel.effective_backend == backend
            assert C.value == a.sum() ** 2, backend

    def test_instrumented_counts_survive_vectorization(self):
        vec = np.ones(23)
        for level in (0, 2):
            X = fl.from_numpy(vec, ("dense",), name="X")
            s = fl.Scalar(name="s")
            i = fl.indices("i")
            prog = fl.forall(i, fl.increment(s[()], X[i]))
            n = fl.execute(prog, instrument=True, opt_level=level)
            assert n == 23
            assert s.value == 23.0

@pytest.fixture(scope="module")
def lowered_figures():
    """Each figure's headline kernel as lowering hands it to
    ``hoist_invariants`` (every figure compiles at the default level)."""
    from repro.bench.figures import warm_start_programs

    trees = {}
    with pytest.MonkeyPatch.context() as patch:
        for figure, _, make, opts in warm_start_programs():
            def keep(func, figure=figure):
                trees[figure] = func
                return hoist_invariants(func)

            patch.setattr(optimize, "hoist_invariants", keep)
            fl.compile_kernel(make(), cache=False, **opts)
    return trees


@pytest.fixture(scope="module")
def optimised_figures(lowered_figures):
    """Each figure's headline kernel as both passes leave it."""
    return {figure: optimized(func)
            for figure, func in lowered_figures.items()}


class TestEveryStepPays:
    """Counted, not timed: dropping either pass changes the emitted
    kernel of at least one paper figure.  A pass that does nothing on
    the figures fails here."""

    @pytest.mark.parametrize("step", STEPS, ids=lambda step: step.__name__)
    def test_dropping_a_step_changes_a_figure(self, step, lowered_figures,
                                              optimised_figures):
        rest = tuple(other for other in STEPS if other is not step)
        changed = [figure for figure, func in lowered_figures.items()
                   if emit(optimized(func, rest))
                   != emit(optimised_figures[figure])]
        assert changed, step.__name__


class TestUnchangedNodesComeBack:
    """The contract of ``ir/asm.py``: a pass returns the very node it was
    given when nothing under it changed, and ``simplify_expr`` returns a
    normal form of the default rules as it is."""

    def test_vectorize_at_its_fixpoint_returns_its_input(self,
                                                       lowered_figures):
        # Vectorize is the last step: at the end of the pipeline.
        for figure, func in lowered_figures.items():
            func = optimized(func)
            assert vectorize(func) is func, figure

    def test_licm_returns_its_input_unless_it_rewrote(
            self, optimised_figures):
        # LICM is not idempotent (a second run hoists a max() the first
        # left over two hoisted temps), so: same object, or new text.
        same = [figure for figure, func in optimised_figures.items()
                if hoist_invariants(func) is func]
        for figure, func in optimised_figures.items():
            if figure not in same:
                assert emit(hoist_invariants(func)) != emit(func), figure
        assert len(same) >= 4, same

    def test_the_generic_rewriters_keep_what_they_do_not_touch(
            self, optimised_figures):
        for figure, func in optimised_figures.items():
            assert asm.map_statements(func, lambda stmt: None) is func
            for stmt in asm.walk_statements(func):
                assert asm.map_statement_exprs(stmt, lambda e: e) is stmt

    def test_a_normal_form_is_not_simplified_again(self, monkeypatch):
        import repro.rewrite.simplify as simplify

        expr = Call(ops.ADD, [Var("x"), Literal(0), Call(
            ops.MUL, [Literal(1), Load("buf", Var("i"))])])
        once = simplify_expr(expr)
        assert once == build.plus(Var("x"), Load("buf", Var("i")))
        applied = []
        monkeypatch.setattr(simplify, "_apply_first",
                            lambda *args: applied.append(args))
        assert simplify_expr(once) is once
        assert applied == []

    def test_the_mark_belongs_to_the_default_rules(self):
        def square(expr):
            if isinstance(expr, Call) and expr.op is ops.MUL \
                    and len(expr.args) == 2 and expr.args[0] == expr.args[1]:
                return Call(ops.POW, [expr.args[0], Literal(2)])
            return None

        product = simplify_expr(build.times(Var("x"), Var("x")))
        assert simplify_expr(product) is product     # marked
        assert simplify_expr(product, DEFAULT_EXPR_RULES + (square,)) \
            == Call(ops.POW, [Var("x"), Literal(2)])
        # And a call with other rules marks nothing it returns.
        unsimplified = simplify_expr(Call(ops.ADD, [Var("x"), Literal(0)]),
                                     rules=())
        assert simplify_expr(unsimplified) == Var("x")


class TestTempsAvoidTheKernelNamespace:
    """Regression: compiler temps (the hoister's ``inv``, and ``t`` of a
    since-deleted CSE pass) used to shadow a registered operator of the
    same runtime name (``t = t(...)`` raised ``UnboundLocalError`` at
    ``opt_level=2``); compiler temps now reserve every name of
    ``kernel_globals()``."""

    @pytest.fixture
    def doubling_op(self, request, temp_op):
        return temp_op(ops.Op(request.param, lambda a: a * 2.0)).name

    @pytest.mark.parametrize("doubling_op", ["t", "inv"], indirect=True)
    @pytest.mark.parametrize("level", [0, 2])
    def test_operator_named_like_a_temp(self, doubling_op, level):
        a, b = np.arange(1.0, 5.0), np.arange(2.0, 8.0)
        A = fl.from_numpy(a, ("dense",), name="A")
        B = fl.from_numpy(b, ("dense",), name="B")
        C = fl.zeros((4, 6), name="C")
        D = fl.zeros((4, 6), name="D")
        i, j = fl.indices("i", "j")
        # A repeated call that is invariant in the inner loop (the
        # hoister's ``inv``).
        doubled = fl.call(doubling_op, A[i])
        prog = fl.forall(i, fl.forall(j, fl.multi(
            fl.increment(C[i, j], doubled + B[j]),
            fl.increment(D[i, j], doubled * B[j]))))
        fl.compile_kernel(prog, cache=False, opt_level=level).run()
        assert np.array_equal(C.to_numpy(), 2 * a[:, None] + b)
        assert np.array_equal(D.to_numpy(), np.outer(2 * a, b))

    @pytest.mark.parametrize("doubling_op", ["q"], indirect=True)
    @pytest.mark.parametrize("level", [0, 2])
    def test_operator_named_like_a_lowerer_variable(self, doubling_op,
                                                    level):
        # The sparse level's position variable is ``q``; the lowerer's
        # namer reserves the kernel namespace too.
        a, b = np.array([0.0, 1.0, 0.0, 2.0]), np.arange(2.0, 6.0)
        A = fl.from_numpy(a, ("sparse",), name="A")
        B = fl.from_numpy(b, ("dense",), name="B")
        C = fl.Scalar(name="C")
        i = fl.indices("i")
        prog = fl.forall(i, fl.increment(
            C[()], fl.call(doubling_op, A[i]) * B[i]))
        fl.compile_kernel(prog, cache=False, opt_level=level).run()
        assert C.value == 2 * (a * b).sum()
