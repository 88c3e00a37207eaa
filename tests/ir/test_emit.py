"""Unit tests for expression printing and statement emission."""

from repro.ir import (
    Call,
    Literal,
    Load,
    Reduce,
    Slice,
    Var,
    asm,
    build,
    emit,
    ops,
)
from repro.ir.pretty import expr_source
from repro.ir.runtime import kernel_globals


class TestExprSource:
    def test_literal(self):
        assert expr_source(Literal(3)) == "3"
        assert expr_source(Literal(2.5)) == "2.5"
        assert expr_source(Literal(ops.MISSING)) == "None"

    def test_infix_chain(self):
        expr = Call(ops.ADD, [Var("a"), Var("b"), Var("c")])
        assert expr_source(expr) == "a + b + c"

    def test_precedence_parentheses(self):
        expr = Call(ops.MUL, [Call(ops.ADD, [Var("a"), Var("b")]), Var("c")])
        assert expr_source(expr) == "(a + b) * c"

    def test_no_redundant_parentheses(self):
        expr = Call(ops.ADD, [Call(ops.MUL, [Var("a"), Var("b")]), Var("c")])
        assert expr_source(expr) == "a * b + c"

    def test_function_call_rendering(self):
        expr = Call(ops.MIN, [Var("a"), Var("b")])
        assert expr_source(expr) == "min(a, b)"

    def test_load(self):
        expr = Load("A_val", build.plus(Var("p"), 1))
        assert expr_source(expr) == "A_val[1 + p]"

    def test_unary_neg(self):
        assert expr_source(Call(ops.NEG, [Var("x")])) == "-x"

    def test_comparison(self):
        expr = Call(ops.LE, [Var("i"), Var("n")])
        assert expr_source(expr) == "i <= n"


class TestEmit:
    def test_assign(self):
        source = emit(asm.AssignStmt(Var("x"), Literal(1)))
        assert source == "x = 1\n"

    def test_accum_add(self):
        source = emit(asm.AccumStmt(Var("acc"), ops.ADD, Var("v")))
        assert source == "acc += v\n"

    def test_accum_min_uses_function(self):
        source = emit(asm.AccumStmt(Var("acc"), ops.MIN, Var("v")))
        assert source == "acc = min(acc, v)\n"

    def test_for_loop(self):
        loop = asm.ForLoop("i", 0, Var("n"),
                           asm.AccumStmt(Var("acc"), ops.ADD, Var("i")))
        source = emit(loop)
        assert source == "for i in range(0, n):\n    acc += i\n"

    def test_empty_loop_body_gets_pass(self):
        loop = asm.ForLoop("i", 0, 3, asm.Block([]))
        assert "pass" in emit(loop)

    def test_if_elif_else(self):
        branch = asm.If([
            (Var("a"), asm.AssignStmt(Var("x"), 1)),
            (Var("b"), asm.AssignStmt(Var("x"), 2)),
            (None, asm.AssignStmt(Var("x"), 3)),
        ])
        source = emit(branch)
        assert source.splitlines() == [
            "if a:",
            "    x = 1",
            "elif b:",
            "    x = 2",
            "else:",
            "    x = 3",
        ]

    def test_nested_blocks_flatten(self):
        inner = asm.Block([asm.AssignStmt(Var("x"), 1)])
        outer = asm.Block([inner, asm.AssignStmt(Var("y"), 2)])
        assert len(outer.stmts) == 2

    def test_emitted_function_executes(self):
        body = asm.Block([
            asm.AssignStmt(Var("acc"), Literal(0)),
            asm.ForLoop("i", 0, Var("n"),
                        asm.AccumStmt(Var("acc"), ops.ADD, Var("i"))),
        ])
        func = asm.FuncDef("kernel", ["n"], body, returns=["acc"])
        namespace = kernel_globals()
        exec(emit(func), namespace)
        assert namespace["kernel"](5) == 10

    def test_accum_logical_and_avoids_bitwise(self):
        # Python's &= is bitwise; the emitter must stay with `and`.
        source = emit(asm.AccumStmt(Var("acc"), ops.AND, Var("v")))
        assert source == "acc = acc and (v)\n"

    def test_accum_logical_or_avoids_bitwise(self):
        source = emit(asm.AccumStmt(Var("acc"), ops.OR, Var("v")))
        assert source == "acc = acc or (v)\n"

    def test_accum_logical_parenthesizes_value(self):
        # Without the parentheses `a or b and c` would rebind by
        # precedence; the emitted form must group the update value.
        value = Call(ops.AND, [Var("b"), Var("c")])
        source = emit(asm.AccumStmt(Var("a"), ops.OR, value))
        assert source == "a = a or (b and c)\n"

    def test_accum_symbol_ops(self):
        assert emit(asm.AccumStmt(Var("a"), ops.SUB, Var("v"))) \
            == "a -= v\n"
        assert emit(asm.AccumStmt(Var("a"), ops.MUL, Var("v"))) \
            == "a *= v\n"
        assert emit(asm.AccumStmt(Var("a"), ops.DIV, Var("v"))) \
            == "a /= v\n"

    def test_accum_max_uses_function(self):
        source = emit(asm.AccumStmt(Var("acc"), ops.MAX, Var("v")))
        assert source == "acc = max(acc, v)\n"

    def test_accum_symboled_op_outside_augmented_set(self):
        # POW has an infix symbol but no augmented-assignment form the
        # emitter uses; it must fall back to the runtime call.
        source = emit(asm.AccumStmt(Var("acc"), ops.POW, Var("v")))
        assert source == "acc = pow(acc, v)\n"

    def test_accum_into_load_target(self):
        target = Load("out", Var("p"))
        source = emit(asm.AccumStmt(target, ops.MIN, Var("v")))
        assert source == "out[p] = min(out[p], v)\n"

    def test_accum_non_symbol_op_executes(self):
        body = asm.Block([
            asm.AssignStmt(Var("acc"), Literal(9)),
            asm.ForLoop("i", 0, Var("n"),
                        asm.AccumStmt(Var("acc"), ops.MIN, Var("i"))),
        ])
        func = asm.FuncDef("kernel", ["n"], body, returns=["acc"])
        namespace = kernel_globals()
        exec(emit(func), namespace)
        assert namespace["kernel"](5) == 0

    def test_accum_logical_executes(self):
        body = asm.Block([
            asm.AssignStmt(Var("acc"), Literal(True)),
            asm.ForLoop("i", 0, Var("n"),
                        asm.AccumStmt(Var("acc"), ops.AND,
                                      Call(ops.LT, [Var("i"),
                                                    Literal(3)]))),
        ])
        func = asm.FuncDef("kernel", ["n"], body, returns=["acc"])
        namespace = kernel_globals()
        exec(emit(func), namespace)
        assert namespace["kernel"](2) is True
        assert namespace["kernel"](5) is False

    def test_while_loop(self):
        loop = asm.WhileLoop(Call(ops.LT, [Var("i"), Var("n")]),
                             asm.AccumStmt(Var("i"), ops.ADD, Literal(1)))
        source = emit(loop)
        assert source.splitlines()[0] == "while i < n:"

    def test_comment(self):
        assert emit(asm.Comment("hello")) == "# hello\n"


def sink(value):
    """A structured stand-in for "some effectful statement": a store
    of ``value`` to the ``sink`` buffer."""
    return asm.AssignStmt(Load("sink", Literal(0)), Literal(value))


class TestOptimizerProducedShapes:
    """Round-trip edge cases the optimizer pipeline newly produces."""

    def emitted(self, stmt):
        return emit(stmt)

    def test_leading_else_branch_inlines(self):
        # fold_constants can prove every conditional branch false,
        # leaving only the else: the body emits inline, unguarded.
        stmt = asm.If([(None, asm.Block([sink(1)]))])
        assert self.emitted(stmt) == "sink[0] = 1\n"

    def test_nested_if_with_pruned_branches(self):
        inner = asm.If([(None, asm.Block([sink(1)]))])
        outer = asm.If([
            (build.lt(Var("a"), Var("b")), asm.Block([inner])),
        ])
        source = self.emitted(outer)
        assert source == "if a < b:\n    sink[0] = 1\n"
        compile(source, "<test>", "exec")

    def test_all_empty_if_elided(self):
        stmt = asm.If([(build.lt(Var("a"), Var("b")), asm.Block([]))])
        block = asm.Block([stmt, sink(2)])
        assert self.emitted(block) == "sink[0] = 2\n"

    def test_hoisted_assigns_before_loop(self):
        # LICM emits temp assignments directly ahead of the loop,
        # inside the entry guard.
        guard = asm.If([(build.lt(Var("a"), Var("b")), asm.Block([
            asm.AssignStmt("w_x", Load("w", Literal(0))),
            asm.ForLoop("i", Var("a"), Var("b"),
                        asm.AccumStmt("acc", ops.ADD, Var("w_x"))),
        ]))])
        source = self.emitted(guard)
        assert source == ("if a < b:\n"
                          "    w_x = w[0]\n"
                          "    for i in range(a, b):\n"
                          "        acc += w_x\n")
        compile(source, "<test>", "exec")

    def test_numpy_slice_statements(self):
        x, y = Slice("x", 0, 8), Slice("y", 1, 9)
        strided = Slice("y", Var("a"), Var("b"), 2)
        product = Call(ops.MUL, [Slice("x", Var("a"), Var("b")), strided])
        block = asm.Block([
            asm.AccumStmt(Slice("out", 0, 8), ops.ADD,
                          Call(ops.MUL, [x, y])),
            asm.AccumStmt("acc", ops.ADD, Reduce(ops.ADD, product)),
            asm.AccumStmt("acc", ops.MAX, Reduce(ops.MAX, strided)),
            asm.AssignStmt(Slice("out", 0, 8), Literal(0.0)),
        ])
        assert self.emitted(block) == (
            "out[0:8] += (x[0:8] * y[1:9])\n"
            "acc += _np.dot(x[a:b], y[a:b:2])\n"
            "acc = max(acc, _np.maximum.reduce(y[a:b:2]))\n"
            "out[0:8] = 0.0\n")

    def test_vector_call_prints_its_numpy_form(self):
        x = Slice("x", 0, 8)
        scalar = build.plus(Var("a"), Var("b"))
        assert expr_source(Call(ops.MIN, [x, Literal(0.0), Var("c")])) \
            == "_np.minimum(_np.minimum(x[0:8], 0.0), c)"
        assert expr_source(Call(ops.NEG, [x])) == "(-x[0:8])"
        assert expr_source(Call(ops.ABS, [x])) == "_np.abs(x[0:8])"
        # Scalar operands broadcast; only non-atoms need parentheses.
        assert expr_source(Call(ops.MUL, [scalar, x])) \
            == "((a + b) * x[0:8])"
        assert expr_source(Call(ops.MUL, [Load("w", Var("q")), x])) \
            == "(w[q] * x[0:8])"

    def test_vectorized_kernel_namespace_has_numpy(self):
        import numpy as np

        source = ("def kernel(x, y):\n"
                  "    return _np.dot(x[0:3], y[0:3])\n")
        namespace = kernel_globals()
        exec(compile(source, "<test>", "exec"), namespace)
        result = namespace["kernel"](np.arange(3.0), np.arange(3.0))
        assert result == 5.0

    def test_slice_rendering(self):
        assert expr_source(Slice("x", Literal(0), Literal(8))) == "x[0:8]"
        assert expr_source(Slice("x", Var("a"), build.plus(Var("a"), 4),
                                 step=2)) == "x[a:4 + a:2]"
