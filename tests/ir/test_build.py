"""Unit tests for IR smart constructors: expressions fold as they are
built, and statements decide their literal conditions and extents."""

from repro.ir import Call, Literal, Load, MISSING, Var, asm, build, ops
from repro.ir.emit import emit


class TestPlus:
    def test_folds_constants(self):
        assert build.plus(1, 2, 3) == Literal(6)

    def test_drops_zero_identity(self):
        assert build.plus(Var("x"), 0) == Var("x")

    def test_flattens_nested_adds(self):
        inner = build.plus(Var("a"), Var("b"))
        out = build.plus(inner, Var("c"))
        assert out == Call(ops.ADD, [Var("a"), Var("b"), Var("c")])

    def test_empty_sum_is_zero(self):
        assert build.plus() == Literal(0)

    def test_constant_first(self):
        out = build.plus(Var("x"), 2, 3)
        assert out == Call(ops.ADD, [Literal(5), Var("x")])


class TestTimes:
    def test_annihilator_zero(self):
        assert build.times(Var("x"), 0) == Literal(0)

    def test_identity_one(self):
        assert build.times(Var("x"), 1) == Var("x")

    def test_folds(self):
        assert build.times(2, 3) == Literal(6)


class TestMinMax:
    def test_min_folds(self):
        assert build.minimum(3, 1, 2) == Literal(1)

    def test_min_keeps_symbolic(self):
        out = build.minimum(Var("a"), 4, 9)
        assert out == Call(ops.MIN, [Literal(4), Var("a")])

    def test_max_flattens(self):
        out = build.maximum(build.maximum(Var("a"), Var("b")), Var("c"))
        assert out == Call(ops.MAX, [Var("a"), Var("b"), Var("c")])

    def test_single_arg_passthrough(self):
        assert build.minimum(Var("a")) == Var("a")


class TestBool:
    def test_and_annihilates_on_false(self):
        assert build.land(Var("p"), False) == Literal(False)

    def test_and_drops_true(self):
        assert build.land(Var("p"), True) == Var("p")

    def test_or_annihilates_on_true(self):
        assert build.lor(Var("p"), True) == Literal(True)

    def test_or_drops_false(self):
        assert build.lor(Var("p"), False) == Var("p")


class TestMinus:
    def test_minus_zero(self):
        assert build.minus(Var("x"), 0) == Var("x")

    def test_minus_folds(self):
        assert build.minus(7, 3) == Literal(4)


class TestCoalesce:
    def test_drops_literal_missing(self):
        out = build.coalesce(Literal(MISSING), Var("x"))
        assert out == Var("x")

    def test_all_missing(self):
        assert build.coalesce(Literal(MISSING)) == Literal(MISSING)

    def test_literal_short_circuits(self):
        out = build.coalesce(Literal(3), Var("x"))
        assert out == Literal(3)

    def test_keeps_runtime_order(self):
        out = build.coalesce(Var("a"), Var("b"))
        assert out == Call(ops.COALESCE, [Var("a"), Var("b")])


class TestCall:
    def test_folds_all_literal(self):
        assert build.call(ops.EQ, 3, 3) == Literal(True)

    def test_missing_propagates_through_mul(self):
        assert build.call(ops.MUL, Literal(MISSING), 5) == Literal(MISSING)


def sink(value):
    """A structured stand-in for "some effectful statement": a store
    of ``value`` to the ``sink`` buffer."""
    return asm.AssignStmt(Load("sink", Literal(0)), value)


class TestIf:
    def test_literal_conditions_decide_the_chain(self):
        stmt = build.if_([
            (build.lt(Literal(3), Literal(1)), sink(1)),
            (build.lt(Literal(1), Literal(3)), sink(2)),
            (None, sink(3)),
        ])
        # Only the taken branch is built, inlined (no ``if``).
        assert emit(stmt) == "sink[0] = 2\n"

    def test_true_condition_ends_the_chain_as_its_else(self):
        stmt = build.if_([
            (build.lt(Var("a"), Var("b")), sink(1)),
            (Literal(True), sink(2)),
            (build.lt(Var("b"), Var("a")), sink(3)),
        ])
        assert emit(stmt) == ("if a < b:\n    sink[0] = 1\n"
                              "else:\n    sink[0] = 2\n")

    def test_missing_is_false(self):
        # ``missing`` renders as ``None``: falsy at runtime.
        stmt = build.if_([(Literal(MISSING), sink(1)), (None, sink(2))])
        assert emit(stmt) == "sink[0] = 2\n"

    def test_no_live_branch_is_no_statement(self):
        assert build.if_([(Literal(False), sink(1))]).is_nop()
        assert build.if_([(Var("c"), asm.Block([]))]).is_nop()

    def test_trailing_empty_branches_go(self):
        stmt = build.if_([
            (build.lt(Var("a"), Var("b")), sink(1)),
            (build.lt(Var("b"), Var("a")), asm.Block([])),
            (None, asm.Block([])),
        ])
        source = emit(stmt)
        assert "sink[0] = 1" in source
        # Both the empty else and the (then-trailing) empty elif go.
        assert "else" not in source
        assert "elif" not in source

    def test_empty_middle_branch_stays(self):
        stmt = build.if_([
            (build.lt(Var("a"), Var("b")), asm.Block([])),
            (None, sink(1)),
        ])
        source = emit(stmt)
        # Dropping the empty first branch would reroute its cases into
        # the else; it must stay, rendered with a pass body.
        assert "if a < b:" in source
        assert "pass" in source
        assert "sink[0] = 1" in source


    def test_an_arm_does_not_retest_its_own_condition(self):
        cond = build.lt(Var("a"), Var("b"))
        inner = build.if_([(cond, sink(1))])
        stmt = build.if_([(build.lt(Var("b"), Var("c")), sink(0)),
                          (build.lt(Var("a"), Var("b")), inner)])
        assert emit(stmt) == ("if b < c:\n    sink[0] = 0\n"
                              "elif a < b:\n    sink[0] = 1\n")

    def test_an_arm_keeps_a_different_or_longer_test(self):
        cond = build.lt(Var("a"), Var("b"))
        other = build.if_([(build.lt(Var("a"), Var("c")), sink(1))])
        chain = build.if_([(cond, sink(1)), (None, sink(2))])
        more = asm.Block([build.if_([(cond, sink(1))]), sink(3)])
        for body in (other, chain, more):
            stmt = build.if_([(cond, body)])
            assert stmt.branches[0][1].stmts == asm.Block([body]).stmts


class TestFor:
    def test_literal_empty_extent_is_no_statement(self):
        assert build.for_(Var("i"), Literal(5), Literal(5), sink(1)).is_nop()
        assert build.for_(Var("i"), Literal(5), Literal(2), sink(1)).is_nop()

    def test_empty_body_is_no_statement(self):
        loop = build.for_(Var("i"), Literal(0), Var("n"), asm.Block([]))
        assert loop.is_nop()

    def test_unit_extent_binds_its_index(self):
        loop = build.for_(Var("i"), Literal(3), Literal(4),
                          asm.AssignStmt(Load("buf", Var("i")), Var("i")))
        assert emit(loop) == "i = 3\nbuf[i] = i\n"

    def test_a_runtime_extent_loops(self):
        loop = build.for_(Var("i"), Literal(0), Var("n"), sink(Var("i")))
        assert isinstance(loop, asm.ForLoop)
