"""Unit tests for scalar IR nodes."""

import pytest

from repro.ir import (
    MISSING,
    Call,
    Extent,
    Literal,
    Load,
    Var,
    as_expr,
    ops,
    substitute,
)
from repro.util.errors import ReproError


class TestLiteral:
    def test_equality_is_structural(self):
        assert Literal(3) == Literal(3)
        assert Literal(3) != Literal(4)

    def test_int_and_float_literals_differ(self):
        assert Literal(1) != Literal(1.0)

    def test_bool_and_int_literals_differ(self):
        assert Literal(True) != Literal(1)

    def test_missing_literal(self):
        lit = Literal(MISSING)
        assert lit.is_missing
        assert lit == Literal(MISSING)

    def test_hashable(self):
        assert len({Literal(1), Literal(1), Literal(2)}) == 2


class TestVar:
    def test_equality(self):
        assert Var("i") == Var("i")
        assert Var("i") != Var("j")

    def test_free_vars(self):
        assert Var("i").free_vars() == {"i"}


class TestCall:
    def test_children_and_rebuild(self):
        expr = Call(ops.ADD, [Var("a"), Literal(1)])
        assert list(expr.children()) == [Var("a"), Literal(1)]
        rebuilt = expr.rebuild([Var("b"), Literal(2)])
        assert rebuilt == Call(ops.ADD, [Var("b"), Literal(2)])

    def test_op_by_name(self):
        expr = Call("mul", [Var("a"), Var("b")])
        assert expr.op is ops.MUL

    def test_bad_op_rejected(self):
        with pytest.raises(ReproError):
            Call(42, [Literal(1)])

    def test_free_vars_recursive(self):
        expr = Call(ops.ADD, [Var("a"), Call(ops.MUL, [Var("b"), Literal(2)])])
        assert expr.free_vars() == {"a", "b"}


class TestLoad:
    def test_structure(self):
        load = Load("A_val", Var("p"))
        assert load.buffer == Var("A_val")
        assert load.free_vars() == {"A_val", "p"}

    def test_equality(self):
        assert Load("A", Var("p")) == Load("A", Var("p"))
        assert Load("A", Var("p")) != Load("A", Var("q"))


class TestAsExpr:
    def test_numbers(self):
        assert as_expr(3) == Literal(3)
        assert as_expr(2.5) == Literal(2.5)
        assert as_expr(True) == Literal(True)

    def test_string_becomes_var(self):
        assert as_expr("idx") == Var("idx")

    def test_expr_passthrough(self):
        var = Var("x")
        assert as_expr(var) is var

    def test_numpy_scalar(self):
        import numpy as np

        assert as_expr(np.int64(7)) == Literal(7)

    def test_rejects_unknown(self):
        with pytest.raises(ReproError):
            as_expr(object())


class TestSubstitute:
    def test_replaces_variable(self):
        expr = Call(ops.ADD, [Var("i"), Literal(1)])
        out = substitute(expr, {"i": Literal(5)})
        assert out == Call(ops.ADD, [Literal(5), Literal(1)])

    def test_untouched_tree_is_shared(self):
        expr = Call(ops.ADD, [Var("i"), Literal(1)])
        assert substitute(expr, {"j": Literal(5)}) is expr

    def test_substitute_inside_load(self):
        load = Load("A", Var("i"))
        out = substitute(load, {"i": Var("k")})
        assert out == Load("A", Var("k"))


class TestExtent:
    def test_static_length(self):
        assert Extent(0, 5).static_length() == 5
        assert Extent(5, 5).static_length() == 0
        assert Extent(7, 3).static_length() == 0

    def test_dynamic_length_unknown(self):
        assert Extent(Var("a"), Var("b")).static_length() is None

    def test_unit_detection_with_dynamic_bounds(self):
        start = Var("s")
        stop = Call(ops.ADD, [Var("s"), Literal(1)])
        assert Extent(start, stop).static_length() == 1

    def test_empty_when_bounds_equal(self):
        ext = Extent(Var("s"), Var("s"))
        assert ext.static_length() == 0
