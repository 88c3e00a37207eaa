"""Unit tests for the expression rewriter (Figure 5 rules)."""

import pytest

from repro.ir import Call, Literal, Load, MISSING, Var, build, ops
from repro.rewrite import simplify_expr
from repro.util.errors import ReproError


def raw(op, *args):
    """Build a Call without smart-constructor simplification."""
    return Call(op, list(args))


class TestAnnihilation:
    def test_mul_by_zero(self):
        assert simplify_expr(raw(ops.MUL, Var("x"), Literal(0))) == Literal(0)

    def test_mul_by_zero_deep(self):
        expr = raw(ops.ADD, Var("y"), raw(ops.MUL, Var("x"), Literal(0)))
        assert simplify_expr(expr) == Var("y")

    def test_and_false(self):
        expr = raw(ops.AND, Var("p"), Literal(False))
        assert simplify_expr(expr) == Literal(False)

    def test_or_true(self):
        expr = raw(ops.OR, Var("p"), Literal(True))
        assert simplify_expr(expr) == Literal(True)


class TestIdentity:
    def test_add_zero(self):
        assert simplify_expr(raw(ops.ADD, Var("x"), Literal(0))) == Var("x")

    def test_mul_one(self):
        assert simplify_expr(raw(ops.MUL, Var("x"), Literal(1))) == Var("x")

    def test_or_false(self):
        assert simplify_expr(raw(ops.OR, Var("p"), Literal(False))) == Var("p")


class TestFlattening:
    def test_nested_add_flattens(self):
        expr = raw(ops.ADD, Var("a"), raw(ops.ADD, Var("b"), Var("c")))
        out = simplify_expr(expr)
        assert out == Call(ops.ADD, [Var("a"), Var("b"), Var("c")])

    def test_constants_combine_across_nesting(self):
        expr = raw(ops.ADD, Literal(1), raw(ops.ADD, Var("x"), Literal(2)))
        out = simplify_expr(expr)
        assert out == Call(ops.ADD, [Literal(3), Var("x")])


class TestNegation:
    def test_double_negation(self):
        expr = raw(ops.NEG, raw(ops.NEG, Var("a")))
        assert simplify_expr(expr) == Var("a")

    def test_mul_of_negation_hoists(self):
        expr = raw(ops.MUL, Var("a"), raw(ops.NEG, Var("b")))
        out = simplify_expr(expr)
        assert out == Call(ops.NEG, [Call(ops.MUL, [Var("a"), Var("b")])])

    def test_zero_minus(self):
        expr = raw(ops.SUB, Literal(0), Var("b"))
        assert simplify_expr(expr) == Call(ops.NEG, [Var("b")])

    def test_sub_self_is_not_rewritten(self):
        # sub has no self-comparison rule; it stays (sound, just not folded).
        expr = raw(ops.SUB, Var("a"), Var("a"))
        assert simplify_expr(expr) == expr


class TestMissing:
    def test_mul_missing(self):
        expr = raw(ops.MUL, Var("x"), Literal(MISSING))
        assert simplify_expr(expr) == Literal(MISSING)

    def test_coalesce_drops_missing(self):
        expr = raw(ops.COALESCE, Literal(MISSING), Var("x"))
        assert simplify_expr(expr) == Var("x")

    def test_coalesce_of_expression_with_missing_inside(self):
        inner = raw(ops.MUL, Literal(MISSING), Var("f"))
        expr = raw(ops.COALESCE, inner, Literal(0))
        assert simplify_expr(expr) == Literal(0)

    def test_coalesce_keeps_runtime_values(self):
        expr = raw(ops.COALESCE, Var("a"), Var("b"))
        assert simplify_expr(expr) == expr


class TestComparisons:
    def test_eq_self(self):
        i = Var("i", integral=True)
        assert simplify_expr(raw(ops.EQ, i, i)) == Literal(True)

    def test_ne_self(self):
        i = Var("i", integral=True)
        assert simplify_expr(raw(ops.NE, i, i)) == Literal(False)

    @pytest.mark.parametrize("op", [ops.EQ, ops.NE, ops.LE, ops.LT])
    def test_self_comparison_of_a_maybe_float_stays(self, op):
        # x == x is false on a NaN: a value not known to be an integer
        # is compared at run time.
        for x in (Var("x"), Load("val", Var("p")),
                  build.plus(Var("i", integral=True), 0.5)):
            expr = raw(op, x, x)
            assert simplify_expr(expr) == expr

    def test_affine_comparison_needs_integer_operands(self):
        # x + 1 == x is true on an infinity.
        x = Var("x")
        expr = build.eq(build.plus(x, 1), x)
        assert simplify_expr(expr) == expr
        i = Var("i", integral=True)
        assert simplify_expr(build.eq(build.plus(i, 1), i)) == Literal(False)
        assert simplify_expr(build.lt(build.minus(i, 1), i)) == Literal(True)

    def test_eq_different_not_folded(self):
        expr = raw(ops.EQ, Var("i"), Var("j"))
        assert simplify_expr(expr) == expr

    def test_literal_comparison_folds(self):
        assert simplify_expr(raw(ops.LT, Literal(2), Literal(3))) == Literal(True)

    def test_eq_on_loads(self):
        load = Load(Var("idx", integral=True), Var("p"))
        assert simplify_expr(raw(ops.EQ, load, load)) == Literal(True)


class TestMisc:
    def test_ifelse_literal(self):
        expr = raw(ops.IFELSE, Literal(True), Var("a"), Var("b"))
        assert simplify_expr(expr) == Var("a")

    def test_not_not(self):
        expr = raw(ops.NOT, raw(ops.NOT, Var("p")))
        assert simplify_expr(expr) == Var("p")

    def test_min_folding(self):
        assert simplify_expr(raw(ops.MIN, Literal(4), Literal(7))) == Literal(4)

    def test_rejects_non_expr(self):
        with pytest.raises(ReproError):
            simplify_expr(42)

    def test_custom_rule(self):
        def rule_square_of_var(expr):
            if (isinstance(expr, Call) and expr.op.name == "pow"
                    and expr.args[1] == Literal(2)):
                return build.times(expr.args[0], expr.args[0])
            return None

        from repro.rewrite.rules import DEFAULT_EXPR_RULES

        expr = raw(ops.POW, Var("x"), Literal(2))
        out = simplify_expr(expr, DEFAULT_EXPR_RULES + (rule_square_of_var,))
        assert out == Call(ops.MUL, [Var("x"), Var("x")])

    def test_dot_product_style_expression(self):
        # 2 * x * 0 * anything collapses entirely.
        expr = raw(ops.MUL, Literal(2), Var("x"), Literal(0), Load("B", Var("i")))
        assert simplify_expr(expr) == Literal(0)
