"""The operator-indexed rewrite engine, and the marks it trusts.

``simplify_expr`` offers a call only the rules declaring its operator
(``rule.rewrites``) plus the undeclared ones, a leaf only the
undeclared ones, and ``rule_renormalize`` skips a call a smart
constructor marked ``_renormalized``.  Each shortcut must leave the
result what a plain sweep — every rule on every node, over unmarked
copies — computes.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir import Call, Literal, Load, MISSING, Var, build, ops
from repro.rewrite import DEFAULT_EXPR_RULES, simplify_expr
from repro.rewrite.rules import rule_renormalize
from repro.util.errors import ReproError

_BUFFER = Var("idx", (0, 9), integral=True)

_LEAVES = st.one_of(
    st.sampled_from([Literal(v) for v in (0, 1, -1, 2, 0.0, 1.5, True,
                                          False, MISSING, math.inf)]),
    st.sampled_from([Var("x"), Var("y"), Var("i", integral=True),
                     Var("j", (0, 4), integral=True),
                     Load(_BUFFER, Var("p", integral=True)),
                     Load(Var("val"), Var("p", integral=True))]),
)

#: Operators by arity; none can raise on folding small literals.
_VARIADIC = [ops.ADD, ops.MUL, ops.MIN, ops.MAX, ops.AND, ops.OR,
             ops.COALESCE]
_UNARY = [ops.NEG, ops.NOT, ops.ABS]
_BINARY = [ops.SUB, ops.EQ, ops.NE, ops.LT, ops.LE, ops.GT, ops.GE]


def _calls(children):
    """A raw call (unmarked), or the smart constructor's (marked)."""
    raw = st.one_of(
        st.builds(lambda op, args: Call(op, args),
                  st.sampled_from(_VARIADIC),
                  st.lists(children, min_size=2, max_size=3)),
        st.builds(lambda op, a: Call(op, [a]),
                  st.sampled_from(_UNARY), children),
        st.builds(lambda op, a, b: Call(op, [a, b]),
                  st.sampled_from(_BINARY), children, children),
        st.builds(lambda c, a, b: Call(ops.IFELSE, [c, a, b]),
                  children, children, children),
        st.builds(lambda lo, hi, key: Call(ops.SEARCH_GE,
                                           [_BUFFER, lo, hi, key]),
                  children, children, children),
    )
    built = st.one_of(
        st.builds(lambda name, args: build.BUILDERS[name](*args),
                  st.sampled_from(["add", "mul", "min", "max", "and", "or",
                                   "coalesce"]),
                  st.lists(children, min_size=1, max_size=3)),
        st.builds(build.minus, children, children),
        st.builds(lambda op, a, b: build.call(op, a, b),
                  st.sampled_from(_BINARY + [ops.ADD, ops.MUL]),
                  children, children),
        st.builds(build.negate, children),
    )
    return st.one_of(raw, built)


EXPRS = st.recursive(_LEAVES, _calls, max_leaves=12)


def _unmarked(expr):
    """A copy of ``expr`` carrying no cache: every call rebuilt raw."""
    if isinstance(expr, Call):
        return Call(expr.op, [_unmarked(arg) for arg in expr.args])
    if isinstance(expr, Load):
        return Load(expr.buffer, _unmarked(expr.index))
    return expr


def _plain_sweep(expr, rules):
    """The reference engine: children first, then every rule in order
    on the node, until none fires."""
    for _ in range(100):
        children = expr.children()
        if children:
            new = [_plain_sweep(child, rules) for child in children]
            if any(a is not b for a, b in zip(new, children)):
                expr = expr.rebuild(new)
        for rule in rules:
            out = rule(expr)
            if out is not None and out != expr:
                expr = out
                break
        else:
            return expr
    raise ReproError("no fixpoint")


def _outcome(fn):
    try:
        return fn().key()
    except Exception as exc:    # both engines must fail alike
        return type(exc)


class _LeafXIsZero:
    """An undeclared user rule that rewrites a leaf: a callable object
    defining ``__eq__`` and so unhashable."""

    def __eq__(self, other):
        return isinstance(other, _LeafXIsZero)

    def __call__(self, expr):
        return Literal(0) if expr == Var("x") else None


rule_leaf_x_is_zero = _LeafXIsZero()


def rule_swap_sub(expr):
    """An undeclared user rule over calls: ``a - b => -(b - a)`` for
    literal ``a``, which the defaults then fold."""
    if isinstance(expr, Call) and expr.op is ops.SUB \
            and isinstance(expr.args[0], Literal) \
            and not isinstance(expr.args[1], Literal):
        return Call(ops.NEG, [Call(ops.SUB, [expr.args[1],
                                             expr.args[0]])])
    return None


@pytest.mark.parametrize("rules", [
    DEFAULT_EXPR_RULES,
    DEFAULT_EXPR_RULES + (rule_leaf_x_is_zero,),
    (rule_swap_sub,) + DEFAULT_EXPR_RULES,
], ids=["default", "plus_leaf_rule", "plus_call_rule"])
@settings(max_examples=300, deadline=None)
@given(expr=EXPRS)
def test_indexed_engine_matches_a_plain_sweep(rules, expr):
    want = _outcome(lambda: _plain_sweep(_unmarked(expr), rules))
    assert _outcome(lambda: simplify_expr(expr, rules)) == want


def test_every_default_rule_declares_its_operators():
    assert all(callable(getattr(rule, "rewrites", None))
               for rule in DEFAULT_EXPR_RULES)
    assert not hasattr(rule_leaf_x_is_zero, "rewrites")


@pytest.mark.parametrize("rule", DEFAULT_EXPR_RULES,
                         ids=lambda rule: rule.__name__)
@pytest.mark.parametrize("node", [
    Literal(1), Var("x"), Load(_BUFFER, Literal(0)),
    Call(ops.POW, [Var("x"), Literal(2)]),
    Call(ops.EQ, [Var("x"), Var("x")])], ids=repr)
def test_rules_stay_total_on_any_node(rule, node):
    out = rule(node)
    assert out is None or isinstance(out, (Literal, Var, Call, Load))


@settings(max_examples=300, deadline=None)
@given(expr=EXPRS)
def test_marked_constructor_output_is_renormalized(expr):
    for node in _walk(expr):
        if getattr(node, "_renormalized", False):
            assert rule_renormalize(_unmarked(node)) is None, node


def _walk(expr):
    yield expr
    for child in expr.children():
        yield from _walk(child)


@pytest.mark.parametrize("built", [
    build.plus(Var("x"), Var("y"), 2),
    build.times(Var("x"), Load(_BUFFER, Var("p"))),
    build.minimum(Var("x"), Var("y")),
    build.maximum(Var("x"), 3),
    build.land(Var("x"), Var("y")),
    build.lor(Var("x"), Var("y")),
    build.minus(Var("x"), 1),
    build.minus(Var("x"), False),
    build.coalesce(Var("x"), MISSING, Var("y"), 4, Var("z")),
    build.negate(Var("x")),
    build.eq(Var("x"), 1),
    build.call(ops.POW, Var("x"), 2),
], ids=repr)
def test_each_constructor_marks_a_fixpoint(built):
    assert built._renormalized
    assert rule_renormalize(_unmarked(built)) is None


@pytest.mark.parametrize("op", [ops.ADD, ops.MUL, ops.MIN, ops.MAX,
                                ops.AND, ops.OR, ops.SUB, ops.COALESCE])
def test_generic_call_of_a_builder_op_stays_unmarked(op):
    # build.call neither flattens nor drops identities.
    out = build.call(op, Var("x"), Literal(0))
    assert not out._renormalized
    if op is ops.ADD:
        assert rule_renormalize(out) == Var("x")
        assert simplify_expr(out) == Var("x")


def test_a_deeper_nested_operand_leaves_the_call_unmarked():
    # One level is flattened; the nested add beneath it is not.
    inner = Call(ops.ADD, [Call(ops.ADD, [Var("x"), Var("y")]), Var("z")])
    out = build.plus(Var("w"), inner)
    assert not out._renormalized
    assert simplify_expr(out) == build.plus(
        Var("w"), Var("x"), Var("y"), Var("z"))
