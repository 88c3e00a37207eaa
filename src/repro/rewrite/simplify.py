"""Fixpoint rewrite engine over scalar expressions.

The engine rewrites bottom-up: children first, then the node itself,
repeating at each node until no rule fires.  A global iteration bound
guards against non-terminating user rule sets — hitting it raises
rather than silently returning half-simplified IR.

The rules are scalar algebra, so they stop at vectors: a slice's bounds
and a vector call's scalar operands are simplified like anything else,
but no rule is applied to a vector node (``v / v => 1`` would change
its length, and the sum a reduction returns).
"""

from repro.ir.nodes import Expr
from repro.rewrite.rules import DEFAULT_EXPR_RULES
from repro.util.errors import ReproError

_MAX_NODE_ITERATIONS = 100


def simplify_expr(expr, rules=DEFAULT_EXPR_RULES):
    """Simplify ``expr`` to a fixpoint of ``rules``."""
    if not isinstance(expr, Expr):
        raise ReproError("simplify_expr expects an Expr, got %r" % (expr,))
    return _simplify(expr, tuple(rules))


def _simplify(expr, rules):
    children = expr.children()
    if children:
        new_children = [_simplify(child, rules) for child in children]
        if any(new is not old for new, old in zip(new_children, children)):
            expr = expr.rebuild(new_children)
    if expr.vector:
        return expr
    for _ in range(_MAX_NODE_ITERATIONS):
        replacement = _apply_first(expr, rules)
        if replacement is None:
            return expr
        # A rule may build brand-new subtrees; normalize them too.
        expr = _simplify_children(replacement, rules)
    raise ReproError("rewrite did not reach a fixpoint at %r" % (expr,))


def _simplify_children(expr, rules):
    children = expr.children()
    if not children:
        return expr
    new_children = [_simplify(child, rules) for child in children]
    if any(new is not old for new, old in zip(new_children, children)):
        expr = expr.rebuild(new_children)
    return expr


def _apply_first(expr, rules):
    for rule in rules:
        replacement = rule(expr)
        if replacement is not None and replacement != expr:
            return replacement
    return None
