"""Fixpoint rewrite engine over scalar expressions.

The engine rewrites bottom-up: children first, then the node itself,
repeating at each node until no rule fires.  A global iteration bound
guards against non-terminating user rule sets — hitting it raises
rather than silently returning half-simplified IR.

Each node is offered only the rules that can rewrite it: a rule set is
indexed once, and a call meets the rules declaring its operator
(:func:`repro.rewrite.rules.rewrites`) and the undeclared ones, in
their order in the set; any other node meets the undeclared ones alone.

The rules are scalar algebra, so they stop at vectors: a slice's bounds
and a vector call's scalar operands are simplified like anything else,
but no rule is applied to a vector node (``v / v => 1`` would change
its length, and the sum a reduction returns).

Every node a default-rules call returns is marked as a normal form in
its ``_simple`` slot (a cache, like a statement's ``_effects``): a
marked node is returned as it is, so an expression that did not change
since the last optimizer round is not rewritten again.  The mark means
"no rule of ``DEFAULT_EXPR_RULES`` fires here", so a call with any
other rule set ignores it.
"""

from repro.ir.nodes import Call, Expr
from repro.rewrite.rules import DEFAULT_EXPR_RULES
from repro.util.errors import ReproError

_MAX_NODE_ITERATIONS = 100


class _RuleIndex:
    """A rule set split by the nodes each rule can rewrite."""

    def __init__(self, rules):
        self.rules = rules
        self.default = _identities(rules) == _identities(DEFAULT_EXPR_RULES)
        self.anywhere = tuple(rule for rule in rules
                              if getattr(rule, "rewrites", None) is None)
        self._by_op = {}

    def rules_for(self, expr):
        """The rules that can rewrite ``expr``, in set order."""
        if not isinstance(expr, Call):
            return self.anywhere
        op = expr.op
        try:
            return self._by_op[op]
        except KeyError:
            found = self._by_op[op] = tuple(
                rule for rule in self.rules
                if getattr(rule, "rewrites", None) is None
                or rule.rewrites(op))
            return found


def _identities(rules):
    return tuple(map(id, rules))


#: Rule indexes by the identities of their rules, so a rule need not be
#: hashable; an index holds its rules, so their identities stay theirs
#: while it is here.  Emptied when it reaches 32.
_INDEXES = {}


def _index(rules):
    key = _identities(rules)
    index = _INDEXES.get(key)
    if index is None:
        if len(_INDEXES) >= 32:
            _INDEXES.clear()
        index = _INDEXES[key] = _RuleIndex(rules)
    return index


def simplify_expr(expr, rules=DEFAULT_EXPR_RULES):
    """Simplify ``expr`` to a fixpoint of ``rules``."""
    if not isinstance(expr, Expr):
        raise ReproError("simplify_expr expects an Expr, got %r" % (expr,))
    return _simplify(expr, _index(tuple(rules)))


def _simplify(expr, index):
    default = index.default
    for _ in range(_MAX_NODE_ITERATIONS):
        if default and getattr(expr, "_simple", False):
            return expr
        # A rule may build brand-new subtrees; normalize them too.
        expr = _simplify_children(expr, index)
        rules = () if expr.vector else index.rules_for(expr)
        replacement = _apply_first(expr, rules) if rules else None
        if replacement is None:
            if default:
                expr._simple = True
            return expr
        expr = replacement
    raise ReproError("rewrite did not reach a fixpoint at %r" % (expr,))


def _simplify_children(expr, index):
    children = expr.children()
    if not children:
        return expr
    new_children = [_simplify(child, index) for child in children]
    if any(new is not old for new, old in zip(new_children, children)):
        expr = expr.rebuild(new_children)
    return expr


def _apply_first(expr, rules):
    for rule in rules:
        replacement = rule(expr)
        if replacement is not None and replacement != expr:
            return replacement
    return None
