"""Scalar expression IR, target statement AST, and source emission."""

from repro.ir import asm, build, ops
from repro.ir.emit import emit
from repro.ir.nodes import (
    Call,
    Expr,
    Extent,
    Literal,
    Load,
    Reduce,
    Slice,
    Var,
    as_expr,
    substitute,
)
from repro.ir.ops import MISSING, Op, all_ops, get_op, register_op
from repro.ir.pretty import expr_source

__all__ = [
    "asm",
    "build",
    "ops",
    "emit",
    "Call",
    "Expr",
    "Extent",
    "Literal",
    "Load",
    "Reduce",
    "Slice",
    "Var",
    "as_expr",
    "substitute",
    "MISSING",
    "Op",
    "all_ops",
    "get_op",
    "register_op",
    "expr_source",
]
