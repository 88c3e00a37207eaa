"""Tests for the CIN text parser."""

import numpy as np
import pytest

import repro.lang as fl
from repro.cin.nodes import (
    Access,
    Assign,
    Forall,
    OffsetExpr,
    PermitExpr,
    WindowExpr,
)
from repro.cin.parser import parse
from repro.ir import Call, Literal, Var
from repro.util.errors import ParseError


@pytest.fixture
def tensors():
    return {
        "A": fl.from_numpy(np.zeros((4, 5)), ("dense", "sparse"),
                           name="A"),
        "x": fl.from_numpy(np.zeros(5), ("sparse",), name="x"),
        "y": fl.zeros(4, name="y"),
        "C": fl.Scalar(name="C"),
    }


class TestStructure:
    def test_spmv(self, tensors):
        stmt = parse("forall i, j: y[i] += A[i, j] * x[j]", tensors)
        assert isinstance(stmt, Forall)
        assert stmt.index == Var("i")
        inner = stmt.body
        assert isinstance(inner, Forall)
        assert inner.index == Var("j")
        assign = inner.body
        assert isinstance(assign, Assign)
        assert assign.op.name == "add"
        assert assign.lhs.tensor is tensors["y"]

    def test_scalar_output(self, tensors):
        stmt = parse("forall i, j: C[] += A[i, j]", tensors)
        assign = stmt.body.body
        assert assign.lhs.tensor is tensors["C"]
        assert assign.lhs.idxs == ()

    def test_protocols(self, tensors):
        stmt = parse("forall j: C[] += x[j::gallop]", tensors)
        assign = stmt.body
        accesses = [assign.rhs] if isinstance(assign.rhs, Access) else []
        assert accesses[0].protocols == ("gallop",)

    def test_explicit_extent(self, tensors):
        stmt = parse("forall j in 0:3: C[] += x[j]", tensors)
        assert stmt.ext is not None
        assert stmt.ext.stop == Literal(3)

    def test_modifiers(self, tensors):
        stmt = parse("forall i, j: y[i] += "
                     "coalesce(x[permit(offset(j, 2 - i))], 0)", tensors)
        assign = stmt.body.body
        call = assign.rhs
        assert call.op.name == "coalesce"
        idx = call.args[0].idxs[0]
        assert isinstance(idx, PermitExpr)
        assert isinstance(idx.base, OffsetExpr)

    def test_window(self, tensors):
        stmt = parse("forall k: C[] += x[window(k, 1, 4)]", tensors)
        idx = stmt.body.rhs.idxs[0]
        assert isinstance(idx, WindowExpr)
        assert idx.lo == Literal(1)

    def test_reduction_ops(self, tensors):
        stmt = parse("forall j: C[] max= x[j]", tensors)
        assert stmt.body.op.name == "max"

    def test_comparison_and_logic(self, tensors):
        stmt = parse("forall i, j: C[] += (A[i, j] != 0) && (x[j] > 1)",
                     tensors)
        rhs = stmt.body.body.rhs
        assert isinstance(rhs, Call) and rhs.op.name == "and"

    def test_scalar_parameters(self, tensors):
        stmt = parse("forall j: C[] += alpha * x[j]", tensors,
                     scalars={"alpha": 0.5})
        rhs = stmt.body.rhs
        assert Literal(0.5) in rhs.args


class TestErrors:
    def test_unknown_protocol(self, tensors):
        with pytest.raises(ParseError):
            parse("forall j: C[] += x[j::zigzag]", tensors)

    @pytest.mark.parametrize("proto", ["follow", "locate"])
    def test_walk_and_gallop_are_the_only_protocols(self, tensors, proto):
        with pytest.raises(ParseError, match="unknown protocol"):
            parse("forall j: C[] += x[j::%s]" % proto, tensors)

    def test_bad_character(self, tensors):
        with pytest.raises(ParseError):
            parse("forall j: C[] += x[j] @ 2", tensors)

    def test_missing_colon(self, tensors):
        with pytest.raises(ParseError):
            parse("forall j C[] += x[j]", tensors)

    def test_assign_to_expression(self, tensors):
        with pytest.raises(ParseError):
            parse("forall j: 3 += x[j]", tensors)

    def test_trailing_garbage(self, tensors):
        with pytest.raises(ParseError):
            parse("forall j: C[] += x[j] x", tensors)

    def test_tensor_without_indices(self, tensors):
        with pytest.raises(ParseError):
            parse("forall j: C[] += A", tensors)

    def test_error_carries_location(self, tensors):
        with pytest.raises(ParseError) as info:
            parse("forall j: C[] += x[j::zigzag]", tensors)
        assert "line 1" in str(info.value)


class TestEndToEnd:
    def test_parsed_spmv_executes(self, tensors):
        rng = np.random.default_rng(0)
        mat = rng.random((4, 5))
        vec = rng.random(5)
        A = fl.from_numpy(mat, ("dense", "sparse"), name="A")
        x = fl.from_numpy(vec, ("sparse",), name="x")
        y = fl.zeros(4, name="y")
        stmt = parse("forall i, j: y[i] += A[i, j] * x[j]",
                     {"A": A, "x": x, "y": y})
        fl.execute(stmt)
        np.testing.assert_allclose(y.to_numpy(), mat @ vec)

    def test_parsed_gallop_dot(self):
        rng = np.random.default_rng(1)
        a = rng.random(40); a[a < 0.7] = 0
        b = rng.random(40); b[b < 0.7] = 0
        A = fl.from_numpy(a, ("sparse",), name="A")
        B = fl.from_numpy(b, ("sparse",), name="B")
        C = fl.Scalar(name="C")
        stmt = parse("forall i: C[] += A[i::gallop] * B[i::gallop]",
                     {"A": A, "B": B, "C": C})
        fl.execute(stmt)
        assert C.value == pytest.approx(float(a @ b))

    def test_parsed_convolution(self):
        rng = np.random.default_rng(2)
        a = rng.random(20); a[a < 0.5] = 0
        filt = np.array([0.25, 0.5, 0.25])
        A = fl.from_numpy(a, ("sparse",), name="A")
        F = fl.from_numpy(filt, ("dense",), name="F")
        B = fl.zeros(20, name="B")
        stmt = parse(
            "forall i, j in 0:3: B[i] += "
            "coalesce(A[permit(offset(j, 1 - i))], 0) * "
            "coalesce(F[permit(j)], 0)",
            {"A": A, "F": F, "B": B})
        fl.execute(stmt)
        np.testing.assert_allclose(B.to_numpy(),
                                   np.convolve(a, filt[::-1], mode="same"),
                                   atol=1e-12)
