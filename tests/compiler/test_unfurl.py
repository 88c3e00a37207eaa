"""Unit tests for access unfurling and index-modifier wrapping."""

import numpy as np
import pytest

import repro.lang as fl
from repro.cin.builders import access, offset, permit, window
from repro.compiler.context import Context
from repro.compiler.unfurl import (
    Unfurled,
    access_leads_with,
    payload_to_expr,
    unfurl_access,
)
from repro.formats.level import FiberSlice
from repro.ir import Literal, MISSING, Var
from repro.looplets import Pipeline, Run
from repro.util.errors import LoweringError


@pytest.fixture
def ctx():
    return Context()


def sparse_tensor(n=10, name="A"):
    vec = np.zeros(n)
    vec[[1, 4]] = [1.0, 2.0]
    return fl.from_numpy(vec, ("sparse",), name=name)


class TestLeadingIndex:
    def test_plain_index(self):
        A = sparse_tensor()
        assert access_leads_with(A[Var("i")], "i")
        assert not access_leads_with(A[Var("i")], "j")

    def test_through_modifiers(self):
        A = sparse_tensor()
        acc = access(A, permit(offset(Var("i"), 2)))
        assert access_leads_with(acc, "i")

    def test_scalar_access_never_leads(self):
        C = fl.Scalar(name="C")
        assert not access_leads_with(C[()], "i")


class TestUnfurlAccess:
    def test_plain_sparse_access(self, ctx):
        A = sparse_tensor()
        node = unfurl_access(ctx, A[Var("i")], "i")
        assert isinstance(node, Unfurled)
        assert node.index == "i"
        assert node.rest == ()
        assert isinstance(node.looplet, Pipeline)

    def test_matrix_access_keeps_rest(self, ctx):
        mat = np.zeros((3, 4))
        A = fl.from_numpy(mat, ("dense", "sparse"), name="A")
        node = unfurl_access(ctx, A[Var("i"), Var("j")], "i")
        assert node.rest == (Var("j"),)

    def test_permit_wraps_with_missing_phases(self, ctx):
        A = sparse_tensor()
        node = unfurl_access(ctx, access(A, permit(Var("i"))), "i")
        pipe = node.looplet
        assert isinstance(pipe, Pipeline)
        assert len(pipe.phases) == 3
        first = pipe.phases[0].body
        assert isinstance(first, Run)
        assert first.body == Literal(MISSING)

    def test_window_truncates_and_shifts(self, ctx):
        vec = np.arange(10.0)
        A = fl.from_numpy(vec, ("dense",), name="A")
        node = unfurl_access(ctx, access(A, window(Var("i"), 3, 7)), "i")
        # A windowed dense lookup reads parent coordinate lo + i.
        body = node.looplet.body(Literal(0))
        assert isinstance(body, FiberSlice)

    def test_opaque_index_rejected(self, ctx):
        A = sparse_tensor()
        acc = access(A, Literal(3))
        with pytest.raises(LoweringError):
            unfurl_access(ctx, acc, "i")

    def test_zero_dim_tensor_rejected(self, ctx):
        C = fl.Scalar(name="C")
        from repro.cin.nodes import Access

        with pytest.raises(LoweringError):
            unfurl_access(ctx, Access(C, (Var("i"),)), "i")


class TestPayloadToExpr:
    def test_terminal_slice_becomes_load(self, ctx):
        A = sparse_tensor()
        node = unfurl_access(ctx, A[Var("i")], "i")
        slice_ = FiberSlice(A.element, Literal(0))
        expr = payload_to_expr(ctx, slice_, node)
        from repro.ir import Load

        assert isinstance(expr, Load)

    def test_missing_scalar_propagates_through_rest(self, ctx):
        mat = np.zeros((3, 4))
        A = fl.from_numpy(mat, ("dense", "sparse"), name="A")
        node = unfurl_access(ctx, A[Var("i"), Var("j")], "i")
        out = payload_to_expr(ctx, Literal(MISSING), node)
        assert out == Literal(MISSING)

    def test_plain_scalar_with_rest_rejected(self, ctx):
        mat = np.zeros((3, 4))
        A = fl.from_numpy(mat, ("dense", "sparse"), name="A")
        node = unfurl_access(ctx, A[Var("i"), Var("j")], "i")
        with pytest.raises(LoweringError):
            payload_to_expr(ctx, Literal(1.0), node)

    def test_looplet_payload_rejected(self, ctx):
        A = sparse_tensor()
        node = unfurl_access(ctx, A[Var("i")], "i")
        with pytest.raises(LoweringError):
            payload_to_expr(ctx, Run(Literal(0.0)), node)

    def test_nonterminal_slice_builds_access(self, ctx):
        mat = np.zeros((3, 4))
        mat[1, 2] = 5.0
        A = fl.from_numpy(mat, ("dense", "sparse"), name="A")
        node = unfurl_access(ctx, A[Var("i"), Var("j")], "i")
        slice_ = FiberSlice(A.levels[1], Literal(1))
        from repro.cin.nodes import Access

        out = payload_to_expr(ctx, slice_, node)
        assert isinstance(out, Access)
        assert out.idxs == (Var("j"),)


class TestContext:
    def test_buffer_binding_is_stable(self, ctx):
        data = np.zeros(3)
        first = ctx.buffer(data, "buf")
        second = ctx.buffer(data, "other_hint")
        assert first == second
        assert len(ctx.bound_buffers()) == 1

    def test_distinct_arrays_get_distinct_names(self, ctx):
        a, b = np.zeros(3), np.zeros(3)
        assert ctx.buffer(a, "buf") != ctx.buffer(b, "buf")

    def test_scalar_ref_reuse(self, ctx):
        C = fl.Scalar(name="C")
        assert ctx.scalar_ref(C) == ctx.scalar_ref(C)

    def test_scalar_output_marking(self, ctx):
        C = fl.Scalar(name="C")
        ctx.scalar_ref(C)
        ctx.mark_scalar_output(C)
        (var, tensor, is_output), = ctx.scalar_bindings()
        assert is_output and tensor is C

    def test_scoped_emission(self, ctx):
        from repro.ir import asm

        block = ctx.scoped(lambda: ctx.emit(asm.AssignStmt("x", 1)))
        assert len(block.stmts) == 1
        assert ctx.take_block().is_nop()
