"""Structure tests: each format unfurls into the Figure 3 looplet nest.

These assert the *shape* of the looplet trees the formats produce —
the code in Figure 3's right-hand column — independent of lowering.
"""

import numpy as np
import pytest

import repro.lang as fl
from repro.compiler.context import Context
from repro.formats.level import FiberSlice, FillFiber
from repro.ir import Literal
from repro.looplets import (
    Jumper,
    Lookup,
    Pipeline,
    Run,
    Spike,
    Stepper,
    Switch,
)


@pytest.fixture
def ctx():
    return Context()


def unfurl_vector(vec, fmt, ctx, proto="walk"):
    tensor = fl.from_numpy(np.asarray(vec, dtype=float), (fmt,), name="T")
    return tensor.levels[0].unfurl(ctx, Literal(0), proto)


class TestSparseList:
    """Figure 3d: Pipeline(Phase(Stepper(Spike)), Phase(Run(0)))."""

    def test_walk_structure(self, ctx):
        nest = unfurl_vector([0, 1, 0, 2, 0], "sparse", ctx)
        assert isinstance(nest, Pipeline)
        stored, trailing = nest.phases
        assert isinstance(stored.body, Stepper)
        assert isinstance(trailing.body, Run)
        spike = stored.body.body
        assert isinstance(spike, Spike)
        assert isinstance(spike.body, Literal)  # fill payload
        assert isinstance(spike.tail, FiberSlice)

    def test_gallop_structure(self, ctx):
        """Figure 6a: a Jumper whose body switches between an exact
        Spike and a fallback Stepper."""
        nest = unfurl_vector([0, 1, 0, 2, 0], "sparse", ctx, "gallop")
        stored = nest.phases[0].body
        assert isinstance(stored, Jumper)
        from repro.ir.nodes import Extent, Var

        body = stored.body(ctx, Extent(Var("a"), Var("b")))
        assert isinstance(body, Switch)
        exact, fallback = body.cases
        assert isinstance(exact.body, Spike)
        assert isinstance(fallback.body, Stepper)


class TestBand:
    """Figure 3f: Pipeline(Run(0), Lookup, Run(0))."""

    def test_structure(self, ctx):
        nest = unfurl_vector([0, 0, 1, 2, 3, 0], "band", ctx)
        assert isinstance(nest, Pipeline)
        assert len(nest.phases) == 3
        assert isinstance(nest.phases[0].body, Run)
        assert isinstance(nest.phases[1].body, Lookup)
        assert isinstance(nest.phases[2].body, Run)
        assert nest.phases[2].stride is None


class TestVBL:
    """Figure 3b: Stepper over Pipeline(Run(0), Lookup) blocks."""

    def test_structure(self, ctx):
        nest = unfurl_vector([0, 1, 2, 0, 0, 3, 4, 0], "vbl", ctx)
        assert isinstance(nest, Pipeline)
        stepper = nest.phases[0].body
        assert isinstance(stepper, Stepper)
        block = stepper.body
        assert isinstance(block, Pipeline)
        assert isinstance(block.phases[0].body, Run)
        assert isinstance(block.phases[1].body, Lookup)


class TestRunLength:
    """Figure 3g: a bare Stepper of Runs."""

    def test_structure(self, ctx):
        nest = unfurl_vector([3, 3, 1, 1, 2], "rle", ctx)
        assert isinstance(nest, Stepper)
        assert isinstance(nest.body, Run)
        assert isinstance(nest.body.body, FiberSlice)


class TestPackBits:
    """Figure 3h: Stepper over Switch(Run | Lookup)."""

    def test_structure(self, ctx):
        nest = unfurl_vector([3, 3, 3, 7, 1, 2, 2, 2], "packbits", ctx)
        assert isinstance(nest, Stepper)
        switch = nest.body
        assert isinstance(switch, Switch)
        run_case, literal_case = switch.cases
        assert isinstance(run_case.body, Run)
        assert isinstance(literal_case.body, Lookup)
        assert literal_case.cond == Literal(True)


class TestBitmap:
    """Figure 6c: Lookup of per-element Switch(tbl ? val : 0)."""

    def test_structure(self, ctx):
        nest = unfurl_vector([0, 1, 0, 2], "bitmap", ctx)
        assert isinstance(nest, Lookup)
        element = nest.body(Literal(1))
        assert isinstance(element, Switch)
        hit, miss = element.cases
        assert isinstance(hit.body, FiberSlice)
        assert miss.body == Literal(0.0)


class TestRagged:
    """Figure 3e: Pipeline(Lookup over the prefix, Run(0))."""

    def test_structure(self, ctx):
        nest = unfurl_vector([1, 2, 3, 0, 0], "ragged", ctx)
        assert isinstance(nest, Pipeline)
        assert isinstance(nest.phases[0].body, Lookup)
        assert isinstance(nest.phases[1].body, Run)


class TestTriangularAndSymmetric:
    """Figures 3a and 3c."""

    def test_triangular_row(self, ctx):
        tensor = fl.triangular_from_numpy(np.tril(np.ones((4, 4))))
        nest = tensor.levels[1].unfurl(ctx, Literal(2))
        assert isinstance(nest, Pipeline)
        lower, upper = nest.phases
        assert isinstance(lower.body, Lookup)
        assert isinstance(upper.body, Run)

    def test_symmetric_row(self, ctx):
        sym = np.ones((4, 4))
        tensor = fl.symmetric_from_numpy(sym)
        nest = tensor.levels[1].unfurl(ctx, Literal(2))
        assert isinstance(nest, Pipeline)
        lower, upper = nest.phases
        assert isinstance(lower.body, Lookup)
        assert isinstance(upper.body, Lookup)


class TestDense:
    def test_lookup_structure(self, ctx):
        nest = unfurl_vector([1, 2, 3], "dense", ctx)
        assert isinstance(nest, Lookup)
        payload = nest.body(Literal(2))
        assert isinstance(payload, FiberSlice)


class TestFillFiber:
    def test_unfurls_to_run_of_fill(self, ctx):
        mat = np.zeros((3, 4))
        mat[0, 1] = 1.0
        tensor = fl.from_numpy(mat, ("sparse", "sparse"), name="M")
        fiber = FillFiber(tensor.levels[1])
        nest = fiber.unfurl(ctx)
        assert isinstance(nest, Run)
        assert nest.body == Literal(0.0)


class TestProtocolValidation:
    def test_unsupported_protocol_raises(self, ctx):
        from repro.util.errors import ProtocolError

        tensor = fl.from_numpy(np.zeros(4), ("rle",), name="T")
        with pytest.raises(ProtocolError):
            tensor.levels[0].unfurl(ctx, Literal(0), "gallop")


class TestVBLGallop:
    def test_gallop_structure(self, ctx):
        """VBL leader protocol: a Jumper over blocks, exact case is the
        block pipeline, fallback is the walking stepper."""
        nest = unfurl_vector([0, 1, 2, 0, 0, 3, 0], "vbl", ctx, "gallop")
        stored = nest.phases[0].body
        assert isinstance(stored, Jumper)
        from repro.ir.nodes import Extent, Var

        body = stored.body(ctx, Extent(Var("a"), Var("b")))
        assert isinstance(body, Switch)
        exact, fallback = body.cases
        assert isinstance(exact.body, Pipeline)
        assert isinstance(fallback.body, Stepper)
