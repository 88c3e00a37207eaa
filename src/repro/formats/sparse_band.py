"""Sparse band level (Figure 3f): one contiguous block per fiber.

Fiber ``p`` stores a single variably-wide band of children starting at
index ``lo[p]``; the band's children sit at positions ``[pos[p],
pos[p+1])``.  Unfurls as Run(fill) / Lookup / Run(fill) — exposing the
dense interior to the compiler, which is precisely what the motivating
example (Figure 1) exploits to skip ahead and randomly access the band.
"""

import numpy as np

from repro.formats.level import (
    FiberSlice,
    Level,
    fill_payload,
    fill_slab,
    offsets,
    span_mask,
    stored_mask,
    stored_span,
)
from repro.ir import build
from repro.ir.nodes import Load
from repro.looplets import Lookup, Phase, Pipeline, Run
from repro.util.errors import FormatError


class SparseBandLevel(Level):
    """A single contiguous band of non-fill children per fiber."""

    NAME = "band"
    ARRAYS = ("pos", "lo")

    def __init__(self, shape, child, pos, lo):
        super().__init__(shape, child)
        self.pos = np.ascontiguousarray(pos, dtype=np.int64)
        self.lo = np.ascontiguousarray(lo, dtype=np.int64)
        if len(self.lo) != len(self.pos) - 1:
            raise FormatError("need one band start per fiber")
        width = self.pos[1:] - self.pos[:-1]
        bad = (width < 0) | (self.lo < 0) | (self.lo + width > self.shape)
        if bad.any():
            raise FormatError("band %d out of bounds" % bad.argmax())

    @classmethod
    def build(cls, slab, dim, fill):
        first, stop = stored_span(stored_mask(slab, fill))
        lo = np.where(stop > 0, first, 0)
        return ({"pos": offsets(stop - lo), "lo": lo},
                slab[span_mask(dim, lo, stop)])

    def unfurl(self, ctx, pos, proto="walk"):
        self.resolve_protocol(proto)
        pos_buf = ctx.buffer(self.pos, "pos")
        lo_buf = ctx.buffer(self.lo, "lo")
        q0 = ctx.assign("q0", Load(pos_buf, pos))
        lo = ctx.assign("lo", Load(lo_buf, pos))
        width = build.minus(Load(pos_buf, build.plus(pos, 1)), q0)
        hi = ctx.assign("hi", build.plus(lo, width))

        def band(j):
            return FiberSlice(self.child, build.plus(q0, build.minus(j, lo)))

        return Pipeline([
            Phase(Run(fill_payload(self)), stride=lo),
            Phase(Lookup(band), stride=hi),
            Phase(Run(fill_payload(self))),
        ])

    def densify(self, nfibers, children):
        out = fill_slab(self, nfibers, children)
        stop = self.lo + self.pos[1:] - self.pos[:-1]
        out[span_mask(self.shape, self.lo, stop)] = children
        return out

    def __repr__(self):
        return "SparseBandLevel(%d)" % self.shape
