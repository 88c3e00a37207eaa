"""Ragged level (Figure 3e): a stored prefix followed by fill.

Fiber ``p`` stores its first ``pos[p+1] - pos[p]`` children
contiguously; the remainder of the dimension is fill.  This is the
CoRa-style ragged-array structure, expressed here as an ordinary level
whose unfurl is Pipeline(Lookup, Run(fill)).
"""

import numpy as np

from repro.formats.level import (
    FiberSlice,
    Level,
    fill_payload,
    fill_slab,
    offsets,
    stored_mask,
    stored_span,
)
from repro.ir import build
from repro.ir.nodes import Load
from repro.looplets import Lookup, Phase, Pipeline, Run
from repro.util.errors import FormatError


class RaggedLevel(Level):
    """Per-fiber prefix lengths (dense rows of varying width)."""

    NAME = "ragged"
    ARRAYS = ("pos",)

    def __init__(self, shape, child, pos):
        super().__init__(shape, child)
        self.pos = np.ascontiguousarray(pos, dtype=np.int64)
        width = self.pos[1:] - self.pos[:-1]
        bad = (width < 0) | (width > self.shape)
        if bad.any():
            raise FormatError("fiber %d width out of bounds" % bad.argmax())

    @classmethod
    def build(cls, slab, dim, fill):
        width = stored_span(stored_mask(slab, fill))[1]
        prefix = np.arange(dim) < width[:, None]
        return {"pos": offsets(width)}, slab[prefix]

    def unfurl(self, ctx, pos, proto="walk"):
        self.resolve_protocol(proto)
        pos_buf = ctx.buffer(self.pos, "pos")
        q0 = ctx.assign("q0", Load(pos_buf, pos))
        width = ctx.assign(
            "width", build.minus(Load(pos_buf, build.plus(pos, 1)), q0))

        def prefix(j):
            return FiberSlice(self.child, build.plus(q0, j))

        return Pipeline([
            Phase(Lookup(prefix), stride=width),
            Phase(Run(fill_payload(self))),
        ])

    def densify(self, nfibers, children):
        out = fill_slab(self, nfibers, children)
        width = self.pos[1:] - self.pos[:-1]
        out[np.arange(self.shape) < width[:, None]] = children
        return out

    def __repr__(self):
        return "RaggedLevel(%d)" % self.shape
