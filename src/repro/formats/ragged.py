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
    is_fill,
    subtree_dtype,
    subtree_shape,
)
from repro.ir import asm, build
from repro.ir.nodes import Load, Var
from repro.looplets import Lookup, Phase, Pipeline, Run
from repro.util.errors import FormatError


class RaggedLevel(Level):
    """Per-fiber prefix lengths (dense rows of varying width)."""

    NAME = "ragged"
    ARRAYS = ("pos",)
    PROTOCOLS = ("walk",)
    DEFAULT_PROTOCOL = "walk"

    def __init__(self, shape, child, pos):
        super().__init__(shape, child)
        self.pos = np.asarray(pos, dtype=np.int64)
        for p in range(len(self.pos) - 1):
            width = self.pos[p + 1] - self.pos[p]
            if width < 0 or width > self.shape:
                raise FormatError("fiber %d width out of bounds" % p)

    @classmethod
    def build(cls, slices, dim, fill):
        pos = [0]
        children = []
        for s in slices:
            width = dim
            while width > 0 and is_fill(s[width - 1], fill):
                width -= 1
            children.extend(s[j] for j in range(width))
            pos.append(len(children))
        return {"pos": pos}, children

    def unfurl(self, ctx, pos, proto=None):
        self.resolve_protocol(proto)
        pos_buf = ctx.buffer(self.pos, "pos")
        q0 = Var(ctx.freshen("q0"))
        width = Var(ctx.freshen("width"))
        ctx.emit(asm.AssignStmt(q0, Load(pos_buf, pos)))
        ctx.emit(asm.AssignStmt(
            width, build.minus(Load(pos_buf, build.plus(pos, 1)), q0)))

        def prefix(j):
            return FiberSlice(self.child, build.plus(q0, j))

        return Pipeline([
            Phase(Lookup(prefix), stride=width),
            Phase(Run(fill_payload(self))),
        ])

    def fiber_to_numpy(self, pos):
        shape = (self.shape,) + subtree_shape(self.child)
        out = np.full(shape, self.fill, dtype=subtree_dtype(self.child))
        for j in range(self.pos[pos + 1] - self.pos[pos]):
            out[j] = self.child.fiber_to_numpy(self.pos[pos] + j)
        return out

    def __repr__(self):
        return "RaggedLevel(%d)" % self.shape
