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
    is_fill,
    subtree_dtype,
    subtree_shape,
)
from repro.ir import asm, build
from repro.ir.nodes import Load, Var
from repro.looplets import Lookup, Phase, Pipeline, Run
from repro.util.errors import FormatError


class SparseBandLevel(Level):
    """A single contiguous band of non-fill children per fiber."""

    NAME = "band"
    ARRAYS = ("pos", "lo")
    PROTOCOLS = ("walk",)
    DEFAULT_PROTOCOL = "walk"

    def __init__(self, shape, child, pos, lo):
        super().__init__(shape, child)
        self.pos = np.asarray(pos, dtype=np.int64)
        self.lo = np.asarray(lo, dtype=np.int64)
        if len(self.lo) != len(self.pos) - 1:
            raise FormatError("need one band start per fiber")
        for p in range(len(self.lo)):
            width = self.pos[p + 1] - self.pos[p]
            if width < 0 or self.lo[p] < 0 or self.lo[p] + width > self.shape:
                raise FormatError("band %d out of bounds" % p)

    @classmethod
    def build(cls, slices, dim, fill):
        pos = [0]
        lo = []
        children = []
        for s in slices:
            stored = [j for j in range(dim) if not is_fill(s[j], fill)]
            if stored:
                first, last = stored[0], stored[-1]
                lo.append(first)
                children.extend(s[j] for j in range(first, last + 1))
            else:
                lo.append(0)
            pos.append(len(children))
        return {"pos": pos, "lo": lo}, children

    def unfurl(self, ctx, pos, proto=None):
        self.resolve_protocol(proto)
        pos_buf = ctx.buffer(self.pos, "pos")
        lo_buf = ctx.buffer(self.lo, "lo")
        q0 = Var(ctx.freshen("q0"))
        lo = Var(ctx.freshen("lo"))
        hi = Var(ctx.freshen("hi"))
        ctx.emit(asm.AssignStmt(q0, Load(pos_buf, pos)))
        ctx.emit(asm.AssignStmt(lo, Load(lo_buf, pos)))
        width = build.minus(Load(pos_buf, build.plus(pos, 1)), q0)
        ctx.emit(asm.AssignStmt(hi, build.plus(lo, width)))

        def band(j):
            return FiberSlice(self.child, build.plus(q0, build.minus(j, lo)))

        return Pipeline([
            Phase(Run(fill_payload(self)), stride=lo),
            Phase(Lookup(band), stride=hi),
            Phase(Run(fill_payload(self))),
        ])

    def fiber_to_numpy(self, pos):
        shape = (self.shape,) + subtree_shape(self.child)
        out = np.full(shape, self.fill, dtype=subtree_dtype(self.child))
        lo = self.lo[pos]
        for offset, q in enumerate(range(self.pos[pos], self.pos[pos + 1])):
            out[lo + offset] = self.child.fiber_to_numpy(q)
        return out

    def __repr__(self):
        return "SparseBandLevel(%d)" % self.shape
