"""Bitmap level (Figure 6c): dense storage plus an occupancy table.

Children are stored densely (position ``p * shape + j``), and a flat
boolean table marks which are meaningful; the rest are backgrounds the
compiler may specialize away.  The unfurl is a Lookup whose *body* is a
per-element Switch — the locate protocol of Figure 6c, which "branches
on whether each value is statically zero" and thereby lets zero
annihilation fire inside random-access loops.
"""

import numpy as np

from repro.formats.level import (
    FiberSlice,
    Level,
    fill_payload,
    fill_slab,
    flat_children,
    stored_mask,
)
from repro.ir import build
from repro.ir.nodes import Literal, Load
from repro.looplets import Case, Lookup, Switch
from repro.util.errors import FormatError


class BitmapLevel(Level):
    """Densely stored children guarded by a boolean occupancy table."""

    NAME = "bitmap"
    ARRAYS = ("tbl",)

    def __init__(self, shape, child, tbl):
        super().__init__(shape, child)
        self.tbl = np.ascontiguousarray(tbl, dtype=bool)
        if self.tbl.ndim != 1:
            raise FormatError("tbl must be a flat boolean array")
        if self.shape and len(self.tbl) % self.shape != 0:
            raise FormatError("tbl length must be a multiple of the shape")

    @classmethod
    def build(cls, slab, dim, fill):
        return {"tbl": stored_mask(slab, fill).ravel()}, flat_children(slab)

    def unfurl(self, ctx, pos, proto="walk"):
        self.resolve_protocol(proto)
        tbl_buf = ctx.buffer(self.tbl, "tbl")
        base = build.times(pos, self.shape)

        def body(j):
            slot = build.plus(base, j)
            return Switch([
                Case(Load(tbl_buf, slot), FiberSlice(self.child, slot)),
                Case(Literal(True), fill_payload(self)),
            ])

        return Lookup(body)

    def locate(self, ctx, pos, idx):
        return build.plus(build.times(pos, self.shape), idx)

    def fiber_count(self):
        return len(self.tbl) // max(self.shape, 1)

    def child_count(self, nfibers):
        return nfibers * self.shape

    def densify(self, nfibers, children):
        out = fill_slab(self, nfibers, children)
        slots = out.reshape(children.shape)
        slots[self.tbl] = children[self.tbl]
        return out

    def __repr__(self):
        return "BitmapLevel(%d)" % self.shape
