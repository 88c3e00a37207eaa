"""Variable block list level (the paper's 1D-VBL, Figure 3b).

Fiber ``p`` stores several maximal contiguous blocks of non-fill
children.  Blocks ``b ∈ [pos[p], pos[p+1])`` each end (exclusive) at
index ``end[b]`` and hold children at positions ``[ofs[b], ofs[b+1])``,
so the block's width is ``ofs[b+1] - ofs[b]`` and it starts at
``end[b] - width``.

Unfurls as a Stepper over blocks, each block a Pipeline of Run(fill)
followed by a dense Lookup — so coiteration touches each *block* once
rather than each element, giving the VBL speedups of Figure 7 when the
other operand is very sparse.
"""

import numpy as np

from repro.formats.level import (
    FiberSlice,
    Level,
    fiber_of,
    fill_payload,
    fill_slab,
    flat_children,
    offsets,
    stored_mask,
)
from repro.ir import asm, build, ops
from repro.ir.nodes import Call, Literal, Load
from repro.looplets import (Case, Jumper, Lookup, Phase, Pipeline, Run,
                            Stepper, Switch)
from repro.util.errors import FormatError


class SparseVBLLevel(Level):
    """Multiple variable-width dense blocks per fiber."""

    NAME = "vbl"
    ARRAYS = ("pos", "end", "ofs")
    BOUNDS = {"end": (1, 0)}
    PROTOCOLS = ("walk", "gallop")

    def __init__(self, shape, child, pos, end, ofs):
        super().__init__(shape, child)
        self.pos = np.ascontiguousarray(pos, dtype=np.int64)
        self.end = np.ascontiguousarray(end, dtype=np.int64)
        self.ofs = np.ascontiguousarray(ofs, dtype=np.int64)
        if len(self.ofs) != len(self.end) + 1:
            raise FormatError("ofs must have one extra sentinel entry")
        if len(self.pos) == 0 or self.pos[-1] != len(self.end):
            raise FormatError("pos must end at the block count")
        width = self.ofs[1:] - self.ofs[:-1]
        bad = (width <= 0) | (self.end - width < 0) | (self.end > self.shape)
        if bad.any():
            raise FormatError("block %d malformed" % bad.argmax())

    @classmethod
    def build(cls, slab, dim, fill):
        flat = stored_mask(slab, fill).ravel().nonzero()[0]
        col = flat % dim
        # A stored child opens a block unless its left neighbour in the
        # same fiber is stored too, and closes one where the next opens;
        # ofs is the child position at each opening, and at the end.
        opens = np.ones(len(flat) + 1, dtype=bool)
        opens[1:-1] = (flat[1:] != flat[:-1] + 1) | (col[1:] == 0)
        blocks = np.bincount(flat[opens[:-1]] // dim, minlength=len(slab))
        return ({"pos": offsets(blocks), "end": col[opens[1:]] + 1,
                 "ofs": opens.nonzero()[0]}, flat_children(slab)[flat])

    def unfurl(self, ctx, pos, proto="walk"):
        proto = self.resolve_protocol(proto)
        pos_buf = ctx.buffer(self.pos, "pos")
        end_buf = self.bind(ctx, "end")
        ofs_buf = ctx.buffer(self.ofs, "ofs")
        b = ctx.assign("b", Load(pos_buf, pos))
        b_stop = ctx.assign("b_stop", Load(pos_buf, build.plus(pos, 1)))

        block_end = Load(end_buf, b)
        block_start = build.minus(
            block_end, build.minus(Load(ofs_buf, build.plus(b, 1)),
                                   Load(ofs_buf, b)))

        def block_child(j):
            # Child position: ofs[b+1] - (end[b] - j).
            return FiberSlice(self.child, build.minus(
                build.plus(Load(ofs_buf, build.plus(b, 1)), j), block_end))

        def block_pipeline():
            return Pipeline([
                Phase(Run(fill_payload(self)), stride=block_start),
                Phase(Lookup(block_child)),
            ])

        def seek(ctx, start):
            # First block with end > start, i.e. end >= start + 1.
            search = Call(ops.SEARCH_GE,
                          [end_buf, b, b_stop, build.plus(start, 1)])
            return [asm.AssignStmt(b, search)]

        def advance(ctx):
            return [asm.AccumStmt(b, ops.ADD, 1)]

        stored_stop = Call(ops.IFELSE, [
            build.gt(b_stop, b),
            Load(end_buf, build.minus(b_stop, 1)),
            Literal(0),
        ])

        def make_stepper():
            return Stepper(stride=block_end, body=block_pipeline(),
                           seek=seek, next=advance)

        if proto == "walk":
            stored = make_stepper()
        else:
            # Gallop: lead by whole blocks; when the merged region ends
            # exactly at this block, contribute the block pipeline,
            # otherwise fall back to an inner stepper that seeks.
            def jumper_body(ctx, ext):
                exact = build.eq(ext.stop, block_end)
                return Switch([
                    Case(exact, block_pipeline()),
                    Case(Literal(True), make_stepper()),
                ])

            stored = Jumper(stride=block_end, body=jumper_body,
                            seek=seek, next=advance)

        return Pipeline([
            Phase(stored, stride=stored_stop),
            Phase(Run(fill_payload(self))),
        ])

    def child_count(self, nfibers):
        return int(self.ofs[-1])

    def densify(self, nfibers, children):
        out = fill_slab(self, nfibers, children)
        block = fiber_of(self.ofs)
        # Child q of block b sits at column end[b] - (ofs[b + 1] - q).
        cols = (self.end - self.ofs[1:])[block] + np.arange(len(block))
        out[fiber_of(self.pos)[block], cols] = children
        return out

    def __repr__(self):
        return "SparseVBLLevel(%d, blocks=%d)" % (self.shape, len(self.end))
