"""PackBits level (Figure 3h): runs interleaved with literal blocks.

The PackBITS encoding (standardized in TIFF) alternates two group
kinds: a *run* of one repeated value, or a *literal* block of
unstructured values.  Following the paper, a signed marker array
encodes both: group ``g`` covers up to (exclusively) ``abs(idx[g])``,
and is a run when ``idx[g] > 0``, a literal block otherwise.

Runs consume one stored value; literal blocks consume their width.  We
store ``vof[g]``, the value position where group ``g``'s payload
starts, so seeks (binary search over ``abs(idx)``) can restart mid
fiber — the paper's running offset ``s`` becomes the expression
``left(g) = abs(idx[g-1])`` (or the fiber start for the first group).

The unfurl is a Stepper whose body is a *Switch* between a Run and a
Lookup — exercising switch-inside-stepper lowering.
"""

import numpy as np

from repro.formats.level import (
    FiberSlice,
    Level,
    child_payload,
    flat_children,
    offsets,
)
from repro.formats.rle import check_tiling, run_starts, run_stops, run_widths
from repro.ir import asm, build, ops
from repro.ir.nodes import Call, Literal, Load
from repro.looplets import Case, Lookup, Run, Stepper, Switch
from repro.util.errors import FormatError

#: minimum run length worth a PackBits run group (as in TIFF encoders).
_MIN_RUN = 3


class PackBitsLevel(Level):
    """Alternating runs and literal regions, covering the dimension."""

    NAME = "packbits"
    ARRAYS = ("pos", "idx", "vof")
    LEAF_ONLY = True

    def __init__(self, shape, child, pos, idx, vof):
        super().__init__(shape, child)
        self.pos = np.ascontiguousarray(pos, dtype=np.int64)
        self.idx = np.ascontiguousarray(idx, dtype=np.int64)
        self.vof = np.ascontiguousarray(vof, dtype=np.int64)
        if len(self.pos) == 0 or self.pos[-1] != len(self.idx):
            raise FormatError("pos must end at the group count")
        if len(self.vof) != len(self.idx) + 1:
            raise FormatError("vof needs one sentinel entry")
        check_tiling(self, np.abs(self.idx), "groups")

    @classmethod
    def build(cls, slab, dim, fill):
        starts = run_starts(slab)
        flat = starts.ravel().nonzero()[0]
        left = flat % dim
        right = run_stops(starts)
        width = right - left
        long = width >= _MIN_RUN
        # A long run is a group of its own; the shorter runs between
        # two of them (or a fiber's edge) merge into one literal group.
        # heads marks the run each group opens with, and the end; a
        # group stops where the run before the next head does.
        heads = np.ones(len(flat) + 1, dtype=bool)
        heads[:-1] = long | (left == 0)
        heads[1:-1] |= long[:-1]
        stop = right[heads[1:]]
        # A run group stores its first value, a literal every one; vof
        # is the running count at each head, and at the end.
        stored = offsets(np.where(long, 1, width))
        groups = np.bincount(flat[heads[:-1]] // dim, minlength=len(slab))
        return ({"pos": offsets(groups),
                 "idx": np.where(long[heads[:-1]], stop, -stop),
                 "vof": stored[heads]},
                flat_children(slab)[starts.ravel() | ~long.repeat(width)])

    def unfurl(self, ctx, pos, proto="walk"):
        self.resolve_protocol(proto)
        pos_buf = ctx.buffer(self.pos, "pos")
        idx_buf = ctx.buffer(self.idx, "idx")
        vof_buf = ctx.buffer(self.vof, "vof")
        g0 = ctx.assign("g0", Load(pos_buf, pos))
        g = ctx.assign("g", g0)
        g_stop = ctx.assign("g_stop", Load(pos_buf, build.plus(pos, 1)))

        marker = Load(idx_buf, g)
        end = build.call(ops.ABS, marker)
        left = Call(ops.IFELSE, [
            build.gt(g, g0),
            build.call(ops.ABS, Load(idx_buf, build.minus(g, 1))),
            Literal(0),
        ])

        def literal_child(j):
            # Value position: vof[g] + (j - left).
            return FiberSlice(self.child, build.plus(
                Load(vof_buf, g), build.minus(j, left)))

        def seek(ctx, start):
            search = Call(ops.SEARCH_ABS_GE,
                          [idx_buf, g, g_stop, build.plus(start, 1)])
            return [asm.AssignStmt(g, search)]

        def advance(ctx):
            return [asm.AccumStmt(g, ops.ADD, 1)]

        return Stepper(
            stride=end,
            body=Switch([
                Case(build.gt(marker, 0),
                     Run(child_payload(self, Load(vof_buf, g)))),
                Case(Literal(True), Lookup(literal_child)),
            ]),
            seek=seek,
            next=advance,
        )

    def child_count(self, nfibers):
        return int(self.vof[-1])

    def densify(self, nfibers, children):
        # A literal's values appear once each, a run's one value as
        # many times as the group is wide.
        times = np.ones(len(children), dtype=np.int64)
        runs = self.idx > 0
        times[self.vof[:-1][runs]] = run_widths(np.abs(self.idx))[runs]
        return children.repeat(times, axis=0).reshape(
            (nfibers, self.shape) + children.shape[1:])

    def __repr__(self):
        return "PackBitsLevel(%d, groups=%d)" % (self.shape, len(self.idx))
