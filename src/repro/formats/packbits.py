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
    subtree_dtype,
    subtree_shape,
)
from repro.ir import asm, build, ops
from repro.ir.nodes import Call, Literal, Load, Var
from repro.looplets import Case, Lookup, Run, Stepper, Switch
from repro.util.errors import FormatError

#: minimum run length worth a PackBits run group (as in TIFF encoders).
_MIN_RUN = 3


def _groups(s, dim):
    """Split one row into (start, stop, is_run) groups."""
    groups = []
    j = 0
    literal_start = None
    while j < dim:
        run_end = j
        while run_end < dim and s[run_end] == s[j]:
            run_end += 1
        if run_end - j >= _MIN_RUN:
            if literal_start is not None:
                groups.append((literal_start, j, False))
                literal_start = None
            groups.append((j, run_end, True))
        elif literal_start is None:
            literal_start = j
        j = run_end
    if literal_start is not None:
        groups.append((literal_start, dim, False))
    return groups


class PackBitsLevel(Level):
    """Alternating runs and literal regions, covering the dimension."""

    NAME = "packbits"
    ARRAYS = ("pos", "idx", "vof")
    LEAF_ONLY = True
    PROTOCOLS = ("walk",)
    DEFAULT_PROTOCOL = "walk"

    def __init__(self, shape, child, pos, idx, vof):
        super().__init__(shape, child)
        self.pos = np.asarray(pos, dtype=np.int64)
        self.idx = np.asarray(idx, dtype=np.int64)
        self.vof = np.asarray(vof, dtype=np.int64)
        if len(self.pos) == 0 or self.pos[-1] != len(self.idx):
            raise FormatError("pos must end at the group count")
        if len(self.vof) != len(self.idx) + 1:
            raise FormatError("vof needs one sentinel entry")
        for p in range(len(self.pos) - 1):
            ends = np.abs(self.idx[self.pos[p]:self.pos[p + 1]])
            if self.shape and (len(ends) == 0 or ends[-1] != self.shape
                               or np.any(np.diff(ends) <= 0)):
                raise FormatError(
                    "fiber %d groups must increase and tile [0, %d)"
                    % (p, self.shape))

    @classmethod
    def build(cls, slices, dim, fill):
        pos = [0]
        idx = []
        vof = [0]
        children = []
        for s in slices:
            for start, stop, is_run in _groups(s, dim):
                idx.append(stop if is_run else -stop)
                if is_run:
                    children.append(s[start])
                else:
                    children.extend(s[j] for j in range(start, stop))
                vof.append(len(children))
            pos.append(len(idx))
        # The running end-of-values is exactly the start of the next group,
        # so the accumulated list is vof (with its sentinel) already.
        return {"pos": pos, "idx": idx, "vof": vof}, children

    def unfurl(self, ctx, pos, proto=None):
        self.resolve_protocol(proto)
        pos_buf = ctx.buffer(self.pos, "pos")
        idx_buf = ctx.buffer(self.idx, "idx")
        vof_buf = ctx.buffer(self.vof, "vof")
        g = Var(ctx.freshen("g"))
        g0 = Var(ctx.freshen("g0"))
        g_stop = Var(ctx.freshen("g_stop"))
        ctx.emit(asm.AssignStmt(g0, Load(pos_buf, pos)))
        ctx.emit(asm.AssignStmt(g, g0))
        ctx.emit(asm.AssignStmt(g_stop, Load(pos_buf, build.plus(pos, 1))))

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

    def fiber_to_numpy(self, pos):
        shape = (self.shape,) + subtree_shape(self.child)
        out = np.full(shape, self.fill, dtype=subtree_dtype(self.child))
        left = 0
        for g in range(self.pos[pos], self.pos[pos + 1]):
            end = abs(self.idx[g])
            if self.idx[g] > 0:
                out[left:end] = self.child.fiber_to_numpy(self.vof[g])
            else:
                for j in range(left, end):
                    out[j] = self.child.fiber_to_numpy(
                        self.vof[g] + (j - left))
            left = end
        return out

    def __repr__(self):
        return "PackBitsLevel(%d, groups=%d)" % (self.shape, len(self.idx))
