"""Run-length level (Figure 3g): maximal runs of repeated values.

Fiber ``p`` is a sequence of runs ``q ∈ [pos[p], pos[p+1])``; run ``q``
extends (exclusively) to index ``right[q]`` and repeats the child fiber
at position ``q``.  Runs tile the whole dimension (a "fill" region is
just a run whose value happens to equal fill), so the unfurl is a bare
Stepper of Runs — which is what lets the compiler apply the
constant-loop rewrite (summing a whole run in O(1), Figure 5's last
rule) on RLE data.
"""

import numpy as np

from repro.formats.level import (
    Level,
    child_payload,
    subtree_dtype,
    subtree_shape,
)
from repro.ir import asm, build, ops
from repro.ir.nodes import Call, Load, Var
from repro.looplets import Run, Stepper
from repro.util.errors import FormatError


class RunLengthLevel(Level):
    """Run-length encoded children; runs cover the full dimension."""

    NAME = "rle"
    ARRAYS = ("pos", "right")
    LEAF_ONLY = True
    PROTOCOLS = ("walk",)
    DEFAULT_PROTOCOL = "walk"

    def __init__(self, shape, child, pos, right):
        super().__init__(shape, child)
        self.pos = np.asarray(pos, dtype=np.int64)
        self.right = np.asarray(right, dtype=np.int64)
        if len(self.pos) == 0 or self.pos[-1] != len(self.right):
            raise FormatError("pos must end at the run count")
        for p in range(len(self.pos) - 1):
            ends = self.right[self.pos[p]:self.pos[p + 1]]
            if self.shape and (len(ends) == 0 or ends[-1] != self.shape
                               or np.any(np.diff(ends) <= 0)):
                raise FormatError(
                    "fiber %d runs must increase and tile [0, %d)"
                    % (p, self.shape))

    @classmethod
    def build(cls, slices, dim, fill):
        pos = [0]
        right = []
        children = []
        for s in slices:
            j = 0
            while j < dim:
                start = j
                while j < dim and s[j] == s[start]:
                    j += 1
                right.append(j)
                children.append(s[start])
            pos.append(len(right))
        return {"pos": pos, "right": right}, children

    def unfurl(self, ctx, pos, proto=None):
        self.resolve_protocol(proto)
        pos_buf = ctx.buffer(self.pos, "pos")
        right_buf = ctx.buffer(self.right, "right")
        q = Var(ctx.freshen("q"))
        q_stop = Var(ctx.freshen("q_stop"))
        ctx.emit(asm.AssignStmt(q, Load(pos_buf, pos)))
        ctx.emit(asm.AssignStmt(q_stop, Load(pos_buf, build.plus(pos, 1))))

        def seek(ctx, start):
            # First run extending past `start`: right[q] >= start + 1.
            search = Call(ops.SEARCH_GE,
                          [right_buf, q, q_stop, build.plus(start, 1)])
            return [asm.AssignStmt(q, search)]

        def advance(ctx):
            return [asm.AccumStmt(q, ops.ADD, 1)]

        return Stepper(
            stride=Load(right_buf, q),
            body=Run(child_payload(self, q)),
            seek=seek,
            next=advance,
        )

    def fiber_to_numpy(self, pos):
        shape = (self.shape,) + subtree_shape(self.child)
        out = np.full(shape, self.fill, dtype=subtree_dtype(self.child))
        left = 0
        for q in range(self.pos[pos], self.pos[pos + 1]):
            value = self.child.fiber_to_numpy(q)
            out[left:self.right[q]] = value
            left = self.right[q]
        return out

    def __repr__(self):
        return "RunLengthLevel(%d, runs=%d)" % (self.shape, len(self.right))
