"""Sparse list level (the "compressed" format of TACO, Figure 3d).

Stores the coordinates of non-fill children in a sorted ``idx`` array,
segmented per fiber by a ``pos`` array: fiber ``p`` owns entries
``q ∈ [pos[p], pos[p+1])``, each at index ``idx[q]``.

Two read protocols (Sections 3 and 7 of the paper):

``walk``
    a Pipeline of (a Stepper of Spikes over the stored region, then a
    Run of fill to the end of the dimension).  This is the classic
    iterate-over-nonzeros strategy.

``gallop``
    a Jumper that elects this list a coiteration *leader* (Figure 6a).
    The jumper declares the extent up to its own next nonzero; when the
    merged region ends exactly at that nonzero it contributes a Spike,
    otherwise it falls back to an inner Stepper (which *seeks* — binary
    search — to the start of the region, skipping ahead).  Merging two
    galloping lists yields a mutual-lookahead intersection.
"""

import numpy as np

from repro.formats.level import (
    Level,
    child_payload,
    fiber_of,
    fill_payload,
    fill_slab,
    flat_children,
    offsets,
    stored_mask,
)
from repro.ir import asm, build, ops
from repro.ir.nodes import Call, Literal, Load
from repro.looplets import Case, Jumper, Phase, Pipeline, Run, Spike, Stepper, Switch
from repro.util.errors import FormatError


class SparseListLevel(Level):
    """Sorted coordinate list of non-fill children."""

    NAME = "sparse"
    ARRAYS = ("pos", "idx")
    BOUNDS = {"idx": (0, -1)}
    PROTOCOLS = ("walk", "gallop")

    def __init__(self, shape, child, pos, idx):
        super().__init__(shape, child)
        self.pos = np.ascontiguousarray(pos, dtype=np.int64)
        self.idx = np.ascontiguousarray(idx, dtype=np.int64)
        if self.pos.ndim != 1 or self.idx.ndim != 1:
            raise FormatError("pos and idx must be flat arrays")
        if len(self.pos) == 0 or self.pos[-1] != len(self.idx):
            raise FormatError("pos must end at len(idx)")
        # The first entry out of range or out of order names the first
        # offending fiber: every fiber before it holds neither.
        fiber = fiber_of(self.pos)
        bad = (self.idx < 0) | (self.idx >= self.shape)
        bad[1:] |= ((self.idx[1:] <= self.idx[:-1])
                    & (fiber[1:] == fiber[:-1]))
        if bad.any():
            raise FormatError(
                "fiber %d indices must be strictly increasing and "
                "within [0, %d)" % (fiber[bad.argmax()], self.shape))

    @classmethod
    def build(cls, slab, dim, fill):
        mask = stored_mask(slab, fill)
        flat = mask.ravel().nonzero()[0]
        return ({"pos": offsets(mask.sum(axis=1)), "idx": flat % dim},
                flat_children(slab)[flat])

    def unfurl(self, ctx, pos, proto="walk"):
        proto = self.resolve_protocol(proto)
        state = self._enter_fiber(ctx, pos)
        if proto == "walk":
            stored = self._stepper(ctx, state)
        else:
            stored = self._jumper(ctx, state)
        return Pipeline([
            Phase(stored, stride=self._stored_stop(state)),
            Phase(Run(fill_payload(self))),
        ])

    def _enter_fiber(self, ctx, pos):
        """Emit per-fiber setup: the position cursor and its bounds."""
        pos_buf = ctx.buffer(self.pos, "pos")
        idx_buf = self.bind(ctx, "idx")
        q = ctx.assign("q", Load(pos_buf, pos))
        q_stop = ctx.assign("q_stop", Load(pos_buf, build.plus(pos, 1)))
        return {"q": q, "q_stop": q_stop, "idx": idx_buf}

    def _stored_stop(self, state):
        """Exclusive end of the stored region: one past the last stored
        coordinate, or 0 for an empty fiber."""
        q, q_stop, idx = state["q"], state["q_stop"], state["idx"]
        return Call(ops.IFELSE, [
            build.gt(q_stop, q),
            build.plus(Load(idx, build.minus(q_stop, 1)), 1),
            Literal(0),
        ])

    def _stride(self, state):
        """Exclusive end of the current child's region."""
        return build.plus(Load(state["idx"], state["q"]), 1)

    def _seek(self, state):
        q, q_stop, idx = state["q"], state["q_stop"], state["idx"]

        def seek(ctx, start):
            search = Call(ops.SEARCH_GE, [idx, q, q_stop, start])
            return [asm.AssignStmt(q, search)]

        return seek

    def _next(self, state):
        q = state["q"]

        def advance(ctx):
            return [asm.AccumStmt(q, ops.ADD, 1)]

        return advance

    def _spike(self, state):
        return Spike(fill_payload(self), child_payload(self, state["q"]))

    def _stepper(self, ctx, state):
        return Stepper(
            stride=self._stride(state),
            body=self._spike(state),
            seek=self._seek(state),
            next=self._next(state),
        )

    def _jumper(self, ctx, state):
        def body(ctx, ext):
            exact = build.eq(ext.stop, self._stride(state))
            return Switch([
                Case(exact, self._spike(state)),
                Case(Literal(True), self._stepper(ctx, state)),
            ])

        return Jumper(
            stride=self._stride(state),
            body=body,
            seek=self._seek(state),
            next=self._next(state),
            fill=fill_payload(self),
        )

    def densify(self, nfibers, children):
        out = fill_slab(self, nfibers, children)
        out[fiber_of(self.pos), self.idx] = children
        return out

    def __repr__(self):
        return "SparseListLevel(%d, nnz=%d)" % (self.shape, len(self.idx))
