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
    fiber_of,
    offsets,
)
from repro.ir import asm, build, ops
from repro.ir.nodes import Call, Load
from repro.looplets import Run, Stepper
from repro.util.errors import FormatError


def run_starts(slab):
    """Where each maximal run of a ``(nfibers, dim)`` slab starts.  The
    test is elementwise ``!=`` between neighbours: ``-0.0`` joins a run
    of ``0.0`` (which keeps its first element's bits), NaN never joins
    one."""
    starts = np.ones(slab.shape, dtype=bool)
    np.not_equal(slab[:, 1:], slab[:, :-1], out=starts[:, 1:])
    return starts


def run_stops(starts):
    """The exclusive end column of every run of :func:`run_starts`, in
    position order: one past the column before the next start."""
    stops = np.ones_like(starts)
    stops[:, :-1] = starts[:, 1:]
    return stops.ravel().nonzero()[0] % starts.shape[1] + 1


def check_tiling(level, ends, noun):
    """What the run formats validate: within every fiber of ``level``
    the exclusive ``ends`` increase strictly from above 0 up to exactly
    the dimension, so each lies in ``[1, n]`` (a 0-wide level stores
    none).  Raises naming the first fiber where they do not."""
    if not level.shape:
        if level.shape == 0 and len(ends):
            raise FormatError("a 0-wide level stores no %s" % noun)
        return
    pos = level.pos
    fiber = fiber_of(pos)
    empty = pos[1:] == pos[:-1]
    bad = empty.copy()
    bad[~empty] = ((ends[pos[1:][~empty] - 1] != level.shape)
                   | (ends[pos[:-1][~empty]] < 1))
    bad[fiber[1:][(ends[1:] <= ends[:-1]) & (fiber[1:] == fiber[:-1])]] = True
    if bad.any():
        raise FormatError("fiber %d %s must increase and tile [0, %d)"
                          % (bad.argmax(), noun, level.shape))


def run_widths(ends):
    """The width of each run of a validated tiling, from its exclusive
    ``ends``: a step that does not advance starts the next fiber, at
    column 0."""
    widths = ends.copy()
    step = ends[1:] - ends[:-1]
    widths[1:] = np.where(step > 0, step, ends[1:])
    return widths


class RunLengthLevel(Level):
    """Run-length encoded children; runs cover the full dimension."""

    NAME = "rle"
    ARRAYS = ("pos", "right")
    BOUNDS = {"right": (1, 0)}
    LEAF_ONLY = True

    def __init__(self, shape, child, pos, right):
        super().__init__(shape, child)
        self.pos = np.ascontiguousarray(pos, dtype=np.int64)
        self.right = np.ascontiguousarray(right, dtype=np.int64)
        if len(self.pos) == 0 or self.pos[-1] != len(self.right):
            raise FormatError("pos must end at the run count")
        check_tiling(self, self.right, "runs")

    @classmethod
    def build(cls, slab, dim, fill):
        starts = run_starts(slab)
        return ({"pos": offsets(starts.sum(axis=1)),
                 "right": run_stops(starts)}, slab[starts])

    def unfurl(self, ctx, pos, proto="walk"):
        self.resolve_protocol(proto)
        pos_buf = ctx.buffer(self.pos, "pos")
        right_buf = self.bind(ctx, "right")
        q = ctx.assign("q", Load(pos_buf, pos))
        q_stop = ctx.assign("q_stop", Load(pos_buf, build.plus(pos, 1)))

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

    def densify(self, nfibers, children):
        return children.repeat(run_widths(self.right), axis=0).reshape(
            (nfibers, self.shape) + children.shape[1:])

    def __repr__(self):
        return "RunLengthLevel(%d, runs=%d)" % (self.shape, len(self.right))
