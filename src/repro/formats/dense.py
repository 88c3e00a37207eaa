"""Dense level: every child is stored, addressed by arithmetic."""

import numpy as np

from repro.formats.level import (
    FiberSlice,
    Level,
    subtree_dtype,
    subtree_shape,
)
from repro.ir import build
from repro.looplets import Lookup


class DenseLevel(Level):
    """Fiber ``p`` stores children at positions ``p * shape + j``.

    Supports random access (``locate``), which is also how dense
    *output* tensors are written.  The walk and locate protocols unfurl
    identically — a Lookup over child slices (Figure 6b's locate
    protocol) — because a dense sequence has no structure to expose.
    """

    NAME = "dense"
    PROTOCOLS = ("walk", "locate")
    DEFAULT_PROTOCOL = "walk"

    @classmethod
    def build(cls, slices, dim, fill):
        children = [s[j] for s in slices for j in range(dim)]
        return {}, children

    def unfurl(self, ctx, pos, proto=None):
        self.resolve_protocol(proto)
        base = build.times(pos, self.shape)

        def body(j):
            return FiberSlice(self.child, build.plus(base, j))

        return Lookup(body)

    def locate(self, ctx, pos, idx):
        return build.plus(build.times(pos, self.shape), idx)

    def fiber_count(self):
        return self.child.fiber_count() // max(self.shape, 1)

    def fiber_to_numpy(self, pos):
        children = [self.child.fiber_to_numpy(pos * self.shape + j)
                    for j in range(self.shape)]
        if not children:
            # np.array([]) would forget the trailing modes.
            return np.empty((0,) + subtree_shape(self.child),
                            dtype=subtree_dtype(self.child))
        return np.array(children)

    def __repr__(self):
        return "DenseLevel(%d)" % self.shape
