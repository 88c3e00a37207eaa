"""Dense level: every child is stored, addressed by arithmetic."""

from repro.formats.level import FiberSlice, Level, flat_children
from repro.ir import build
from repro.looplets import Lookup


class DenseLevel(Level):
    """Fiber ``p`` stores children at positions ``p * shape + j``.

    Supports random access (``locate``), which is how dense *output*
    tensors are written.  A read unfurls to a Lookup over child slices
    (Figure 6b's locate protocol): a dense sequence has no structure to
    expose, so walking it is random access.
    """

    NAME = "dense"

    @classmethod
    def build(cls, slab, dim, fill):
        return {}, flat_children(slab)

    def unfurl(self, ctx, pos, proto="walk"):
        self.resolve_protocol(proto)
        base = build.times(pos, self.shape)

        def body(j):
            return FiberSlice(self.child, build.plus(base, j))

        return Lookup(body)

    def locate(self, ctx, pos, idx):
        return build.plus(build.times(pos, self.shape), idx)

    def fiber_count(self):
        return self.child.fiber_count() // max(self.shape, 1)

    def child_count(self, nfibers):
        return nfibers * self.shape

    def densify(self, nfibers, children):
        # The count comes from above: a zero extent leaves no children
        # to infer it from.
        return children.reshape((nfibers, self.shape) + children.shape[1:])

    def __repr__(self):
        return "DenseLevel(%d)" % self.shape
