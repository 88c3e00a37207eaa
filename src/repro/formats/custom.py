"""User-defined formats expressed directly as looplets.

Section 4 of the paper: "an external standard library format could
express protocols using looplets to compose with our framework."  A
:class:`LoopletTensor` is exactly that — a one-dimensional virtual
tensor whose structure is whatever looplet nest its ``unfurl``
function builds.  It composes with every compiler pass and coiterates
with any stored format.

Example — the paper's ``f(i) = sin(pi * i / 7)`` lookup array::

    A = LoopletTensor(100, lambda ctx, pos: Lookup(
        lambda j: build.call(SIN, build.times(j, math.pi / 7))))

or a triangular mask built from runs::

    row_mask = LoopletTensor(n, lambda ctx, pos: Pipeline([
        Phase(Run(Literal(1.0)), stride=...),
        Phase(Run(Literal(0.0)))]))
"""

from repro.cin.builders import access
from repro.util.errors import FormatError


class LoopletTensor:
    """A 1-D virtual tensor defined by an unfurl function.

    ``unfurl_fn(ctx, pos)`` must return a looplet whose leaf payloads
    are scalar IR expressions; it may emit per-fiber setup through
    ``ctx.emit`` and bind numpy buffers with ``ctx.buffer`` exactly
    like the built-in level formats.
    """

    ndim = 1

    def __init__(self, shape, unfurl_fn, name=None, fill=0.0):
        if int(shape) < 0:
            raise FormatError("shape must be nonnegative")
        if not callable(unfurl_fn):
            raise FormatError("unfurl_fn must be callable")
        self.shape = (int(shape),)
        self.unfurl_fn = unfurl_fn
        self.name = name or "V"
        self.fill = fill
        self._signature = None

    def __getitem__(self, idxs):
        if not isinstance(idxs, tuple):
            idxs = (idxs,)
        if len(idxs) != 1:
            raise FormatError("%s is one-dimensional" % self.name)
        return access(self, *idxs)

    def kernel_buffers(self):
        """No rebindable buffers: whatever ``unfurl_fn`` binds through
        ``ctx.buffer`` stays welded to this tensor object."""
        return {}

    def format_signature(self):
        """Identity-pinned: the structure is an opaque closure, so a
        LoopletTensor is only structurally equal to itself.  Kernel
        caching still works for repeated runs of the same tensor, but
        two distinct LoopletTensors never share a compiled kernel.
        One tuple per tensor, guarded on ``id(self)``: a copy builds
        its own."""
        if self._signature is None or self._signature[1] != id(self):
            self._signature = ("custom", id(self), self.shape)
        return self._signature

    def unfurl_root(self, ctx, proto="walk"):
        """Unfurl the (single) fiber of this tensor."""
        del proto  # custom formats decide their own protocol
        from repro.ir.nodes import Literal

        return self.unfurl_fn(ctx, Literal(0))

    def __repr__(self):
        return "LoopletTensor(%s, n=%d)" % (self.name, self.shape[0])
