"""Level storage protocol (Section 4 of the paper).

A multidimensional array is decomposed mode-by-mode into a tree of
*levels*; each level stores all the fibers of one dimension, and a
*fiber* maps one index to a subfiber in the child level.  Fibers are
identified by an integer *position* within their level.  Looplets
describe the structure of a single fiber: each level implements
``unfurl`` to produce the looplet nest for the fiber at a given
position, under a chosen access protocol.

Payloads of unfurled looplets are :class:`FiberSlice` handles pointing
at child-level fibers (or scalar IR loads once the element level is
reached — the compiler converts terminal slices via
:meth:`FiberSlice.scalar`).
"""

import numpy as np

from repro.ir.nodes import Literal, as_expr
from repro.looplets import Run
from repro.util.errors import FormatError, ProtocolError


class Level:
    """Base class for level formats.

    Subclasses store numpy arrays describing every fiber in the level
    and implement :meth:`unfurl`.  ``child`` is the next level, or an
    :class:`~repro.formats.element.ElementLevel` at the bottom.
    """

    #: the name ``from_numpy``/``convert`` know this format by; a
    #: named class is listed in ``repro.formats.FORMATS``.  ``None``
    #: for the virtual levels no format name reaches.
    NAME = None
    #: the constructor's array parameters after ``(shape, child)``, in
    #: order — also the attribute names, the :meth:`buffers` hints and
    #: the keys of :meth:`build`'s result.
    ARRAYS = ()
    #: True for value-compressing formats, legal only innermost.
    LEAF_ONLY = False
    #: protocols this level accepts, in addition to its default.
    PROTOCOLS = ("walk",)
    DEFAULT_PROTOCOL = "walk"

    def __init__(self, shape, child):
        if shape is not None and int(shape) < 0:
            raise FormatError("level dimension must be nonnegative")
        self.shape = None if shape is None else int(shape)
        self.child = child

    @property
    def fill(self):
        """The background value of the subtree under this level."""
        level = self
        while getattr(level, "child", None) is not None:
            level = level.child
        return level.fill_value

    def resolve_protocol(self, proto):
        if proto is None or proto == "follow":
            # "follow" asks the format for its passive default.
            proto = self.DEFAULT_PROTOCOL if proto is None else "walk"
        if proto not in self.PROTOCOLS:
            raise ProtocolError(
                "%s does not support the %r protocol (supported: %s)"
                % (type(self).__name__, proto, ", ".join(self.PROTOCOLS)))
        return proto

    @classmethod
    def build(cls, slices, dim, fill):
        """Scan fiber ``slices`` (numpy views, in position order) of a
        ``dim``-wide mode: returns this level's ``ARRAYS`` by name, and
        the slices its stored children correspond to."""
        raise NotImplementedError

    def unfurl(self, ctx, pos, proto=None):
        """The looplet nest describing fiber ``pos`` under ``proto``.

        May emit per-fiber setup statements through ``ctx.emit`` (e.g.
        reading the fiber's position bounds); the compiler calls unfurl
        exactly where those statements belong.
        """
        raise NotImplementedError

    def locate(self, ctx, pos, idx):
        """Child position for random access at ``idx`` (writes/locate).

        Only formats with O(1) addressing (dense) support this.
        """
        raise ProtocolError(
            "%s does not support random access" % type(self).__name__)

    def fiber_count(self):
        """How many fibers this level stores."""
        return len(self.pos) - 1

    def fiber_to_numpy(self, pos):
        """Densify the subtree rooted at fiber ``pos`` (tests/oracles)."""
        raise NotImplementedError

    def buffers(self):
        """Mapping of buffer-name hints to the numpy arrays backing the
        level (used by the compiler to bind kernel arguments)."""
        return {name: getattr(self, name) for name in self.ARRAYS}


class FiberSlice:
    """A handle to one fiber: ``(level, position)``.

    Appears as a looplet payload during lowering; the compiler unfurls
    it further at inner foralls, or converts it to a scalar load when
    the element level is reached.
    """

    __slots__ = ("level", "pos")

    def __init__(self, level, pos):
        self.level = level
        self.pos = as_expr(pos)

    def __repr__(self):
        return "FiberSlice(%s, %r)" % (type(self.level).__name__, self.pos)

    def is_scalar(self):
        """True when this slice points into the element level."""
        return getattr(self.level, "child", None) is None

    def scalar(self, ctx):
        """The scalar IR expression for a terminal slice."""
        if not self.is_scalar():
            raise FormatError("fiber slice %r is not terminal" % (self,))
        return self.level.load(ctx, self.pos)

    def unfurl(self, ctx, proto=None):
        return self.level.unfurl(ctx, self.pos, proto)


class FillFiber:
    """A virtual, entirely-fill fiber (an absent subfiber).

    Produced by sparse levels for the regions between stored children;
    unfurls to a run of fill (recursively for deeper levels).
    """

    __slots__ = ("level",)

    def __init__(self, level):
        self.level = level

    def __repr__(self):
        return "FillFiber(%s)" % type(self.level).__name__

    def is_scalar(self):
        return getattr(self.level, "child", None) is None

    def scalar(self, ctx):
        return Literal(self.level.fill_value)

    def unfurl(self, ctx, proto=None):
        child = self.level.child
        if getattr(child, "child", None) is None:
            payload = Literal(self.level.fill)
        else:
            payload = FillFiber(child)
        return Run(payload)


def is_fill(slice_, fill):
    """Whether a whole fiber slice is background (``build`` scans)."""
    return bool(np.all(slice_ == fill))


def subtree_shape(level):
    """The dense shape of the subtree under (and including) ``level``."""
    shape = []
    while getattr(level, "child", None) is not None:
        shape.append(level.shape)
        level = level.child
    return tuple(shape)


def subtree_dtype(level):
    """The element dtype of the subtree under ``level``."""
    while getattr(level, "child", None) is not None:
        level = level.child
    return level.val.dtype


def full_fill(level):
    """A dense numpy array of fill values shaped like one fiber of
    ``level``'s subtree."""
    return np.full(subtree_shape(level), level.fill,
                   dtype=subtree_dtype(level))


def child_payload(level, pos):
    """The payload for the stored child of ``level`` at position ``pos``."""
    return FiberSlice(level.child, pos)


def fill_payload(level):
    """The payload for an absent child of ``level``."""
    child = level.child
    if getattr(child, "child", None) is None:
        return Literal(child.fill_value)
    return FillFiber(child)
