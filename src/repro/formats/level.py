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
    #: the closed value range ``(lo, hi)`` of each of ``ARRAYS`` that
    #: the constructor enforces, ``hi`` counted from the dimension
    #: ``n``: ``{"idx": (0, -1)}`` is ``0 <= idx[q] <= n - 1``.  Read
    #: through :meth:`bind`, it lets the lowerer fold seeks and clamps
    #: (:func:`repro.rewrite.rules.value_range`).
    BOUNDS = {}
    #: True for value-compressing formats, legal only innermost.
    LEAF_ONLY = False
    #: protocols this level accepts.
    PROTOCOLS = ("walk",)

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
        if proto not in self.PROTOCOLS:
            raise ProtocolError(
                "%s does not support the %r protocol (supported: %s)"
                % (type(self).__name__, proto, ", ".join(self.PROTOCOLS)))
        return proto

    @classmethod
    def build(cls, slab, dim, fill):
        """Every fiber of a ``dim``-wide mode at once, as the ndarray
        ``slab`` of shape ``(nfibers, dim, *rest)`` in position order:
        returns this level's ``ARRAYS`` by name (C-contiguous ``int64``
        or ``bool``) and the child slab ``(nchildren, *rest)`` — the
        stored children, in position order."""
        raise NotImplementedError

    def unfurl(self, ctx, pos, proto="walk"):
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

    def child_count(self, nfibers):
        """How many children this level's ``nfibers`` fibers store (the
        fiber count of the level below).  Override it where ``pos``
        segments something other than the children."""
        return int(self.pos[-1])

    def densify(self, nfibers, children):
        """The inverse of :meth:`build`: ``children`` is the densified
        child slab ``(nchildren, *rest)``; returns every fiber of this
        level as ``(nfibers, shape, *rest)``."""
        raise NotImplementedError

    def buffers(self):
        """Mapping of buffer-name hints to the numpy arrays backing the
        level (used by the compiler to bind kernel arguments)."""
        return {name: getattr(self, name) for name in self.ARRAYS}

    def bind(self, ctx, name):
        """Bind the array ``name`` as a kernel parameter: its Var, with
        the bounds :attr:`BOUNDS` declares for it."""
        bounds = self.BOUNDS.get(name)
        if bounds is not None:
            bounds = (bounds[0], self.shape + bounds[1])
        return ctx.buffer(getattr(self, name), name, bounds)


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

    def unfurl(self, ctx, proto="walk"):
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

    def unfurl(self, ctx, proto="walk"):
        child = self.level.child
        if getattr(child, "child", None) is None:
            payload = Literal(self.level.fill)
        else:
            payload = FillFiber(child)
        return Run(payload)


def stored_mask(slab, fill):
    """Which children of a ``build`` slab are stored: ``(nfibers, dim)``
    booleans, False where the whole child is background.  The test is
    elementwise ``!=``, so a NaN fill stores everything."""
    mask = slab != fill
    return mask.any(axis=tuple(range(2, slab.ndim))) if slab.ndim > 2 else mask


def stored_span(mask):
    """The half-open column span ``[first, stop)`` of the stored
    children of each fiber of a :func:`stored_mask`: ``[dim, 0)`` where
    the fiber stores none."""
    dim = mask.shape[1]
    cols = np.arange(dim)
    return (np.where(mask, cols, dim).min(axis=1, initial=dim),
            np.where(mask, cols + 1, 0).max(axis=1, initial=0))


def span_mask(dim, first, stop):
    """The ``(nfibers, dim)`` mask of the columns in each fiber's
    half-open span ``[first, stop)``."""
    cols = np.arange(dim)
    return (cols >= first[:, None]) & (cols < stop[:, None])


def flat_children(slab):
    """Every child of a ``build`` slab, stored or not, as a child slab
    ``(nfibers * dim, *rest)``."""
    return slab.reshape((slab.shape[0] * slab.shape[1],) + slab.shape[2:])


def offsets(counts):
    """The ``pos`` array segmenting per-fiber ``counts``:
    ``[0, c0, c0 + c1, ...]``."""
    pos = np.zeros(len(counts) + 1, dtype=np.int64)
    counts.cumsum(out=pos[1:])
    return pos


def fiber_of(pos):
    """The fiber each entry of a ``pos``-segmented array belongs to."""
    width = pos[1:] - pos[:-1]
    if pos[0] != 0 or (width < 0).any():
        raise FormatError("pos must start at 0 and never decrease")
    return np.arange(len(width)).repeat(width)


def fill_slab(level, nfibers, children):
    """``nfibers`` all-fill fibers of ``level`` over ``children``-shaped
    subfibers: what a sparse ``densify`` scatters into."""
    return np.full((nfibers, level.shape) + children.shape[1:], level.fill,
                   dtype=children.dtype)


def child_payload(level, pos):
    """The payload for the stored child of ``level`` at position ``pos``."""
    return FiberSlice(level.child, pos)


def fill_payload(level):
    """The payload for an absent child of ``level``."""
    child = level.child
    if getattr(child, "child", None) is None:
        return Literal(child.fill_value)
    return FillFiber(child)
