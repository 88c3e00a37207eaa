"""The Tensor: a stack of level formats plus an element level.

``Tensor([lvl0, lvl1], element)`` describes a 2-tensor whose rows are
stored by ``lvl0`` and columns by ``lvl1``.  Indexing a tensor with loop
indices produces CIN :class:`~repro.cin.nodes.Access` nodes, so tensors
participate directly in the eDSL: ``y[i] += A[i, j] * x[j]``.
"""

import functools
from operator import attrgetter

import numpy as np

from repro.cin.builders import access
from repro.formats.element import ElementLevel
from repro.formats.level import FiberSlice
from repro.util.errors import DimensionError, FormatError


def _normalize_fill(fill):
    """Fill values as the compiler literalizes them (numpy scalars are
    unwrapped before being baked into source)."""
    if isinstance(fill, np.generic):
        fill = fill.item()
    return (type(fill).__name__, repr(fill))


@functools.lru_cache(maxsize=None)
def _dtype_name(dtype):
    """``str(dtype)``, which numpy computes in Python on every call:
    a program's fresh output tensor pays for it on each cache hit."""
    return str(dtype)


class Tensor:
    """A fiber-tree tensor (Section 4 of the paper)."""

    def __init__(self, levels, element, name=None):
        levels = list(levels)
        if not isinstance(element, ElementLevel):
            raise FormatError("tensor must terminate in an ElementLevel")
        chained = element
        for level in reversed(levels):
            if level.child is not chained:
                raise FormatError(
                    "levels must chain parent.child -> child; build "
                    "tensors innermost-out or use the constructors in "
                    "repro.tensors.construct")
            chained = level
        self.levels = tuple(levels)
        self.element = element
        self.name = name or "T"
        # Read by every kernel bind, so resolved once: kernel_pins reads
        # each level array and then the value array with one attrgetter,
        # each by its path down the child chain from the first level
        # (None when no level holds an array); _roles names them.
        arrays = [(depth, hint) for depth, level in enumerate(levels)
                  for hint in level.buffers()]
        self._roles = tuple("lvl%d_%s" % (depth, hint)
                            for depth, hint in arrays) + ("val",)
        self._arrays = attrgetter(
            *["child." * depth + hint for depth, hint in arrays],
            "child." * len(levels) + "val") if arrays else None
        self._signature = None

    @property
    def ndim(self):
        return len(self.levels)

    @property
    def shape(self):
        return tuple(level.shape for level in self.levels)

    @property
    def fill(self):
        return self.element.fill_value

    @property
    def dtype(self):
        return self.element.val.dtype

    def root(self):
        """The root fiber of the tree."""
        if self.levels:
            return FiberSlice(self.levels[0], 0)
        return FiberSlice(self.element, 0)

    def __getitem__(self, idxs):
        if idxs == ():
            return access(self)
        if not isinstance(idxs, tuple):
            idxs = (idxs,)
        if len(idxs) != self.ndim:
            raise DimensionError(
                "%s has %d modes, got %d indices"
                % (self.name, self.ndim, len(idxs)))
        return access(self, *idxs)

    def to_numpy(self):
        """Densify (tests and oracles; O(product of dims)): a fresh,
        writable array."""
        if not self.levels:
            return self.element.val[0]
        # Fiber counts come from the root down (a zero extent leaves no
        # children to count from), the dense slabs from the leaves up.
        counts = [1]
        for level in self.levels[:-1]:
            counts.append(level.child_count(counts[-1]))
        slab = self.element.val
        for level in reversed(self.levels):
            slab = level.densify(counts.pop(), slab)
        # An all-dense stack only reshaped the buffer kernels write.
        return slab[0].copy() if np.may_share_memory(
            slab, self.element.val) else slab[0]

    def buffers(self):
        """All numpy arrays backing this tensor, by role: the buffers
        of :meth:`kernel_pins`, in its order, named for reading (the
        compiler reads them by position, never by role)."""
        return dict(zip(self._roles, self.kernel_pins()[1:]))

    def kernel_pins(self):
        """The one read of this tensor a compile or a bind takes
        (:func:`repro.cin.analyze.tensor_pins`): the
        :meth:`format_signature`, then each level array and the value
        array, in :meth:`buffers` order.  A kernel parameter names its
        buffer by position in it."""
        if self._arrays is None:
            return self.format_signature(), self.element.val
        return (self.format_signature(), *self._arrays(self.levels[0]))

    def format_signature(self):
        """A hashable description of everything the compiler bakes into
        emitted code: level nesting (class per mode), per-mode shapes,
        the fill value, and the element dtype.  Two tensors with equal
        signatures are interchangeable under the same compiled kernel.

        One tuple object per tensor: levels, shapes and fill are fixed
        at construction, and the memo is guarded on the dtype of
        ``element.val``, the one array that may be re-pointed.
        """
        dtype = self.element.val.dtype
        memo = self._signature
        if memo is None or memo[0] != dtype:
            levels = tuple((type(level).__name__, level.shape)
                           for level in self.levels)
            memo = self._signature = (dtype, (
                "tensor", levels, _dtype_name(dtype),
                _normalize_fill(self.fill)))
        return memo[1]

    def __repr__(self):
        layout = "/".join(type(level).__name__.replace("Level", "")
                          for level in self.levels) or "Scalar"
        return "Tensor(%s, %s, shape=%s)" % (self.name, layout, self.shape)


class Scalar(Tensor):
    """A zero-dimensional tensor (the paper's ``C[]`` results)."""

    def __init__(self, value=0.0, name=None, dtype=np.float64):
        element = ElementLevel(np.array([value], dtype=dtype),
                               fill_value=value if value else 0.0)
        super().__init__([], element, name=name or "scalar")

    @property
    def value(self):
        return self.element.val[0].item()

    def set(self, value):
        self.element.val[0] = value

    def __repr__(self):
        return "Scalar(%s=%r)" % (self.name, self.value)
