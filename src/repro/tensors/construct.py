"""Build tensors from numpy arrays, one level format per mode.

``from_numpy(arr, ("dense", "sparse"))`` assembles the per-level
position/coordinate arrays.  Leaf-only formats (rle, packbits)
compress scalar values and therefore must be the innermost mode.

Each format's builder is the ``build`` classmethod of its level class,
found by name in ``repro.formats.FORMATS``.  The builders work
generically over nesting and an array at a time: each consumes one
slab holding every fiber the level above stored, ``(nfibers, dim,
*rest)`` in position order, and emits the slab of its own stored
children, ``(nchildren, *rest)``.  The last slab is the element
level's values.
"""

import numpy as np

from repro.formats import FORMATS
from repro.formats.element import ElementLevel
from repro.formats.virtual import SymmetricLevel, TriangularLevel
from repro.tensors.tensor import Scalar, Tensor
from repro.util.errors import FormatError


def from_numpy(arr, formats=None, fill=0.0, name=None):
    """Convert a numpy array into a fiber-tree tensor.

    ``formats`` is one name per mode (default: all dense); see
    ``repro.formats.FORMATS`` for the available names.
    """
    arr = np.asarray(arr)
    if arr.ndim == 0:
        scalar = Scalar(0.0, name=name, dtype=arr.dtype)
        scalar.element.val[0] = arr[()]
        return scalar
    if formats is None:
        formats = ("dense",) * arr.ndim
    if isinstance(formats, str):
        formats = (formats,) * arr.ndim
    if len(formats) != arr.ndim:
        raise FormatError("need one format per mode")

    slab = arr[np.newaxis]
    specs = []
    for mode, fmt in enumerate(formats):
        cls = FORMATS.get(fmt)
        if cls is None:
            raise FormatError("unknown format %r" % (fmt,))
        if cls.LEAF_ONLY and mode != arr.ndim - 1:
            raise FormatError("%s must be the innermost mode" % fmt)
        spec, slab = cls.build(slab, arr.shape[mode], fill)
        specs.append((cls, arr.shape[mode], spec))

    # A dense mode's reshape is a view of the caller's array: the tensor
    # owns its values, so copy once, here.
    if np.may_share_memory(slab, arr):
        slab = slab.copy()
    element = ElementLevel(slab, fill_value=fill)

    child = element
    levels = []
    for cls, dim, spec in reversed(specs):
        child = cls(dim, child, **spec)
        levels.append(child)
    levels.reverse()
    return Tensor(levels, element, name=name)


def triangular_from_numpy(arr, fill=0.0, name=None):
    """Pack the lower triangle of a square array (Figure 3a)."""
    arr = np.asarray(arr)
    n = arr.shape[0]
    if arr.shape != (n, n):
        raise FormatError("triangular storage needs a square matrix")
    element = ElementLevel(arr[np.tril_indices(n)], fill_value=fill)
    inner = TriangularLevel(n, element)
    outer = FORMATS["dense"](n, inner)
    return Tensor([outer, inner], element, name=name)


def symmetric_from_numpy(arr, fill=0.0, name=None):
    """Store a symmetric matrix as its packed lower triangle (Fig. 3c)."""
    arr = np.asarray(arr)
    n = arr.shape[0]
    if arr.shape != (n, n) or not np.allclose(arr, arr.T):
        raise FormatError("symmetric storage needs a symmetric matrix")
    element = ElementLevel(arr[np.tril_indices(n)], fill_value=fill)
    inner = SymmetricLevel(n, element)
    outer = FORMATS["dense"](n, inner)
    return Tensor([outer, inner], element, name=name)


def zeros(shape, fill=0.0, dtype=np.float64, name=None):
    """A dense output tensor initialized to ``fill``."""
    if isinstance(shape, int):
        shape = (shape,)
    return from_numpy(np.full(shape, fill, dtype=dtype), name=name,
                      fill=fill)
