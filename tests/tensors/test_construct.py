"""Who owns the memory: a tensor owns its arrays, and ``to_numpy``
hands back an array the caller owns.

``from_numpy`` works on whole-array views (a dense mode is a
``reshape``) and ``to_numpy`` on whole-level slabs (a dense level is a
``reshape`` of ``element.val``, the buffer kernels write into), so
both ends have to copy exactly where a view would escape.
"""

import numpy as np
import pytest

from repro.formats import format_names
from repro.tensors import from_numpy, symmetric_from_numpy, triangular_from_numpy


def source(layout):
    """A 6x8 float array with fill, runs and a band, laid out as
    ``layout`` says; the dense values are the same in every layout."""
    base = np.zeros((6, 8))
    base[0, 2:5] = [1.5, 1.5, 1.5]
    base[2, :] = 2.0
    base[3, 1] = -3.0
    base[5, 5:] = [4.0, 5.0, 5.0]
    if layout == "c":
        return base.copy()
    if layout == "fortran":
        return np.asfortranarray(base)
    if layout == "strided":
        wide = np.zeros((12, 8))
        wide[::2] = base
        return wide[::2]
    frozen = base.copy()
    frozen.flags.writeable = False
    return frozen


LAYOUTS = ("c", "fortran", "strided", "readonly")


def stacks():
    outer = format_names(leaf_only=False)
    return ([(name,) for name in format_names()]
            + [(first, name) for first in ("dense", "sparse")
               for name in format_names()]
            + [(name, "dense") for name in outer])


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("formats", stacks(), ids="/".join)
def test_the_tensor_owns_its_arrays(formats, layout):
    arr = source(layout)
    if len(formats) == 1:
        arr = arr[2] if layout != "fortran" else arr[:, 1]
    expected = np.array(arr)
    tensor = from_numpy(arr, formats)
    for array in tensor.buffers().values():
        assert array.flags.c_contiguous
        assert array.flags.writeable
        assert not np.shares_memory(array, arr)
    if arr.flags.writeable:
        arr[...] = 9.0
    np.testing.assert_array_equal(tensor.to_numpy(), expected)


@pytest.mark.parametrize("formats", stacks(), ids="/".join)
def test_to_numpy_returns_an_array_the_caller_owns(formats):
    arr = source("c") if len(formats) == 2 else source("c")[2]
    tensor = from_numpy(arr, formats)
    out = tensor.to_numpy()
    assert out.flags.writeable
    assert not np.shares_memory(out, tensor.element.val)
    out[...] = 7.0
    np.testing.assert_array_equal(tensor.to_numpy(), arr)


@pytest.mark.parametrize("build", [triangular_from_numpy,
                                   symmetric_from_numpy])
@pytest.mark.parametrize("n", [0, 1, 5])
def test_packed_triangles_own_their_values(build, n):
    rng = np.random.default_rng(n)
    half = np.tril(rng.integers(1, 9, size=(n, n)).astype(np.float32))
    arr = half if build is triangular_from_numpy else half + np.tril(half, -1).T
    expected = arr.copy()
    tensor = build(arr)
    assert tensor.element.val.dtype == np.float32
    assert len(tensor.element.val) == n * (n + 1) // 2
    assert not np.shares_memory(tensor.element.val, arr)
    arr[...] = 0.0
    out = tensor.to_numpy()
    assert out.shape == (n, n) and out.dtype == np.float32
    np.testing.assert_array_equal(out, expected)
    assert out.flags.writeable
    assert not np.shares_memory(out, tensor.element.val)
