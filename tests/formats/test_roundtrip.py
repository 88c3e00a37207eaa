"""Format round-trip tests: from_numpy -> to_numpy is the identity."""

import numpy as np
import pytest

from repro.formats import format_names
from repro.tensors import (
    from_numpy,
    symmetric_from_numpy,
    triangular_from_numpy,
)
from repro.util.errors import FormatError

VECTOR_FORMATS = format_names()
MATRIX_INNER_FORMATS = VECTOR_FORMATS
OUTER_FORMATS = format_names(leaf_only=False)


def example_vectors():
    rng = np.random.default_rng(0)
    dense = rng.integers(1, 5, size=11).astype(float)
    sparse = np.array([0, 1.9, 0, 3.0, 0, 0, 2.7, 0, 5.5, 0, 0])
    banded = np.array([0, 0, 0, 3.7, 4.7, 9.2, 1.5, 8.7, 0, 0, 0])
    clustered = np.array([0, 0, 2.7, 5.0, 0.9, 0, 0, 1.4, 2.3, 0, 0])
    runs = np.array([3, 3, 3, 1, 1, 1, 2, 2, 5, 2, 4], dtype=float)
    empty = np.zeros(7)
    single = np.array([0, 0, 9.0, 0])
    prefix = np.array([5.2, 4.6, 4.3, 0, 0, 0])
    return {
        "dense_values": dense,
        "scattered": sparse,
        "banded": banded,
        "clustered": clustered,
        "runs": runs,
        "all_fill": empty,
        "single_nonzero": single,
        "prefix_then_fill": prefix,
    }


@pytest.mark.parametrize("fmt", VECTOR_FORMATS)
@pytest.mark.parametrize("case", sorted(example_vectors()))
def test_vector_roundtrip(fmt, case):
    vec = example_vectors()[case]
    tensor = from_numpy(vec, (fmt,))
    np.testing.assert_array_equal(tensor.to_numpy(), vec)


@pytest.mark.parametrize("fmt", MATRIX_INNER_FORMATS)
def test_matrix_roundtrip_dense_rows(fmt):
    rng = np.random.default_rng(1)
    arr = rng.random((7, 9))
    arr[arr < 0.6] = 0.0
    tensor = from_numpy(arr, ("dense", fmt))
    np.testing.assert_array_equal(tensor.to_numpy(), arr)


@pytest.mark.parametrize("fmt", VECTOR_FORMATS)
@pytest.mark.parametrize("shape", [(0,), (0, 3), (3, 0), (2, 0, 3)])
def test_zero_extent_roundtrip_innermost(fmt, shape):
    """A zero extent anywhere keeps every mode of the shape (and the
    dtype): densifying used to drop the modes after an empty dense
    one."""
    arr = np.zeros(shape, dtype=np.float32)
    out = from_numpy(arr, ("dense",) * (arr.ndim - 1) + (fmt,)).to_numpy()
    assert out.shape == shape
    assert out.dtype == arr.dtype


@pytest.mark.parametrize("fmt", OUTER_FORMATS)
@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (2, 0, 3)])
def test_zero_extent_roundtrip_outermost(fmt, shape):
    arr = np.zeros(shape)
    out = from_numpy(arr, (fmt,) + ("sparse",) * (arr.ndim - 1)).to_numpy()
    assert out.shape == shape


def test_sparse_outer_mode():
    arr = np.zeros((6, 4))
    arr[1] = [1, 0, 2, 0]
    arr[4] = [0, 0, 0, 5]
    tensor = from_numpy(arr, ("sparse", "sparse"))
    np.testing.assert_array_equal(tensor.to_numpy(), arr)


def test_three_mode_tensor():
    rng = np.random.default_rng(2)
    arr = rng.random((3, 4, 5))
    arr[arr < 0.5] = 0.0
    tensor = from_numpy(arr, ("dense", "sparse", "sparse"))
    np.testing.assert_array_equal(tensor.to_numpy(), arr)


def test_nonzero_fill():
    arr = np.full(9, 7.0)
    arr[3] = 1.0
    tensor = from_numpy(arr, ("sparse",), fill=7.0)
    np.testing.assert_array_equal(tensor.to_numpy(), arr)
    assert tensor.fill == 7.0


def test_triangular_roundtrip():
    rng = np.random.default_rng(3)
    arr = np.tril(rng.random((6, 6)))
    tensor = triangular_from_numpy(arr)
    np.testing.assert_array_equal(tensor.to_numpy(), arr)


def test_symmetric_roundtrip():
    rng = np.random.default_rng(4)
    half = rng.random((6, 6))
    arr = half + half.T
    tensor = symmetric_from_numpy(arr)
    np.testing.assert_allclose(tensor.to_numpy(), arr)


def test_symmetric_rejects_asymmetric():
    with pytest.raises(FormatError):
        symmetric_from_numpy(np.array([[1.0, 2.0], [3.0, 4.0]]))


def test_scalar_tensor():
    tensor = from_numpy(np.array(4.5))
    assert tensor.ndim == 0
    assert tensor.to_numpy() == 4.5


def test_format_count_mismatch():
    with pytest.raises(FormatError):
        from_numpy(np.zeros((3, 3)), ("dense",))


def test_unknown_format():
    with pytest.raises(FormatError):
        from_numpy(np.zeros(3), ("mystery",))


def test_rle_must_be_innermost():
    with pytest.raises(FormatError):
        from_numpy(np.zeros((3, 3)), ("rle", "dense"))


def test_uint8_dtype_preserved():
    arr = np.array([1, 1, 1, 5, 5, 0], dtype=np.uint8)
    tensor = from_numpy(arr, ("rle",))
    out = tensor.to_numpy()
    assert out.dtype == np.uint8
    np.testing.assert_array_equal(out, arr)


@pytest.mark.parametrize("fmt", VECTOR_FORMATS)
def test_nan_is_stored_and_never_joins_a_run(fmt):
    """NaN equals nothing, itself included: it is never fill and three
    in a row are three runs (the element-by-element rle and packbits
    scans never got past the first)."""
    vec = np.array([0.0, np.nan, np.nan, np.nan, 2.0, 0.0])
    tensor = from_numpy(vec, (fmt,))
    np.testing.assert_array_equal(tensor.to_numpy(), vec)
    assert np.isnan(tensor.element.val).sum() == 3
