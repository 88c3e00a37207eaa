"""Tests for tensor format conversion."""

import numpy as np
import pytest

import repro.lang as fl
from repro.formats import format_names
from repro.tensors.convert import convert, dropfills
from repro.util.errors import FormatError

SOURCES = format_names()
KERNEL_TARGETS = ["dense", "sparse", "rle"]
HOST_TARGETS = [fmt for fmt in SOURCES if fmt not in KERNEL_TARGETS]


def example(seed=0, n=20):
    rng = np.random.default_rng(seed)
    vec = np.zeros(n)
    vec[4:9] = rng.integers(1, 4, size=5).astype(float)
    vec[14] = 2.0
    return vec


@pytest.mark.parametrize("src", SOURCES)
@pytest.mark.parametrize("dst", KERNEL_TARGETS)
def test_kernel_conversion_roundtrip(src, dst):
    vec = example()
    tensor = fl.from_numpy(vec, (src,), name="T")
    converted = convert(tensor, (dst,))
    np.testing.assert_array_equal(converted.to_numpy(), vec)


@pytest.mark.parametrize("dst", HOST_TARGETS)
def test_host_conversion_roundtrip(dst):
    vec = example(seed=1)
    tensor = fl.from_numpy(vec, ("sparse",), name="T")
    converted = convert(tensor, (dst,))
    np.testing.assert_array_equal(converted.to_numpy(), vec)


def test_matrix_conversion():
    rng = np.random.default_rng(2)
    mat = rng.random((5, 9))
    mat[mat < 0.6] = 0.0
    tensor = fl.from_numpy(mat, ("dense", "vbl"), name="M")
    converted = convert(tensor, ("dense", "sparse"))
    np.testing.assert_array_equal(converted.to_numpy(), mat)
    layout = [type(level).__name__ for level in converted.levels]
    assert layout == ["DenseLevel", "SparseListLevel"]


def test_rle_target_produces_runlength_level():
    vec = np.repeat([1.0, 0.0, 3.0], 6)
    tensor = fl.from_numpy(vec, ("dense",), name="T")
    converted = convert(tensor, ("rle",))
    assert type(converted.levels[0]).__name__ == "RunLengthLevel"
    np.testing.assert_array_equal(converted.to_numpy(), vec)
    # 18 elements, 3 runs.
    assert len(converted.levels[0].right) == 3


def test_single_format_string_broadcasts():
    mat = np.eye(4)
    tensor = fl.from_numpy(mat, ("dense", "dense"), name="I")
    converted = convert(tensor, "sparse")
    # outer sparse is a host-side conversion; values survive
    np.testing.assert_array_equal(converted.to_numpy(), mat)


def test_dropfills():
    vec = np.array([0.0, 5.0, 0.0, 0.0, 7.0])
    tensor = fl.from_numpy(vec, ("dense",), name="T")
    compressed = dropfills(tensor)
    assert type(compressed.levels[0]).__name__ == "SparseListLevel"
    assert len(compressed.levels[0].idx) == 2
    np.testing.assert_array_equal(compressed.to_numpy(), vec)


def test_nonzero_fill_preserved():
    vec = np.full(10, 9.0)
    vec[3] = 1.0
    tensor = fl.from_numpy(vec, ("sparse",), fill=9.0, name="T")
    converted = convert(tensor, ("sparse",))
    assert converted.fill == 9.0
    np.testing.assert_array_equal(converted.to_numpy(), vec)


def test_format_count_checked():
    tensor = fl.from_numpy(np.zeros((2, 2)), ("dense", "dense"))
    with pytest.raises(FormatError):
        convert(tensor, ("dense",))


def test_scalar_rejected():
    with pytest.raises(FormatError):
        convert(fl.Scalar(name="C"), ())
