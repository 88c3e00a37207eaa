"""Format construction validation: malformed level data must be
rejected loudly at build time, not misread at kernel time."""

import numpy as np
import pytest

from repro.formats import (
    BitmapLevel,
    DenseLevel,
    ElementLevel,
    PackBitsLevel,
    RaggedLevel,
    RunLengthLevel,
    SparseBandLevel,
    SparseListLevel,
    SparseVBLLevel,
    SymmetricLevel,
    TriangularLevel,
)
from repro.tensors import Scalar, Tensor
from repro.util.errors import FormatError


def element(n=8, fill=0.0):
    return ElementLevel(np.arange(float(n)), fill_value=fill)


class TestElement:
    def test_flat_values_required(self):
        with pytest.raises(FormatError):
            ElementLevel(np.zeros((2, 2)))

    def test_fill_property(self):
        level = ElementLevel(np.zeros(3), fill_value=7.0)
        assert level.fill == 7.0


class TestSparseList:
    def test_pos_must_end_at_nnz(self):
        with pytest.raises(FormatError):
            SparseListLevel(5, element(3), pos=[0, 2], idx=[1, 3, 4])

    def test_indices_must_increase(self):
        with pytest.raises(FormatError):
            SparseListLevel(5, element(2), pos=[0, 2], idx=[3, 1])

    def test_indices_within_shape(self):
        with pytest.raises(FormatError):
            SparseListLevel(5, element(1), pos=[0, 1], idx=[9])

    def test_duplicates_rejected(self):
        with pytest.raises(FormatError):
            SparseListLevel(5, element(2), pos=[0, 2], idx=[2, 2])


class TestBand:
    def test_one_start_per_fiber(self):
        with pytest.raises(FormatError):
            SparseBandLevel(6, element(3), pos=[0, 3], lo=[1, 2])

    def test_band_within_bounds(self):
        with pytest.raises(FormatError):
            SparseBandLevel(4, element(3), pos=[0, 3], lo=[2])


class TestVBL:
    def test_ofs_needs_sentinel(self):
        with pytest.raises(FormatError):
            SparseVBLLevel(6, element(2), pos=[0, 1], end=[3], ofs=[0])

    def test_block_width_positive(self):
        with pytest.raises(FormatError):
            SparseVBLLevel(6, element(2), pos=[0, 1], end=[3],
                           ofs=[0, 0])

    def test_block_within_bounds(self):
        with pytest.raises(FormatError):
            SparseVBLLevel(4, element(2), pos=[0, 1], end=[6],
                           ofs=[0, 2])


class TestRunLength:
    def test_runs_must_tile_dimension(self):
        with pytest.raises(FormatError):
            RunLengthLevel(6, element(2), pos=[0, 2], right=[2, 5])

    def test_runs_must_increase(self):
        with pytest.raises(FormatError):
            RunLengthLevel(6, element(3), pos=[0, 3], right=[4, 2, 6])


class TestPackBits:
    def test_groups_must_tile(self):
        with pytest.raises(FormatError):
            PackBitsLevel(8, element(2), pos=[0, 1], idx=[5],
                          vof=[0, 1])

    def test_vof_sentinel(self):
        with pytest.raises(FormatError):
            PackBitsLevel(8, element(2), pos=[0, 1], idx=[8], vof=[0])


class TestBitmapAndRagged:
    def test_tbl_flat(self):
        with pytest.raises(FormatError):
            BitmapLevel(4, element(8), tbl=np.zeros((2, 4), dtype=bool))

    def test_tbl_multiple_of_shape(self):
        with pytest.raises(FormatError):
            BitmapLevel(3, element(4), tbl=np.zeros(4, dtype=bool))

    def test_ragged_width_bounds(self):
        with pytest.raises(FormatError):
            RaggedLevel(3, element(5), pos=[0, 5])


class TestPacked:
    def test_triangular_needs_packed_count(self):
        with pytest.raises(FormatError):
            TriangularLevel(4, element(9))  # needs 10

    def test_symmetric_needs_packed_count(self):
        with pytest.raises(FormatError):
            SymmetricLevel(4, element(11))


class TestTensorAssembly:
    def test_levels_must_chain(self):
        inner = element(4)
        orphan = DenseLevel(4, element(4))
        with pytest.raises(FormatError):
            Tensor([orphan], inner)

    def test_must_end_in_element(self):
        with pytest.raises(FormatError):
            Tensor([], DenseLevel(4, element(4)))

    def test_scalar_helpers(self):
        scalar = Scalar(2.5, name="s")
        assert scalar.value == 2.5
        scalar.set(7.0)
        assert scalar.value == 7.0
        assert scalar.ndim == 0
        assert scalar.shape == ()

    def test_tensor_repr_mentions_layout(self):
        leaf = element(4)
        tensor = Tensor([DenseLevel(4, leaf)], leaf, name="T")
        assert "Dense" in repr(tensor)

    def test_dimension_error_on_wrong_arity(self):
        import repro.lang as fl
        from repro.util.errors import DimensionError

        tensor = fl.from_numpy(np.zeros((2, 3)), ("dense", "dense"))
        with pytest.raises(DimensionError):
            tensor[fl.indices("i")]


#: A malformed second fiber (or block) behind a well-formed first one:
#: ``(level class, shape, arrays, what the message names)``.  The
#: constructors check every fiber at once; the text still has to name
#: the first one that is wrong.
SECOND_IS_MALFORMED = [
    (SparseListLevel, 5, dict(pos=[0, 2, 4], idx=[3, 4, 3, 1]), "fiber 1"),
    (SparseListLevel, 5, dict(pos=[0, 2, 4], idx=[3, 4, 2, 2]), "fiber 1"),
    (SparseListLevel, 5, dict(pos=[0, 2, 4], idx=[3, 4, 2, 9]), "fiber 1"),
    (SparseListLevel, 5, dict(pos=[0, 2, 4], idx=[3, 4, -1, 2]), "fiber 1"),
    (SparseListLevel, 5, dict(pos=[0, 1, 2, 3], idx=[4, 7, 9]), "fiber 1"),
    (SparseBandLevel, 4, dict(pos=[0, 2, 5], lo=[0, 2]), "band 1"),
    (SparseBandLevel, 4, dict(pos=[0, 2, 3], lo=[0, -1]), "band 1"),
    (SparseBandLevel, 4, dict(pos=[0, 3, 2], lo=[0, 0]), "band 1"),
    (SparseBandLevel, 4, dict(pos=[0, 1, 6, 12], lo=[0, 0, 0]), "band 1"),
    (SparseVBLLevel, 6, dict(pos=[0, 2], end=[2, 9], ofs=[0, 2, 4]),
     "block 1"),
    (SparseVBLLevel, 6, dict(pos=[0, 2], end=[2, 5], ofs=[0, 2, 2]),
     "block 1"),
    (SparseVBLLevel, 6, dict(pos=[0, 2], end=[2, 1], ofs=[0, 2, 4]),
     "block 1"),
    (SparseVBLLevel, 6, dict(pos=[0, 3], end=[2, 9, 9], ofs=[0, 2, 4, 4]),
     "block 1"),
    (RaggedLevel, 3, dict(pos=[0, 2, 7]), "fiber 1"),
    (RaggedLevel, 3, dict(pos=[0, 2, 1]), "fiber 1"),
    (RaggedLevel, 3, dict(pos=[0, 2, 7, 15]), "fiber 1"),
    (RunLengthLevel, 6, dict(pos=[0, 2, 4], right=[2, 6, 2, 5]), "fiber 1"),
    (RunLengthLevel, 6, dict(pos=[0, 2, 5], right=[2, 6, 4, 2, 6]),
     "fiber 1"),
    (RunLengthLevel, 6, dict(pos=[0, 2, 2], right=[2, 6]), "fiber 1"),
    (RunLengthLevel, 6, dict(pos=[0, 1, 2, 3], right=[6, 5, 4]), "fiber 1"),
    (PackBitsLevel, 8, dict(pos=[0, 1, 2], idx=[8, 5], vof=[0, 1, 2]),
     "fiber 1"),
    (PackBitsLevel, 8, dict(pos=[0, 1, 4], idx=[8, -5, 3, 8],
                            vof=[0, 1, 6, 7, 8]), "fiber 1"),
    (PackBitsLevel, 8, dict(pos=[0, 1, 1], idx=[8], vof=[0, 1]), "fiber 1"),
]


@pytest.mark.parametrize("cls, shape, arrays, named", SECOND_IS_MALFORMED)
def test_the_message_names_the_first_malformed_fiber(cls, shape, arrays,
                                                     named):
    with pytest.raises(FormatError, match=r"^%s\b" % named):
        cls(shape, element(16), **arrays)


def test_a_step_down_between_fibers_is_not_a_step_down_within_one():
    SparseListLevel(5, element(4), pos=[0, 2, 4], idx=[3, 4, 0, 1])
    RunLengthLevel(6, element(3), pos=[0, 1, 3], right=[6, 2, 6])
    PackBitsLevel(8, element(3), pos=[0, 1, 3], idx=[8, -3, 8],
                  vof=[0, 1, 4, 5])


@pytest.mark.parametrize("pos", [[1, 3], [0, 2, 1, 3]])
def test_pos_must_segment_from_zero_without_stepping_back(pos):
    with pytest.raises(FormatError, match="^pos must start at 0"):
        SparseListLevel(5, element(3), pos=pos, idx=[0, 1, 2])
    with pytest.raises(FormatError, match="^pos must start at 0"):
        RunLengthLevel(6, element(3), pos=pos, right=[2, 4, 6])


class TestContiguity:
    """Kernels bind raw buffers: the C backend refuses a strided one,
    so the constructors own the coercion."""

    def strided_tensor(self):
        from repro.tensors import Tensor

        leaf = ElementLevel(np.arange(1.0, 20.0)[::2], fill_value=0.0)
        level = SparseListLevel(32, leaf, pos=[0, 10],
                                idx=np.arange(20)[::2])
        return Tensor([level], leaf, name="A")

    def test_level_arrays_and_values_are_c_contiguous(self):
        tensor = self.strided_tensor()
        for array in tensor.buffers().values():
            assert array.flags.c_contiguous
        assert tensor.levels[0].idx.dtype == np.int64

    @pytest.mark.parametrize("backend", ["python", "c"])
    def test_strided_index_array_runs_on_both_backends(self, backend):
        import repro.lang as fl
        from repro import codegen

        if backend == "c" and not codegen.have_toolchain():
            pytest.skip("no C toolchain")
        A = self.strided_tensor()
        B = fl.from_numpy(np.ones(32), ("dense",), name="B")
        C = fl.Scalar(name="C")
        i = fl.indices("i")
        kernel = fl.compile_kernel(
            fl.forall(i, fl.increment(C[()], A[i] * B[i])),
            cache=False, backend=backend)
        kernel.run()
        assert kernel.effective_backend == backend
        assert C.value == float(np.arange(1.0, 20.0)[::2].sum())
