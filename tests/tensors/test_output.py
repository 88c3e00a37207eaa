"""Unit tests for append-output assembly.

The streams are plain arrays written by emitted code, so every
behaviour is driven through a compiled kernel.
"""

import numpy as np
import pytest

import repro.lang as fl
from repro.tensors.output import RunOutput, SparseOutput
from repro.util.errors import FormatError, ReproError


def copy_into(out, src, formats, ext=None):
    """Run ``out[...] = A[...]`` over ``src`` stored in ``formats``."""
    A = fl.from_numpy(src, formats, name="A")
    idxs = fl.indices(*"ij"[:src.ndim])
    idxs = idxs if isinstance(idxs, tuple) else (idxs,)
    body = fl.store(out[idxs], A[idxs])
    for position, idx in enumerate(reversed(idxs)):
        body = fl.forall(idx, body, ext=ext if position == 0 else None)
    kernel = fl.compile_kernel(body)
    kernel.run()
    return kernel


def transposed_store(out, mat):
    """The discordant ``forall i, j: out[j, i] = A[i, j]``."""
    A = fl.from_numpy(mat, ("dense", "dense"), name="A")
    i, j = fl.indices("i", "j")
    return fl.compile_kernel(
        fl.forall(i, fl.forall(j, fl.store(out[j, i], A[i, j]))))


class TestRunStream:
    def test_merges_adjacent_equal_runs(self):
        # Two appends, [0, 3) and [3, 6), of the same blended value.
        B = fl.from_numpy(np.repeat([1.0, 2.0], 3), ("rle",), name="B")
        C = fl.from_numpy(np.repeat([4.0, 3.0], 3), ("rle",), name="C")
        out = RunOutput((6,), fill=0.0, name="out")
        i = fl.indices("i")
        ops = fl.execute(fl.forall(i, fl.store(out[i], B[i] + C[i])),
                         instrument=True)
        assert ops >= 2
        assert out.run_count() == 1
        np.testing.assert_array_equal(out.to_numpy(), [5.0] * 6)

    def test_gaps_filled_with_fill(self):
        out = RunOutput((10,), fill=0.0, name="out")
        copy_into(out, np.full(10, 2.0), ("rle",), ext=(4, 6))
        level = out.to_tensor().levels[-1]
        np.testing.assert_array_equal(level.right, [4, 6, 10])
        np.testing.assert_array_equal(out.to_tensor().element.val,
                                      [0.0, 2.0, 0.0])

    @pytest.mark.parametrize("cls", [RunOutput, SparseOutput])
    def test_out_of_order_append_rejected(self, cls):
        out = cls((3, 2), name="out")
        kernel = transposed_store(out, np.arange(1.0, 7.0).reshape(2, 3))
        kernel.run()
        assert out.state[0] <= out.total
        with pytest.raises(ReproError, match="appended out of order"):
            out.to_numpy()
        with pytest.raises(ReproError, match="appended out of order"):
            out.to_tensor()

    def test_empty_append_ignored(self):
        # A band starting at column 0 leaves its leading fill phase
        # empty at run time: the append over [0, 0) stores nothing.
        src = np.array([3.0, 4.0, 0.0, 0.0, 0.0])
        out = RunOutput((5,), fill=0.0, name="out")
        copy_into(out, src, ("band",))
        assert out.run_count() == 3
        np.testing.assert_array_equal(out.to_numpy(), src)

    def test_reset(self):
        out = RunOutput((4,), fill=0.0, name="out")
        kernel = copy_into(out, np.array([1.0, 2.0, 3.0, 4.0]), ("rle",))
        assert out.run_count() == 4
        kernel.run(A=fl.from_numpy(np.zeros(4), ("rle",), name="A"))
        assert out.run_count() == 1
        np.testing.assert_array_equal(out.to_numpy(), np.zeros(4))


class TestRunOutput:
    def test_roundtrip_dense_values(self):
        out = RunOutput((2, 6), fill=0.0)
        src = np.array([[1.0] * 6, [2.0] * 6])
        copy_into(out, src, ("dense", "rle"))
        np.testing.assert_array_equal(out.to_numpy(), src)

    def test_run_crossing_row_boundary_splits(self):
        # The 7s cover the end of row 0 and the start of row 1: one
        # run in the stream, cut at the boundary on finalize.
        out = RunOutput((2, 4), fill=0.0)
        src = np.array([[0.0, 0, 7, 7], [7, 7, 0, 0]])
        copy_into(out, src, ("dense", "rle"))
        assert out.run_count() == 3
        level = out.to_tensor().levels[-1]
        np.testing.assert_array_equal(level.pos, [0, 2, 4])
        np.testing.assert_array_equal(level.right, [2, 4, 2, 4])
        np.testing.assert_array_equal(out.to_numpy(), src)

    def test_needs_at_least_one_mode(self):
        with pytest.raises(FormatError):
            RunOutput((), fill=0.0)

    def test_index_count_checked(self):
        out = RunOutput((2, 4))
        with pytest.raises(FormatError):
            out[fl.indices("i")]

    def test_kernel_pins_are_arrays_sized_by_the_shape(self):
        out = RunOutput((4, 6), fill=0, dtype=np.uint8)
        _, coords, vals, state = out.kernel_pins()
        assert coords is out.coords and vals is out.vals
        assert state is out.state
        assert coords.shape == (24,)
        assert coords.dtype == np.int64
        assert vals.shape == (24,)
        assert vals.dtype == np.uint8
        assert state.tolist() == [0, 0, 0]
        np.testing.assert_array_equal(out.to_numpy(),
                                      np.zeros((4, 6), dtype=np.uint8))


class TestCompiledRunOutputs:
    def test_copy_through_rle(self):
        src = np.repeat([1.0, 0.0, 4.0], 5)
        A = fl.from_numpy(src, ("rle",), name="A")
        out = RunOutput((15,), fill=0.0, name="out")
        i = fl.indices("i")
        kernel = fl.compile_kernel(
            fl.forall(i, fl.store(out[i], A[i])), instrument=True)
        ops = kernel.run()
        np.testing.assert_array_equal(out.to_numpy(), src)
        assert ops <= 8  # O(runs), not O(elements)

    def test_rerun_resets_stream(self):
        src = np.repeat([2.0, 3.0], 4)
        A = fl.from_numpy(src, ("rle",), name="A")
        out = RunOutput((8,), fill=0.0, name="out")
        i = fl.indices("i")
        kernel = fl.compile_kernel(fl.forall(i, fl.store(out[i], A[i])))
        kernel.run()
        kernel.run()
        np.testing.assert_array_equal(out.to_numpy(), src)

    def test_pointwise_positions_fall_back_to_point_appends(self):
        src = np.array([5.0, 6.0, 7.0])
        A = fl.from_numpy(src, ("dense",), name="A")
        out = RunOutput((3,), fill=0.0, name="out")
        i = fl.indices("i")
        fl.execute(fl.forall(i, fl.store(out[i], A[i] * 2.0)))
        np.testing.assert_array_equal(out.to_numpy(), src * 2)

    def test_reduction_into_run_output_rejected(self):
        from repro.util.errors import LoweringError

        src = np.ones(4)
        A = fl.from_numpy(src, ("dense",), name="A")
        out = RunOutput((4,), fill=0.0, name="out")
        i = fl.indices("i")
        with pytest.raises(LoweringError):
            fl.execute(fl.forall(i, fl.increment(out[i], A[i])))

    def test_uint8_blend_matches_dense(self):
        img_b = np.repeat(np.array([10, 250], dtype=np.uint8), 6)
        img_c = np.repeat(np.array([30, 40], dtype=np.uint8), 6)
        B = fl.from_numpy(img_b.reshape(1, -1), ("dense", "rle"),
                          name="B", fill=0)
        C = fl.from_numpy(img_c.reshape(1, -1), ("dense", "rle"),
                          name="C", fill=0)
        out = RunOutput((1, 12), fill=0, dtype=np.uint8, name="out")
        i, j = fl.indices("i", "j")
        fl.execute(fl.forall(i, fl.forall(j, fl.store(
            out[i, j], fl.call(fl.ops.ROUND_U8,
                               0.5 * B[i, j] + 0.5 * C[i, j])))))
        expected = np.clip(np.round(0.5 * img_b.astype(float)
                                    + 0.5 * img_c.astype(float)),
                           0, 255).astype(np.uint8)
        np.testing.assert_array_equal(out.to_numpy()[0], expected)


class TestSparseOutput:
    def test_pointwise_product_assembles_intersection(self):
        rng = np.random.default_rng(1)
        a = rng.random(25)
        a[a < 0.6] = 0
        b = rng.random(25)
        b[b < 0.6] = 0
        A = fl.from_numpy(a, ("sparse",), name="A")
        B = fl.from_numpy(b, ("sparse",), name="B")
        out = SparseOutput((25,), name="out")
        i = fl.indices("i")
        fl.execute(fl.forall(i, fl.store(out[i], A[i] * B[i])))
        np.testing.assert_allclose(out.to_numpy(), a * b)
        assert out.nnz() == np.count_nonzero(a * b)

    def test_runtime_zero_results_are_skipped(self):
        vec = np.array([1.0, -1.0, 2.0])
        A = fl.from_numpy(vec, ("dense",), name="A")
        out = SparseOutput((3,), name="out")
        i = fl.indices("i")
        # A[i] + A[i] * -1 ... use (A[i] - 1) so index 0 lands on fill.
        fl.execute(fl.forall(i, fl.store(out[i], A[i] - 1.0)))
        np.testing.assert_allclose(out.to_numpy(), vec - 1.0)
        assert out.nnz() == 2  # the exact zero is elided

    def test_matrix_rows(self):
        mat = np.zeros((3, 6))
        mat[0, 2] = 4.0
        mat[2, 5] = 5.0
        M = fl.from_numpy(mat, ("dense", "sparse"), name="M")
        out = SparseOutput((3, 6), name="out")
        i, j = fl.indices("i", "j")
        fl.execute(fl.forall(i, fl.forall(j, fl.store(
            out[i, j], M[i, j]))))
        np.testing.assert_allclose(out.to_numpy(), mat)

    def test_reduction_rejected(self):
        from repro.tensors.output import SparseOutput
        from repro.util.errors import LoweringError

        A = fl.from_numpy(np.ones(4), ("dense",), name="A")
        out = SparseOutput((4,), name="out")
        i = fl.indices("i")
        with pytest.raises(LoweringError):
            fl.execute(fl.forall(i, fl.increment(out[i], A[i])))
