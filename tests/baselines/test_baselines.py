"""Unit tests for the baseline kernels and the reference interpreter."""

import numpy as np
import pytest

import repro.lang as fl
from repro.baselines import dense_ref, twofinger
from repro.baselines.reference import interpret
from repro.util.errors import ReproError


class TestTwoFinger:
    def test_dot_merge_matches_numpy(self):
        rng = np.random.default_rng(0)
        a = rng.random(50); a[a < 0.6] = 0
        b = rng.random(50); b[b < 0.6] = 0
        a_idx, a_val = twofinger.coords_of(a)
        b_idx, b_val = twofinger.coords_of(b)
        value, steps = twofinger.dot_merge(a_idx, a_val, b_idx, b_val)
        assert value == pytest.approx(float(a @ b))
        assert steps <= len(a_idx) + len(b_idx)

    def test_dot_merge_disjoint(self):
        value, steps = twofinger.dot_merge(
            np.array([0, 1]), np.array([1.0, 1.0]),
            np.array([5, 6]), np.array([1.0, 1.0]))
        assert value == 0.0

    def test_spmspv_merge(self):
        rng = np.random.default_rng(1)
        mat = rng.random((6, 9)); mat[mat < 0.5] = 0
        vec = rng.random(9); vec[vec < 0.5] = 0
        pos, idx, val = twofinger.csr_of(mat)
        x_idx, x_val = twofinger.coords_of(vec)
        y, _ = twofinger.spmspv_merge(pos, idx, val, x_idx, x_val, 6)
        np.testing.assert_allclose(y, mat @ vec)

    def test_gallop_equals_merge(self):
        rng = np.random.default_rng(2)
        a_idx = np.sort(rng.choice(1000, 12, replace=False))
        b_idx = np.sort(rng.choice(1000, 300, replace=False))
        merge_count, merge_steps = twofinger.intersect_merge(a_idx, b_idx)
        gallop_count, gallop_steps = twofinger.intersect_gallop(a_idx,
                                                                b_idx)
        assert merge_count == gallop_count
        assert gallop_steps < merge_steps

    def test_triangle_counts_agree(self):
        from repro.workloads import graphs

        adj = graphs.erdos_renyi_adjacency(30, 0.2, seed=3)
        pos, idx = graphs.adjacency_to_csr(adj)
        expected = graphs.triangle_count_reference(adj)
        merge_count, _ = twofinger.triangle_count_merge(pos, idx, 30)
        gallop_count, _ = twofinger.triangle_count_gallop(pos, idx, 30)
        assert merge_count == expected
        assert gallop_count == expected


class TestDenseRef:
    def test_convolution_loops_match_numpy(self):
        rng = np.random.default_rng(4)
        grid = rng.random((10, 12))
        filt = rng.random((3, 3))
        np.testing.assert_allclose(
            dense_ref.convolve2d_loops(grid, filt),
            dense_ref.convolve2d_numpy(grid, filt), atol=1e-12)

    def test_alpha_blend_loops_match_numpy(self):
        rng = np.random.default_rng(5)
        img_b = rng.integers(0, 255, (6, 7)).astype(np.uint8)
        img_c = rng.integers(0, 255, (6, 7)).astype(np.uint8)
        np.testing.assert_array_equal(
            dense_ref.alpha_blend_loops(img_b, img_c, 0.3, 0.7),
            dense_ref.alpha_blend_numpy(img_b, img_c, 0.3, 0.7))

    def test_all_pairs_loops_match_numpy(self):
        rng = np.random.default_rng(6)
        images = rng.integers(0, 9, (4, 25)).astype(float)
        np.testing.assert_allclose(
            dense_ref.all_pairs_loops(images),
            dense_ref.all_pairs_numpy(images), atol=1e-9)

    def test_spmv_loops(self):
        rng = np.random.default_rng(7)
        mat = rng.random((5, 6))
        vec = rng.random(6)
        np.testing.assert_allclose(dense_ref.spmv_loops(mat, vec),
                                   mat @ vec)


class TestInterpreter:
    def test_spmv(self):
        rng = np.random.default_rng(8)
        mat = rng.random((4, 6)); mat[mat < 0.4] = 0
        vec = rng.random(6)
        A = fl.from_numpy(mat, ("dense", "sparse"), name="A")
        x = fl.from_numpy(vec, ("dense",), name="x")
        y = fl.zeros(4, name="y")
        i, j = fl.indices("i", "j")
        prog = fl.forall(i, fl.forall(j, fl.increment(
            y[i], A[i, j] * x[j])))
        result = interpret(prog).result_for(y)
        np.testing.assert_allclose(result, mat @ vec)

    def test_sieve_semantics(self):
        y = fl.zeros(4, name="y")
        i = fl.indices("i")
        prog = fl.forall(i, fl.sieve(fl.lt(i, 2), fl.store(y[i], 1.0)),
                         ext=(0, 4))
        result = interpret(prog).result_for(y)
        np.testing.assert_allclose(result, [1, 1, 0, 0])

    def test_where_resets_temporary(self):
        mat = np.ones((2, 3))
        A = fl.from_numpy(mat, ("dense", "dense"), name="A")
        O = fl.zeros(2, name="O")
        o = fl.Scalar(name="o")
        i, j = fl.indices("i", "j")
        inner = fl.forall(j, fl.increment(o[()], A[i, j]))
        prog = fl.forall(i, fl.where(fl.store(O[i], o[()]), inner))
        result = interpret(prog).result_for(O)
        np.testing.assert_allclose(result, [3.0, 3.0])

    def test_out_of_bounds_without_permit_raises(self):
        A = fl.from_numpy(np.ones(3), ("dense",), name="A")
        C = fl.Scalar(name="C")
        i = fl.indices("i")
        prog = fl.forall(i, fl.increment(C[()], fl.access(
            A, fl.offset(i, -2))), ext=(0, 3))
        with pytest.raises(ReproError):
            interpret(prog)

    def test_permit_pads_with_missing(self):
        A = fl.from_numpy(np.array([1.0, 2.0, 3.0]), ("dense",),
                          name="A")
        out = fl.zeros(3, name="out")
        i = fl.indices("i")
        prog = fl.forall(i, fl.store(out[i], fl.coalesce(fl.access(
            A, fl.permit(fl.offset(i, -2))), 9.0)))
        result = interpret(prog).result_for(out)
        np.testing.assert_allclose(result, [3.0, 9.0, 9.0])

    def test_reduction_ops(self):
        vec = np.array([3.0, 7.0, 1.0])
        A = fl.from_numpy(vec, ("dense",), name="A")
        m = fl.Scalar(name="m")
        i = fl.indices("i")
        prog = fl.forall(i, fl.reduce_into(m[()], fl.ops.MAX, A[i]))
        assert interpret(prog).result_for(m) == 7.0

    @pytest.mark.parametrize("fmt", ["dense", "sparse"])
    def test_accumulates_in_the_output_elements_dtype(self, fmt):
        # float32 products summed into a float64 output: each step adds
        # a float32 term to a float64 element, in float64, as every
        # kernel does.  A Python float plus the term would be float32.
        def program():
            A = fl.from_numpy(np.full((2, 6), 0.1, np.float32),
                              ("dense", fmt), name="A")
            x = fl.from_numpy(np.full(6, 0.1, np.float32), ("dense",),
                              name="x")
            y = fl.zeros(2, name="y")
            i, j = fl.indices("i", "j")
            return fl.forall(i, fl.forall(j, fl.increment(
                y[i], A[i, j] * x[j]))), y

        expected = np.float64(0.0)
        for _ in range(6):
            expected = expected + np.float32(0.1) * np.float32(0.1)
        prog, y = program()
        np.testing.assert_array_equal(interpret(prog).result_for(y),
                                      [expected] * 2)
        for opt_level in (0, 2):
            prog, y = program()
            fl.compile_kernel(prog, opt_level=opt_level, cache=False).run()
            np.testing.assert_array_equal(y.to_numpy(), [expected] * 2)

    def test_unbound_variable_error(self):
        C = fl.Scalar(name="C")
        from repro.cin.nodes import Assign
        from repro.ir import Var, ops as _ops

        prog = Assign(C[()], _ops.ADD, Var("ghost"))
        with pytest.raises(ReproError):
            interpret(prog)

    def test_fig10_run_output_is_a_dense_result(self):
        from repro.bench import figures
        from repro.bench.kernels import alpha_blend_program

        img_b, img_c = figures.fig10_image_pair("digit", seed=1)
        prog, A = alpha_blend_program(img_b, img_c, figures.FIG10_ALPHA,
                                      figures.FIG10_BETA, "rle")
        result = interpret(prog).result_for(A)
        assert result.dtype == np.uint8
        np.testing.assert_array_equal(result, dense_ref.alpha_blend_numpy(
            img_b, img_c, figures.FIG10_ALPHA, figures.FIG10_BETA))
        fl.compile_kernel(prog).run()
        np.testing.assert_array_equal(A.to_numpy(), result)

    def test_dropfills_sparse_output_is_a_dense_result(self):
        # The program ``tensors.convert.dropfills`` compiles.
        mat = np.zeros((3, 6))
        mat[0, 2] = 4.0
        mat[2, 5] = 5.0
        M = fl.from_numpy(mat, ("dense", "rle"), name="M")
        out = fl.SparseOutput((3, 6), name="out")
        i, j = fl.indices("i", "j")
        prog = fl.forall(i, fl.forall(j, fl.store(out[i, j], M[i, j])))
        np.testing.assert_array_equal(interpret(prog).result_for(out),
                                      mat)
        np.testing.assert_array_equal(fl.dropfills(M).to_numpy(), mat)

    def test_reduction_into_append_output_rejected(self):
        A = fl.from_numpy(np.ones(4), ("dense",), name="A")
        out = fl.RunOutput((4,), name="out")
        i = fl.indices("i")
        with pytest.raises(ReproError):
            interpret(fl.forall(i, fl.increment(out[i], A[i])))
