"""End-to-end kernels checked against numpy oracles.

Every test compiles a CIN program through the full pipeline (unfurl,
progressive lowering, source emission, exec) and compares the result
with a dense numpy computation.
"""

import numpy as np
import pytest

import repro.lang as fl
from repro.baselines.reference import interpret
from repro.formats import format_names
from repro.util.errors import DimensionError, ReproError

RNG = np.random.default_rng(1234)
ALL_VECTOR_FORMATS = format_names()


def sparse_vector(n, density=0.3, seed=0):
    rng = np.random.default_rng(seed)
    vec = rng.random(n)
    vec[rng.random(n) > density] = 0.0
    return vec


def banded_vector(n, lo, hi, seed=0):
    rng = np.random.default_rng(seed)
    vec = np.zeros(n)
    vec[lo:hi] = rng.random(hi - lo) + 0.1
    return vec


class TestDotProduct:
    """C[] += A[i] * B[i] over every pair of vector formats."""

    @pytest.mark.parametrize("fmt_a", ALL_VECTOR_FORMATS)
    @pytest.mark.parametrize("fmt_b", ALL_VECTOR_FORMATS)
    def test_format_pairs(self, fmt_a, fmt_b):
        a = sparse_vector(30, density=0.4, seed=3)
        b = banded_vector(30, 8, 19, seed=4)
        A = fl.from_numpy(a, (fmt_a,), name="A")
        B = fl.from_numpy(b, (fmt_b,), name="B")
        C = fl.Scalar(name="C")
        i = fl.indices("i")
        fl.execute(fl.forall(i, fl.increment(C[()], A[i] * B[i])))
        assert C.value == pytest.approx(float(a @ b))

    @pytest.mark.parametrize("proto", [fl.walk, fl.gallop])
    def test_protocols_on_sparse_lists(self, proto):
        a = sparse_vector(60, density=0.15, seed=5)
        b = sparse_vector(60, density=0.5, seed=6)
        A = fl.from_numpy(a, ("sparse",), name="A")
        B = fl.from_numpy(b, ("sparse",), name="B")
        C = fl.Scalar(name="C")
        i = fl.indices("i")
        fl.execute(fl.forall(i, fl.increment(
            C[()], fl.access(A, proto(i)) * fl.access(B, proto(i)))))
        assert C.value == pytest.approx(float(a @ b))

    def test_leader_follower(self):
        a = sparse_vector(60, density=0.1, seed=7)
        b = sparse_vector(60, density=0.6, seed=8)
        A = fl.from_numpy(a, ("sparse",), name="A")
        B = fl.from_numpy(b, ("sparse",), name="B")
        C = fl.Scalar(name="C")
        i = fl.indices("i")
        fl.execute(fl.forall(i, fl.increment(
            C[()], fl.access(A, fl.gallop(i)) * fl.access(B, fl.walk(i)))))
        assert C.value == pytest.approx(float(a @ b))

    def test_empty_vectors(self):
        A = fl.from_numpy(np.zeros(10), ("sparse",), name="A")
        B = fl.from_numpy(np.zeros(10), ("sparse",), name="B")
        C = fl.Scalar(name="C")
        i = fl.indices("i")
        fl.execute(fl.forall(i, fl.increment(C[()], A[i] * B[i])))
        assert C.value == 0.0

    def test_disjoint_supports(self):
        a = np.zeros(20)
        a[:5] = 1.0
        b = np.zeros(20)
        b[10:] = 1.0
        A = fl.from_numpy(a, ("sparse",), name="A")
        B = fl.from_numpy(b, ("sparse",), name="B")
        C = fl.Scalar(name="C")
        i = fl.indices("i")
        fl.execute(fl.forall(i, fl.increment(C[()], A[i] * B[i])))
        assert C.value == 0.0


class TestSpMV:
    @pytest.mark.parametrize("inner", ["sparse", "vbl", "band", "rle",
                                       "dense"])
    def test_matrix_formats(self, inner):
        m = RNG.random((9, 13))
        m[RNG.random((9, 13)) > 0.4] = 0.0
        v = sparse_vector(13, density=0.5, seed=9)
        A = fl.from_numpy(m, ("dense", inner), name="A")
        x = fl.from_numpy(v, ("sparse",), name="x")
        y = fl.zeros(9, name="y")
        i, j = fl.indices("i", "j")
        fl.execute(fl.forall(i, fl.forall(
            j, fl.increment(y[i], A[i, j] * x[j]))))
        np.testing.assert_allclose(y.to_numpy(), m @ v)

    def test_spmspv_gallop(self):
        m = RNG.random((6, 40))
        m[RNG.random((6, 40)) > 0.2] = 0.0
        v = sparse_vector(40, density=0.1, seed=10)
        A = fl.from_numpy(m, ("dense", "sparse"), name="A")
        x = fl.from_numpy(v, ("sparse",), name="x")
        y = fl.zeros(6, name="y")
        i, j = fl.indices("i", "j")
        fl.execute(fl.forall(i, fl.forall(j, fl.increment(
            y[i], fl.access(A, i, fl.gallop(j)) *
            fl.access(x, fl.gallop(j))))))
        np.testing.assert_allclose(y.to_numpy(), m @ v)

    def test_dense_output_matrix(self):
        m = RNG.random((4, 5))
        n = RNG.random((4, 5))
        A = fl.from_numpy(m, ("dense", "dense"), name="A")
        B = fl.from_numpy(n, ("dense", "sparse"), name="B")
        C = fl.zeros((4, 5), name="C")
        i, j = fl.indices("i", "j")
        fl.execute(fl.forall(i, fl.forall(
            j, fl.store(C[i, j], A[i, j] + B[i, j]))))
        np.testing.assert_allclose(C.to_numpy(), m + n)


class TestTriangleCount:
    def _adjacency(self, n, p, seed):
        rng = np.random.default_rng(seed)
        adj = (rng.random((n, n)) < p).astype(float)
        adj = np.triu(adj, 1)
        return adj + adj.T

    @pytest.mark.parametrize("proto", [fl.walk, fl.gallop])
    def test_counts_match_reference(self, proto):
        adj = self._adjacency(14, 0.3, seed=11)
        A = fl.from_numpy(adj, ("dense", "sparse"), name="A")
        # The paper transposes the third operand so every access is
        # concordant with the i->j->k loop order; adjacency matrices
        # are symmetric, so the transpose shares A's storage.
        AT = fl.from_numpy(adj, ("dense", "sparse"), name="AT")
        C = fl.Scalar(name="C")
        i, j, k = fl.indices("i", "j", "k")
        prog = fl.forall(i, fl.forall(j, fl.forall(k, fl.increment(
            C[()],
            fl.access(A, i, proto(j)) * fl.access(A, j, proto(k)) *
            fl.access(AT, i, proto(k))))))
        fl.execute(prog)
        expected = float(np.trace(adj @ adj @ adj))
        assert C.value == pytest.approx(expected)


class TestStructuredFormats:
    def test_triangular_mv(self):
        n = 8
        tm = np.tril(RNG.random((n, n)))
        x = RNG.random(n)
        T = fl.triangular_from_numpy(tm, name="T")
        X = fl.from_numpy(x, ("dense",), name="X")
        y = fl.zeros(n, name="y")
        i, j = fl.indices("i", "j")
        fl.execute(fl.forall(i, fl.forall(
            j, fl.increment(y[i], T[i, j] * X[j]))))
        np.testing.assert_allclose(y.to_numpy(), tm @ x)

    def test_symmetric_mv(self):
        n = 8
        half = RNG.random((n, n))
        sym = half + half.T
        x = RNG.random(n)
        S = fl.symmetric_from_numpy(sym, name="S")
        X = fl.from_numpy(x, ("dense",), name="X")
        y = fl.zeros(n, name="y")
        i, j = fl.indices("i", "j")
        fl.execute(fl.forall(i, fl.forall(
            j, fl.increment(y[i], S[i, j] * X[j]))))
        np.testing.assert_allclose(y.to_numpy(), sym @ x)

    def test_rle_alpha_blend_uint8(self):
        img_b = np.repeat(np.array([10, 200, 10], dtype=np.uint8), 5)
        img_c = np.repeat(np.array([90, 90, 30], dtype=np.uint8), 5)
        B = fl.from_numpy(img_b, ("rle",), name="B")
        C = fl.from_numpy(img_c, ("rle",), name="C")
        A = fl.zeros(15, dtype=np.uint8, name="A")
        i = fl.indices("i")
        alpha, beta = 0.4, 0.6
        fl.execute(fl.forall(i, fl.store(A[i], fl.call(
            fl.ops.ROUND_U8, alpha * B[i] + beta * C[i]))))
        expected = np.clip(np.round(alpha * img_b.astype(float)
                                    + beta * img_c.astype(float)),
                           0, 255).astype(np.uint8)
        np.testing.assert_array_equal(A.to_numpy(), expected)

    def test_rle_sum_is_linear_in_runs(self):
        vec = np.repeat([3.0, 1.0, 2.0, 5.0], 25)  # 100 values, 4 runs
        R = fl.from_numpy(vec, ("rle",), name="R")
        S = fl.Scalar(name="S")
        i = fl.indices("i")
        n_ops = fl.execute(fl.forall(i, fl.increment(S[()], R[i])),
                           instrument=True)
        assert S.value == pytest.approx(vec.sum())
        # 1 seek + 4 coiteration steps + 4 run-summed updates: O(runs),
        # far below the 100 elements.
        assert n_ops == 9

    def test_vbl_touches_blocks_not_elements(self):
        vec = np.zeros(1000)
        vec[100:200] = 1.0  # one big block
        other = np.zeros(1000)
        other[150] = 2.0    # single nonzero
        V = fl.from_numpy(vec, ("vbl",), name="V")
        W = fl.from_numpy(other, ("sparse",), name="W")
        C = fl.Scalar(name="C")
        i = fl.indices("i")
        n_ops = fl.execute(fl.forall(i, fl.increment(C[()], V[i] * W[i])),
                           instrument=True)
        assert C.value == pytest.approx(2.0)
        # Block-level coiteration: a handful of merge steps and one
        # product — never 100 element visits.
        assert n_ops <= 12


class TestIndexModifiers:
    def test_concatenation(self):
        a = sparse_vector(8, 0.6, seed=12)
        b = sparse_vector(5, 0.6, seed=13)
        A = fl.from_numpy(a, ("sparse",), name="A")
        B = fl.from_numpy(b, ("sparse",), name="B")
        C = fl.zeros(13, name="C")
        i = fl.indices("i")
        prog = fl.forall(i, fl.store(C[i], fl.coalesce(
            fl.access(A, fl.permit(i)),
            fl.access(B, fl.permit(fl.offset(i, 8))),
            0.0)), ext=(0, 13))
        fl.execute(prog)
        np.testing.assert_allclose(C.to_numpy(), np.concatenate([a, b]))

    def test_window_slice(self):
        a = RNG.random(12)
        A = fl.from_numpy(a, ("dense",), name="A")
        C = fl.zeros(4, name="C")
        i = fl.indices("i")
        prog = fl.forall(i, fl.store(C[i], fl.access(
            A, fl.window(i, 3, 7))))
        fl.execute(prog)
        np.testing.assert_allclose(C.to_numpy(), a[3:7])

    def test_window_on_sparse(self):
        a = sparse_vector(20, 0.5, seed=14)
        A = fl.from_numpy(a, ("sparse",), name="A")
        S = fl.Scalar(name="S")
        i = fl.indices("i")
        fl.execute(fl.forall(i, fl.increment(S[()], fl.access(
            A, fl.window(i, 5, 15)))))
        assert S.value == pytest.approx(a[5:15].sum())

    def test_convolution_1d(self):
        a = sparse_vector(30, 0.3, seed=15)
        filt = np.array([0.25, 0.5, 0.25])
        A = fl.from_numpy(a, ("sparse",), name="A")
        F = fl.from_numpy(filt, ("dense",), name="F")
        B = fl.zeros(30, name="B")
        i, j = fl.indices("i", "j")
        body = fl.increment(B[i], fl.coalesce(
            fl.access(A, fl.permit(fl.offset(j, 1 - i))), 0.0) *
            fl.coalesce(fl.access(F, fl.permit(j)), 0.0))
        fl.execute(fl.forall(i, fl.forall(j, body, ext=(0, 3))))
        expected = np.convolve(a, filt[::-1], mode="same")
        np.testing.assert_allclose(B.to_numpy(), expected, atol=1e-12)

    def test_shifted_sparse_dot(self):
        a = sparse_vector(16, 0.5, seed=16)
        b = sparse_vector(16, 0.5, seed=17)
        A = fl.from_numpy(a, ("sparse",), name="A")
        B = fl.from_numpy(b, ("sparse",), name="B")
        C = fl.Scalar(name="C")
        i = fl.indices("i")
        # C += A[i - 2] * B[i] over the overlap (permit pads the edges).
        prog = fl.forall(i, fl.increment(C[()], fl.coalesce(
            fl.access(A, fl.permit(fl.offset(i, 2))), 0.0) * B[i]))
        fl.execute(prog)
        expected = sum(a[k - 2] * b[k] for k in range(2, 16))
        assert C.value == pytest.approx(expected)

    @pytest.mark.parametrize("opt_level", [0, 2])
    @pytest.mark.parametrize("backend", ["python", "c"])
    @pytest.mark.parametrize("fmt", ["dense", "bitmap", "sparse", "rle"])
    def test_offset_out_of_domain_is_rejected(self, fmt, backend,
                                              opt_level):
        # B[offset(i, 1)] reads B[i - 1]: its domain is [1, 11), and
        # the loop runs over A's [0, 10).  Without a permit, the
        # reference interpreter rejects i = 0; a kernel must too, not
        # read before B's buffer.
        A = fl.from_numpy(np.arange(1.0, 11.0), ("dense",), name="A")
        B = fl.from_numpy(np.arange(1.0, 11.0), (fmt,), name="B")
        C = fl.Scalar(name="C")
        i = fl.indices("i")
        prog = fl.forall(i, fl.increment(
            C[()], A[i] * fl.access(B, fl.offset(i, 1))))
        message = (r"index 0 out of bounds for domain \[1, 11\) "
                   r"\(use permit for padded accesses\)")
        with pytest.raises(ReproError, match=message):
            interpret(prog)
        with pytest.raises(DimensionError, match=message):
            fl.compile_kernel(prog, backend=backend, opt_level=opt_level,
                              cache=False)


class TestWhereAndMulti:
    def test_all_pairs_with_temp(self):
        mat = RNG.random((4, 6))
        mat[mat < 0.4] = 0.0
        A = fl.from_numpy(mat, ("dense", "sparse"), name="A")
        O = fl.zeros((4, 4), name="O")
        o = fl.Scalar(name="o")
        k, l, ij = fl.indices("k", "l", "ij")
        inner = fl.forall(ij, fl.increment(o[()], A[k, ij] * A[l, ij]))
        prog = fl.forall(k, fl.forall(l, fl.where(
            fl.store(O[k, l], o[()]), inner)))
        fl.execute(prog)
        np.testing.assert_allclose(O.to_numpy(), mat @ mat.T)

    def test_multi_outputs(self):
        vec = RNG.random(9)
        X = fl.from_numpy(vec, ("dense",), name="X")
        total = fl.Scalar(name="total")
        squares = fl.Scalar(name="squares")
        i = fl.indices("i")
        prog = fl.forall(i, fl.multi(
            fl.increment(total[()], X[i]),
            fl.increment(squares[()], X[i] * X[i])))
        fl.execute(prog)
        assert total.value == pytest.approx(vec.sum())
        assert squares.value == pytest.approx((vec * vec).sum())

    def test_sieve_masks_iterations(self):
        y = fl.zeros(6, name="y")
        i = fl.indices("i")
        prog = fl.forall(i, fl.sieve(
            fl.eq(fl.call(fl.ops.MOD, i, 2), 0),
            fl.store(y[i], 1.0)), ext=(0, 6))
        fl.execute(prog)
        np.testing.assert_allclose(y.to_numpy(), [1, 0, 1, 0, 1, 0])


class TestReductions:
    def test_max_reduction(self):
        vec = sparse_vector(25, 0.4, seed=18)
        X = fl.from_numpy(vec, ("sparse",), name="X")
        m = fl.Scalar(name="m")
        i = fl.indices("i")
        fl.execute(fl.forall(i, fl.reduce_into(m[()], fl.ops.MAX, X[i])))
        assert m.value == pytest.approx(vec.max())

    def test_boolean_any(self):
        vec = np.zeros(12)
        vec[7] = 1.0
        X = fl.from_numpy(vec, ("sparse",), name="X")
        any_pos = fl.Scalar(False, name="any_pos", dtype=bool)
        i = fl.indices("i")
        fl.execute(fl.forall(i, fl.reduce_into(
            any_pos[()], fl.ops.OR, fl.gt(X[i], 0.5))))
        assert bool(any_pos.value) is True

    def test_instrumented_op_count_dense(self):
        vec = np.ones(17)
        X = fl.from_numpy(vec, ("dense",), name="X")
        s = fl.Scalar(name="s")
        i = fl.indices("i")
        n_ops = fl.execute(fl.forall(i, fl.increment(s[()], X[i])),
                           instrument=True)
        assert n_ops == 17

    def test_instrumented_op_count_sparse(self):
        vec = np.zeros(100)
        vec[[3, 30, 60]] = 1.0
        X = fl.from_numpy(vec, ("sparse",), name="X")
        s = fl.Scalar(name="s")
        i = fl.indices("i")
        n_ops = fl.execute(fl.forall(i, fl.increment(s[()], X[i])),
                           instrument=True)
        # 1 seek + one step and one update per stored nonzero: O(nnz),
        # never the 100 dense iterations.
        assert n_ops == 1 + 2 * 3


class TestVBLGallop:
    @pytest.mark.parametrize("proto_w", [fl.walk, fl.gallop])
    def test_vbl_gallop_correctness(self, proto_w):
        rng = np.random.default_rng(77)
        v = np.zeros(300)
        v[40:90] = rng.random(50) + 0.1
        v[200:210] = rng.random(10) + 0.1
        w = np.zeros(300)
        w[rng.choice(300, 12, replace=False)] = rng.random(12) + 0.1
        V = fl.from_numpy(v, ("vbl",), name="V")
        W = fl.from_numpy(w, ("sparse",), name="W")
        C = fl.Scalar(name="C")
        i = fl.indices("i")
        fl.execute(fl.forall(i, fl.increment(
            C[()], fl.access(V, fl.gallop(i)) * fl.access(W, proto_w(i)))))
        assert C.value == pytest.approx(float(v @ w))
