"""The kernel cache: hit/miss semantics, oracle equivalence of cached
kernels rebound to fresh data, rebinding, and LRU eviction."""

import numpy as np
import pytest

import repro.lang as fl
from repro.bench.kernels import (
    all_pairs_similarity_program,
    alpha_blend_program,
    masked_convolution_program,
    spmspv_program,
    triangle_count_program,
)
from repro.compiler.kernel import KernelCache
from repro.util.errors import BindingError


@pytest.fixture(autouse=True)
def fresh_cache():
    fl.kernel_cache().clear()
    yield
    fl.kernel_cache().clear()


def dot_program(a, b):
    A = fl.from_numpy(a, ("sparse",), name="A")
    B = fl.from_numpy(b, ("band",), name="B")
    C = fl.Scalar(name="C")
    i = fl.indices("i")
    return fl.forall(i, fl.increment(C[()], A[i] * B[i])), C


def sparse_vec(n, nnz, seed):
    rng = np.random.default_rng(seed)
    vec = np.zeros(n)
    vec[rng.choice(n, nnz, replace=False)] = rng.random(nnz) + 0.1
    return vec


def band_vec(n, lo, hi, seed):
    rng = np.random.default_rng(seed)
    vec = np.zeros(n)
    vec[lo:hi] = rng.random(hi - lo) + 0.1
    return vec


def sparse_mat(rows, cols, density, seed):
    rng = np.random.default_rng(seed)
    mat = rng.random((rows, cols))
    mat[rng.random((rows, cols)) > density] = 0.0
    return mat


def adjacency(n, density, seed):
    rng = np.random.default_rng(seed)
    mat = (rng.random((n, n)) < density).astype(float)
    mat = np.triu(mat, 1)
    return mat + mat.T


class TestCacheHitOracle:
    """Same structure + fresh data: the second compile is a hit, and
    the rebound artifact's outputs are bitwise-identical to a fresh,
    uncached compile over the same data."""

    def _check(self, make_program, output_of):
        prog_one, _ = make_program(seed=1)
        kernel_one = fl.compile_kernel(prog_one)
        assert not kernel_one.from_cache
        kernel_one.run()

        prog_two, out_two = make_program(seed=2)
        kernel_two = fl.compile_kernel(prog_two)
        assert kernel_two.from_cache
        assert kernel_two.source == kernel_one.source
        kernel_two.run()
        cached_result = output_of(out_two)

        prog_ref, out_ref = make_program(seed=2)
        kernel_ref = fl.compile_kernel(prog_ref, cache=False)
        assert not kernel_ref.from_cache
        kernel_ref.run()
        expected = output_of(out_ref)
        np.testing.assert_array_equal(cached_result, expected)
        stats = fl.kernel_cache().stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_dot(self):
        def make(seed):
            return dot_program(sparse_vec(60, 7, seed),
                               band_vec(60, 20, 45, seed))

        self._check(make, lambda c: np.array(c.value))

    def test_spmspv(self):
        def make(seed):
            return spmspv_program(sparse_mat(12, 15, 0.3, seed),
                                  sparse_vec(15, 5, seed),
                                  "gallop_both")

        self._check(make, lambda y: y.to_numpy())

    def test_triangle_count(self):
        def make(seed):
            return triangle_count_program(adjacency(14, 0.4, seed),
                                          "gallop")

        self._check(make, lambda c: np.array(c.value))

    def test_convolution(self):
        filt = np.ones((3, 3)) / 9.0

        def make(seed):
            return masked_convolution_program(
                sparse_mat(10, 10, 0.2, seed), filt)

        self._check(make, lambda c: c.to_numpy())

    def test_alpha_blend(self):
        def make(seed):
            rng = np.random.default_rng(seed)
            img_b, img_c = (np.repeat(rng.integers(0, 3, (6, 4)), 5,
                                      axis=1).astype(np.uint8) * 100
                            for _ in range(2))
            return alpha_blend_program(img_b, img_c, 0.4, 0.6, "rle")

        self._check(make, lambda a: a.to_numpy())

    def test_all_pairs(self):
        def make(seed):
            return all_pairs_similarity_program(
                sparse_mat(4, 30, 0.3, seed), "vbl")

        self._check(make, lambda o: o.to_numpy())

    def test_execute_routes_through_cache(self):
        for seed in (1, 2, 3):
            prog, _ = dot_program(sparse_vec(40, 5, seed),
                                  band_vec(40, 10, 30, seed))
            fl.execute(prog)
        stats = fl.kernel_cache().stats()
        assert stats["misses"] == 1 and stats["hits"] == 2

    def test_tensor_names_do_not_affect_the_key(self):
        a, b = sparse_vec(30, 4, 1), band_vec(30, 5, 20, 1)
        prog_one, _ = dot_program(a, b)
        fl.compile_kernel(prog_one)

        A = fl.from_numpy(a, ("sparse",), name="completely")
        B = fl.from_numpy(b, ("band",), name="different")
        C = fl.Scalar(name="names")
        i = fl.indices("i")
        renamed = fl.forall(i, fl.increment(C[()], A[i] * B[i]))
        kernel = fl.compile_kernel(renamed)
        assert kernel.from_cache
        kernel.run()
        assert C.value == pytest.approx(a @ b)


class TestCacheMisses:
    def test_different_formats_miss(self):
        a, b = sparse_vec(30, 4, 1), band_vec(30, 5, 20, 1)
        prog_one, _ = dot_program(a, b)
        fl.compile_kernel(prog_one)

        A = fl.from_numpy(a, ("dense",), name="A")
        B = fl.from_numpy(b, ("band",), name="B")
        C = fl.Scalar(name="C")
        i = fl.indices("i")
        prog_two = fl.forall(i, fl.increment(C[()], A[i] * B[i]))
        kernel = fl.compile_kernel(prog_two)
        assert not kernel.from_cache
        assert fl.kernel_cache().stats()["misses"] == 2

    def test_instrument_flag_misses(self):
        prog, _ = dot_program(sparse_vec(30, 4, 1),
                              band_vec(30, 5, 20, 1))
        fl.compile_kernel(prog, instrument=False)
        kernel = fl.compile_kernel(prog, instrument=True)
        assert not kernel.from_cache
        assert kernel.run() > 0

    def test_different_shapes_miss(self):
        prog_one, _ = dot_program(sparse_vec(30, 4, 1),
                                  band_vec(30, 5, 20, 1))
        prog_two, _ = dot_program(sparse_vec(31, 4, 1),
                                  band_vec(31, 5, 20, 1))
        fl.compile_kernel(prog_one)
        kernel = fl.compile_kernel(prog_two)
        assert not kernel.from_cache

    def test_different_protocols_miss(self):
        mat, vec = sparse_mat(8, 9, 0.4, 3), sparse_vec(9, 3, 3)
        fl.compile_kernel(spmspv_program(mat, vec, "walk_walk")[0])
        kernel = fl.compile_kernel(
            spmspv_program(mat, vec, "gallop_both")[0])
        assert not kernel.from_cache

    def test_an_unmarked_mode_is_spelled_walk(self):
        a, b = sparse_vec(30, 4, 1), band_vec(30, 5, 20, 1)
        A = fl.from_numpy(a, ("sparse",), name="A")
        B = fl.from_numpy(b, ("band",), name="B")
        C = fl.Scalar(name="C")
        i = fl.indices("i")
        fl.compile_kernel(fl.forall(i, fl.increment(C[()], A[i] * B[i])))
        kernel = fl.compile_kernel(fl.forall(i, fl.increment(
            C[()], A[fl.walk(i)] * B[fl.walk(i)])))
        assert kernel.from_cache
        stats = fl.kernel_cache().stats()
        assert (stats["hits"], stats["misses"]) == (1, 1)

    def test_different_fill_misses(self):
        for fill in (0.0, 1.5):
            vec = np.full(10, fill)
            vec[3] = 2.0
            A = fl.from_numpy(vec, ("rle",), fill=fill, name="A")
            C = fl.Scalar(name="C")
            i = fl.indices("i")
            kernel = fl.compile_kernel(
                fl.forall(i, fl.increment(C[()], A[i])))
            assert not kernel.from_cache

    def test_cache_false_leaves_cache_untouched(self):
        prog, _ = dot_program(sparse_vec(30, 4, 1),
                              band_vec(30, 5, 20, 1))
        fl.compile_kernel(prog, cache=False)
        stats = fl.kernel_cache().stats()
        assert stats == {"hits": 0, "misses": 0, "evictions": 0,
                         "size": 0, "maxsize": stats["maxsize"]}


class TestLRUEviction:
    """KernelCache unit behavior, independent of compilation."""

    def test_eviction_respects_cap(self):
        cache = KernelCache(maxsize=2)
        cache.store("a", 1)
        cache.store("b", 2)
        cache.store("c", 3)
        assert len(cache) == 2
        assert "a" not in cache and "b" in cache and "c" in cache
        assert cache.stats()["evictions"] == 1

    def test_lookup_refreshes_recency(self):
        cache = KernelCache(maxsize=2)
        cache.store("a", 1)
        cache.store("b", 2)
        assert cache.lookup("a") == 1
        cache.store("c", 3)
        assert "a" in cache and "b" not in cache

    def test_resize_evicts_lru_first(self):
        cache = KernelCache(maxsize=4)
        for key in "abcd":
            cache.store(key, key)
        cache.lookup("a")
        cache.resize(2)
        assert len(cache) == 2
        assert "a" in cache and "d" in cache

    def test_zero_cap_stores_nothing(self):
        cache = KernelCache(maxsize=0)
        cache.store("a", 1)
        assert len(cache) == 0

    def test_stats_counts(self):
        cache = KernelCache(maxsize=8)
        cache.store("a", 1)
        cache.lookup("a")
        cache.lookup("ghost")
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["size"] == 1 and stats["maxsize"] == 8

    def test_compiled_eviction_round_trip(self):
        """Evicted structures recompile (miss) and still run right."""
        fl.kernel_cache().resize(2)
        try:
            results = {}
            for n in (20, 21, 22, 20):  # 20 is evicted by 21/22
                a, b = sparse_vec(n, 4, n), band_vec(n, 5, 15, n)
                prog, C = dot_program(a, b)
                fl.compile_kernel(prog).run()
                results[n] = (C.value, a @ b)
            stats = fl.kernel_cache().stats()
            assert stats["misses"] == 4 and stats["evictions"] == 2
            for value, expected in results.values():
                assert value == pytest.approx(expected)
        finally:
            fl.kernel_cache().resize(256)


class TestRebinding:
    def test_rebind_by_name(self):
        a, b = sparse_vec(30, 4, 1), band_vec(30, 5, 20, 1)
        prog, C = dot_program(a, b)
        kernel = fl.compile_kernel(prog)
        a_new = sparse_vec(30, 6, 9)
        kernel.rebind(A=fl.from_numpy(a_new, ("sparse",), name="A"))
        kernel.run()
        assert C.value == pytest.approx(a_new @ b)

    def test_rebind_full_sequence(self):
        a, b = sparse_vec(30, 4, 1), band_vec(30, 5, 20, 1)
        prog, _ = dot_program(a, b)
        kernel = fl.compile_kernel(prog)
        a2, b2 = sparse_vec(30, 5, 7), band_vec(30, 8, 25, 7)
        prog2, C2 = dot_program(a2, b2)
        kernel.rebind(kernel_two_tensors(prog2))
        kernel.run()
        assert C2.value == pytest.approx(a2 @ b2)

    def test_run_overrides_do_not_mutate_binding(self):
        a, b = sparse_vec(30, 4, 1), band_vec(30, 5, 20, 1)
        prog, C = dot_program(a, b)
        kernel = fl.compile_kernel(prog)
        a_other = sparse_vec(30, 6, 9)
        kernel.run(A=fl.from_numpy(a_other, ("sparse",), name="A"))
        assert C.value == pytest.approx(a_other @ b)
        kernel.run()  # stored binding unchanged
        assert C.value == pytest.approx(a @ b)

    def test_signature_mismatch_rejected(self):
        prog, _ = dot_program(sparse_vec(30, 4, 1),
                              band_vec(30, 5, 20, 1))
        kernel = fl.compile_kernel(prog)
        with pytest.raises(BindingError):
            kernel.rebind(A=fl.from_numpy(np.zeros(30), ("dense",),
                                          name="A"))
        with pytest.raises(BindingError):
            kernel.rebind(A=fl.from_numpy(np.zeros(31), ("sparse",),
                                          name="A"))

    def test_unknown_name_rejected(self):
        prog, _ = dot_program(sparse_vec(30, 4, 1),
                              band_vec(30, 5, 20, 1))
        kernel = fl.compile_kernel(prog)
        with pytest.raises(BindingError):
            kernel.rebind(Z=fl.Scalar(name="Z"))

    def test_new_aliasing_between_slots_rejected(self):
        """Distinct compile-time buffers may not be rebound to one
        array: the emitted output reset would wipe the input."""
        n = 8
        A = fl.from_numpy(np.ones(n), ("dense",), name="A")
        C = fl.from_numpy(np.zeros(n), ("dense",), name="C")
        i = fl.indices("i")
        kernel = fl.compile_kernel(
            fl.forall(i, fl.store(C[i], A[i] + A[i])))
        shared = fl.from_numpy(np.ones(n), ("dense",), name="T")
        with pytest.raises(BindingError):
            kernel.rebind({"A": shared, "C": shared})

    def test_compile_time_aliasing_survives_rebinding(self):
        """Tensors sharing storage at compile time must keep sharing."""
        data = np.zeros((4, 5))
        data[1, 2] = 2.0
        A = fl.from_numpy(data, ("dense", "sparse"), name="A")
        B = fl.Tensor(A.levels, A.element, name="B")  # same storage
        C = fl.Scalar(name="C")
        i, j = fl.indices("i", "j")
        kernel = fl.compile_kernel(fl.forall(i, fl.forall(
            j, fl.increment(C[()], A[i, j] * B[i, j]))))
        kernel.run()
        assert C.value == pytest.approx(4.0)
        A2 = fl.from_numpy(data, ("dense", "sparse"), name="A")
        B2_distinct = fl.from_numpy(data, ("dense", "sparse"), name="B")
        with pytest.raises(BindingError):
            kernel.rebind([C, A2, B2_distinct])
        B2_shared = fl.Tensor(A2.levels, A2.element, name="B")
        kernel.rebind([C, A2, B2_shared])
        kernel.run()
        assert C.value == pytest.approx(4.0)

    def test_outputs_track_rebinding(self):
        prog, C = dot_program(sparse_vec(30, 4, 1),
                              band_vec(30, 5, 20, 1))
        kernel = fl.compile_kernel(prog)
        assert kernel.outputs == [C]
        C_new = fl.Scalar(name="C")
        kernel.rebind(C=C_new)
        assert kernel.outputs == [C_new]


def kernel_two_tensors(program):
    """The program's tensors in slot order (test helper)."""
    from repro.cin.analyze import program_tensors

    return program_tensors(program)
