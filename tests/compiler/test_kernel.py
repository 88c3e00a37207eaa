"""Unit tests for kernel assembly and execution semantics."""

import numpy as np
import pytest

import repro.lang as fl
from repro.util.errors import LoweringError


def simple_sum(n=6):
    vec = np.arange(float(n))
    A = fl.from_numpy(vec, ("dense",), name="A")
    C = fl.Scalar(name="C")
    i = fl.indices("i")
    prog = fl.forall(i, fl.increment(C[()], A[i]))
    return prog, A, C, vec


class TestKernelObject:
    def test_source_is_valid_python(self):
        prog, _, _, _ = simple_sum()
        kernel = fl.compile_kernel(prog)
        compile(kernel.source, "<test>", "exec")
        assert kernel.source.startswith("def kernel(")

    def test_rerun_resets_outputs(self):
        prog, _, C, vec = simple_sum()
        kernel = fl.compile_kernel(prog)
        kernel.run()
        first = C.value
        kernel.run()
        assert C.value == first == vec.sum()

    def test_instrumented_kernel_returns_count(self):
        prog, _, _, _ = simple_sum()
        kernel = fl.compile_kernel(prog, instrument=True)
        assert kernel.run() == 6

    def test_uninstrumented_kernel_returns_none(self):
        prog, _, _, _ = simple_sum()
        kernel = fl.compile_kernel(prog)
        assert kernel.run() is None

    def test_callable_alias(self):
        prog, _, C, vec = simple_sum()
        kernel = fl.compile_kernel(prog)
        kernel()
        assert C.value == vec.sum()

    def test_kernel_sees_data_mutations(self):
        prog, A, C, vec = simple_sum()
        kernel = fl.compile_kernel(prog)
        kernel.run()
        A.element.val[:] = 0.0
        kernel.run()
        assert C.value == 0.0

    def test_outputs_listed(self):
        prog, _, C, _ = simple_sum()
        kernel = fl.compile_kernel(prog)
        assert kernel.outputs == [C]

    def test_custom_name(self):
        prog, _, _, _ = simple_sum()
        kernel = fl.compile_kernel(prog, name="my_kernel")
        assert "def my_kernel(" in kernel.source


class TestErrorReporting:
    def test_missing_extent(self):
        C = fl.Scalar(name="C")
        i = fl.indices("i")
        prog = fl.forall(i, fl.increment(C[()], 1.0 * i))
        with pytest.raises(Exception):
            fl.compile_kernel(prog)

    def test_discordant_access_reported(self):
        mat = np.ones((3, 4))
        A = fl.from_numpy(mat, ("dense", "sparse"), name="A")
        C = fl.Scalar(name="C")
        i, j = fl.indices("i", "j")
        # Loop j outer but access A[i, j]: i never becomes leading.
        prog = fl.forall(j, fl.forall(i, fl.increment(
            C[()], A[i, j])), ext=(0, 4))
        with pytest.raises(LoweringError):
            fl.compile_kernel(prog)

    def test_sparse_output_target_not_locatable(self):
        vec = np.ones(4)
        A = fl.from_numpy(vec, ("dense",), name="A")
        y = fl.from_numpy(np.zeros(4), ("sparse",), name="y")
        i = fl.indices("i")
        from repro.util.errors import ProtocolError

        with pytest.raises(ProtocolError):
            fl.compile_kernel(fl.forall(i, fl.store(y[i], A[i])))


class TestHigherDimensional:
    def test_three_level_contraction(self):
        rng = np.random.default_rng(0)
        t = rng.random((3, 4, 5))
        t[rng.random((3, 4, 5)) > 0.4] = 0.0
        T = fl.from_numpy(t, ("dense", "sparse", "sparse"), name="T")
        C = fl.Scalar(name="C")
        i, j, k = fl.indices("i", "j", "k")
        prog = fl.forall(i, fl.forall(j, fl.forall(k, fl.increment(
            C[()], T[i, j, k]))))
        fl.execute(prog)
        assert C.value == pytest.approx(t.sum())

    def test_dcsr_coiteration_with_absent_rows(self):
        """Outer sparse levels: absent rows flow as FillFibers."""
        rng = np.random.default_rng(5)
        a = np.zeros((8, 10))
        b = np.zeros((8, 10))
        for row in (1, 3, 6):
            a[row] = rng.random(10) * (rng.random(10) < 0.4)
        for row in (3, 4, 6):
            b[row] = rng.random(10) * (rng.random(10) < 0.4)
        A = fl.from_numpy(a, ("sparse", "sparse"), name="A")
        B = fl.from_numpy(b, ("sparse", "sparse"), name="B")
        C = fl.Scalar(name="C")
        i, j = fl.indices("i", "j")
        prog = fl.forall(i, fl.forall(j, fl.increment(
            C[()], A[i, j] * B[i, j])))
        fl.execute(prog)
        assert C.value == pytest.approx((a * b).sum())

    def test_mixed_formats_per_mode(self):
        rng = np.random.default_rng(6)
        t = rng.random((4, 6, 8))
        t[rng.random((4, 6, 8)) > 0.5] = 0.0
        T = fl.from_numpy(t, ("dense", "ragged", "vbl"), name="T")
        np.testing.assert_array_equal(T.to_numpy(), t)
        C = fl.Scalar(name="C")
        i, j, k = fl.indices("i", "j", "k")
        fl.execute(fl.forall(i, fl.forall(j, fl.forall(k, fl.increment(
            C[()], T[i, j, k])))))
        assert C.value == pytest.approx(t.sum())


class TestOptLevel:
    def test_default_optimizes_the_lowered_source(self):
        prog, _, _, _ = simple_sum()
        kernel = fl.compile_kernel(prog, cache=False)
        lowered = fl.compile_kernel(prog, cache=False, opt_level=0)
        assert kernel.opt_level == 2
        assert lowered.source != kernel.source
        compile(kernel.source, "<opt>", "exec")

    def test_level_zero_emits_lowered_code_untouched(self):
        prog, _, _, _ = simple_sum()
        kernel = fl.compile_kernel(prog, cache=False, opt_level=0)
        assert kernel.opt_level == 0
        assert "memoryview" not in kernel.source
        assert "for i in range" in kernel.source

    def test_levels_agree_on_results(self):
        values = []
        for level in (0, 1, 2):
            prog, _, C, vec = simple_sum()
            fl.execute(prog, opt_level=level)
            values.append(C.value)
        assert values[0] == values[1] == values[2] == 15.0

    def test_opt_level_is_part_of_the_cache_key(self):
        fl.kernel_cache().clear()
        prog, _, _, _ = simple_sum()
        plain = fl.compile_kernel(prog, opt_level=0)
        assert not plain.from_cache
        prog2, _, _, _ = simple_sum()
        optimized = fl.compile_kernel(prog2, opt_level=2)
        # Different levels never share an artifact...
        assert not optimized.from_cache
        assert optimized.source != plain.source
        # ...but each level hits its own cached artifact.
        prog3, _, _, _ = simple_sum()
        again = fl.compile_kernel(prog3, opt_level=0)
        assert again.from_cache
        assert again.source == plain.source

    def test_instrumented_counts_identical_across_levels(self):
        counts = set()
        for level in (0, 1, 2):
            prog, _, _, _ = simple_sum()
            counts.add(fl.execute(prog, instrument=True,
                                  opt_level=level))
        assert counts == {6}

    def test_rebinding_works_on_optimized_kernels(self):
        prog, A, C, vec = simple_sum()
        kernel = fl.compile_kernel(prog, cache=False)
        other = fl.from_numpy(vec * 10, ("dense",), name="A")
        kernel.run()
        assert C.value == 15.0
        kernel.rebind(A=other)
        kernel.run()
        assert C.value == 150.0
