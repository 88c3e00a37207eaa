"""Comparisons of a float value with itself are decided at run time.

``x == x`` is false on a NaN and ``x + 1 == x`` is true on an
infinity (or any float past 2**53), so the rewriter folds those two
shapes only where every operand is an integer.  Both backends are
checked against the reference interpreter; an ``int64`` operand still
folds the comparison away.
"""

import numpy as np
import pytest

import repro.lang as fl
from repro import codegen
from repro.fuzz.conform import reference_outputs

needs_cc = pytest.mark.skipif(
    not codegen.have_toolchain(), reason="no C compiler on PATH")

NAN = float("nan")
INF = float("inf")

#: (values of A, lhs of the comparison, reference output)
CASES = {
    "self": ([1.0, NAN, 3.0, NAN], lambda a: a, [1, 0, 1, 0]),
    "affine": ([1.0, INF, 1e17, NAN], lambda a: a + 1, [0, 1, 1, 0]),
}


def _elementwise(values, lhs, dtype=np.float64):
    i = fl.indices("i")
    A = fl.from_numpy(np.array(values, dtype=dtype), ("dense",), name="A")
    C = fl.from_numpy(np.zeros(len(values)), ("dense",), name="C")
    return fl.forall(i, fl.store(C[i], fl.eq(lhs(A[i]), A[i]))), C


@pytest.mark.parametrize("opt_level", [0, 2])
@pytest.mark.parametrize("case", sorted(CASES))
def test_float_comparison_matches_the_reference(case, opt_level):
    values, lhs, want = CASES[case]
    program, C = _elementwise(values, lhs)
    np.testing.assert_array_equal(reference_outputs(program)[0], want)
    kernel = fl.compile_kernel(program, cache=False, opt_level=opt_level)
    assert "== " in kernel.source
    kernel.run()
    np.testing.assert_array_equal(C.to_numpy(), want)


@needs_cc
@pytest.mark.parametrize("opt_level", [0, 2])
@pytest.mark.parametrize("case", sorted(CASES))
def test_float_comparison_matches_the_reference_in_c(case, opt_level):
    # A scalar output: the kernel is native C, not a fallback.
    values, lhs, want = CASES[case]
    i = fl.indices("i")
    A = fl.from_numpy(np.array(values), ("dense",), name="A")
    S = fl.Scalar(name="S")
    program = fl.forall(i, fl.increment(S[()], fl.eq(lhs(A[i]), A[i])))
    kernel = fl.compile_kernel(program, cache=False, opt_level=opt_level,
                               backend="c")
    assert kernel.effective_backend == "c"
    assert "==" in kernel.c_source.split("FL_EXPORT int64_t")[-1]
    kernel.run()
    assert S.value == sum(want) == reference_outputs(program)[0]


@pytest.mark.parametrize("opt_level", [0, 2])
def test_int64_self_comparison_still_folds(opt_level):
    program, C = _elementwise([1, 2, 3, 4], lambda a: a, dtype=np.int64)
    kernel = fl.compile_kernel(program, cache=False, opt_level=opt_level)
    assert "==" not in kernel.source
    kernel.run()
    np.testing.assert_array_equal(C.to_numpy(), [1, 1, 1, 1])
