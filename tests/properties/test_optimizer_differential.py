"""Differential tests: the optimizer never changes results.

Hypothesis drives randomized CIN programs through the compiler at
``opt_level=0`` (lowered code emitted untouched) and at the default
level (LICM, vectorization) and cross-checks
outputs.

Two regimes:

* *integer-valued* float data — every intermediate is exactly
  representable, so reassociating a reduction (``_np.dot`` sums
  pairwise, the scalar loop sums left to right) cannot round
  differently and the outputs must be **bit-identical**;
* *real* float data — reassociation may round differently in the last
  ulp, so outputs must agree to a tight tolerance.

The instrumented op count must be *exactly* preserved at every level
in both regimes (the vectorizer scales counters by the trip count).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.lang as fl
from repro.fuzz.strategies import integer_vector

FORMATS = ["dense", "sparse", "band", "vbl", "rle", "bitmap"]
LEVELS = (0, 2)


def run_at_levels(make_program, outputs_of):
    """Outputs and op counts per opt level, over identical data."""
    results = {}
    for level in LEVELS:
        program = make_program()
        n_ops = fl.execute(program, instrument=True, opt_level=level)
        results[level] = (outputs_of(program), n_ops)
    return results


def assert_bit_identical(results):
    base_outs, base_ops = results[0]
    for level in LEVELS[1:]:
        outs, n_ops = results[level]
        assert n_ops == base_ops, \
            "op count changed at opt_level=%d" % level
        for left, right in zip(base_outs, outs):
            np.testing.assert_array_equal(left, right)


@settings(max_examples=50)
@given(a=integer_vector(), b=integer_vector(),
       fmt_a=st.sampled_from(FORMATS), fmt_b=st.sampled_from(FORMATS))
def test_dot_product_bit_identical(a, b, fmt_a, fmt_b):
    n = min(len(a), len(b))
    a, b = a[:n], b[:n]
    captured = {}

    def make_program():
        A = fl.from_numpy(a, (fmt_a,), name="A")
        B = fl.from_numpy(b, (fmt_b,), name="B")
        C = fl.Scalar(name="C")
        i = fl.indices("i")
        captured["C"] = C
        return fl.forall(i, fl.increment(C[()], A[i] * B[i]))

    results = run_at_levels(make_program,
                            lambda prog: [np.asarray(captured["C"].value)])
    assert_bit_identical(results)
    assert float(results[0][0][0]) == float(a @ b)


@settings(max_examples=50)
@given(a=integer_vector(), b=integer_vector(),
       fmt=st.sampled_from(FORMATS),
       op_name=st.sampled_from(["add", "mul", "min", "max"]))
def test_elementwise_store_bit_identical(a, b, fmt, op_name):
    n = min(len(a), len(b))
    a, b = a[:n], b[:n]
    op = fl.ops.get_op(op_name)
    captured = {}

    def make_program():
        A = fl.from_numpy(a, ("dense",), name="A")
        B = fl.from_numpy(b, (fmt,), name="B")
        out = fl.zeros(n, name="out")
        i = fl.indices("i")
        captured["out"] = out
        return fl.forall(i, fl.store(out[i],
                                     fl.call(op, A[i], B[i])))

    results = run_at_levels(
        make_program, lambda prog: [captured["out"].to_numpy()])
    assert_bit_identical(results)


@settings(max_examples=40)
@given(data=st.data())
def test_spmv_bit_identical(data):
    rows = data.draw(st.integers(1, 6))
    cols = data.draw(st.integers(1, 10))
    fmt = data.draw(st.sampled_from(["sparse", "vbl", "dense", "rle"]))
    mat = np.array(data.draw(st.lists(
        st.lists(st.integers(-3, 3), min_size=cols, max_size=cols),
        min_size=rows, max_size=rows)), dtype=float)
    density = data.draw(st.floats(0.0, 1.0))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
    mat[rng.random((rows, cols)) > density] = 0.0
    vec = np.array(data.draw(st.lists(st.integers(-3, 3),
                                      min_size=cols, max_size=cols)),
                   dtype=float)
    captured = {}

    def make_program():
        A = fl.from_numpy(mat, ("dense", fmt), name="A")
        x = fl.from_numpy(vec, ("dense",), name="x")
        y = fl.zeros(rows, name="y")
        i, j = fl.indices("i", "j")
        captured["y"] = y
        return fl.forall(i, fl.forall(j, fl.increment(
            y[i], A[i, j] * x[j])))

    results = run_at_levels(make_program,
                            lambda prog: [captured["y"].to_numpy()])
    assert_bit_identical(results)
    np.testing.assert_array_equal(results[0][0][0], mat @ vec)


@settings(max_examples=40)
@given(vec=integer_vector(max_len=16), fmt=st.sampled_from(FORMATS),
       op_name=st.sampled_from(["add", "max", "min"]))
def test_reductions_bit_identical(vec, fmt, op_name):
    captured = {}
    op = fl.ops.get_op(op_name)

    def make_program():
        A = fl.from_numpy(vec, (fmt,), name="A")
        S = fl.Scalar(name="S")
        i = fl.indices("i")
        captured["S"] = S
        return fl.forall(i, fl.reduce_into(S[()], op, A[i]))

    results = run_at_levels(make_program,
                            lambda prog: [np.asarray(captured["S"].value)])
    assert_bit_identical(results)


@settings(max_examples=25)
@given(data=st.data())
def test_real_floats_agree_to_tolerance(data):
    """With real float data reassociated reductions may round
    differently; results agree to within a few ulps."""
    n = data.draw(st.integers(4, 40))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
    a = rng.random(n) * 4 - 2
    b = rng.random(n) * 4 - 2
    fmt = data.draw(st.sampled_from(["dense", "sparse", "vbl"]))
    values = {}
    for level in LEVELS:
        A = fl.from_numpy(a, ("dense",), name="A")
        B = fl.from_numpy(b, (fmt,), name="B")
        C = fl.Scalar(name="C")
        i = fl.indices("i")
        prog = fl.forall(i, fl.increment(C[()], A[i] * B[i]))
        fl.execute(prog, opt_level=level)
        values[level] = float(C.value)
    for level in LEVELS[1:]:
        assert values[level] == pytest.approx(values[0], rel=1e-12,
                                              abs=1e-12)


def test_windowed_and_shifted_accesses_bit_identical():
    """Index modifiers (offset/permit through coalesce) exercise the
    lazy-op bail paths: the optimizer must leave results untouched."""
    vec = np.array([0.0, 2, 0, 3, 0, 0, 1, 4], dtype=float)
    for delta in (-2, 0, 3):
        captured = {}

        def make_program():
            A = fl.from_numpy(vec, ("sparse",), name="A")
            out = fl.zeros(len(vec), name="out")
            i = fl.indices("i")
            captured["out"] = out
            return fl.forall(i, fl.store(out[i], fl.coalesce(
                fl.access(A, fl.permit(fl.offset(i, delta))), 0.0)))

        results = run_at_levels(
            make_program, lambda prog: [captured["out"].to_numpy()])
        assert_bit_identical(results)
