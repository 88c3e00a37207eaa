"""Property tests over random two-mode format combinations.

Random matrices with random per-mode formats (including sparse outer
levels, exercising absent-fiber paths) must round-trip and compute
identically to the reference interpreter, under random protocols.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.lang as fl
from repro.baselines.reference import interpret
from repro.fuzz.strategies import FORMATS_MATRIX_INNER as INNER_FORMATS
from repro.fuzz.strategies import FORMATS_OUTER as OUTER_FORMATS
from repro.fuzz.strategies import random_matrix


@settings(max_examples=50)
@given(mat=random_matrix(), outer=st.sampled_from(OUTER_FORMATS),
       inner=st.sampled_from(INNER_FORMATS))
def test_matrix_roundtrip(mat, outer, inner):
    tensor = fl.from_numpy(mat, (outer, inner), name="M")
    np.testing.assert_array_equal(tensor.to_numpy(), mat)


@settings(max_examples=50)
@given(mat=random_matrix(), outer=st.sampled_from(OUTER_FORMATS),
       inner=st.sampled_from(INNER_FORMATS), data=st.data())
def test_matrix_sum_matches_interpreter(mat, outer, inner, data):
    A = fl.from_numpy(mat, (outer, inner), name="A")
    C = fl.Scalar(name="C")
    i, j = fl.indices("i", "j")
    prog = fl.forall(i, fl.forall(j, fl.increment(C[()], A[i, j])))
    expected = interpret(prog).result_for(C)
    fl.execute(prog)
    assert C.value == pytest.approx(float(expected), abs=1e-9)


@settings(max_examples=40)
@given(mat=random_matrix(max_rows=5, max_cols=8),
       inner_a=st.sampled_from(INNER_FORMATS),
       inner_b=st.sampled_from(INNER_FORMATS),
       data=st.data())
def test_elementwise_matrix_product(mat, inner_a, inner_b, data):
    seed = data.draw(st.integers(0, 2 ** 16))
    rng = np.random.default_rng(seed)
    other = np.round(rng.random(mat.shape), 2)
    other[rng.random(mat.shape) > 0.4] = 0.0
    A = fl.from_numpy(mat, ("dense", inner_a), name="A")
    B = fl.from_numpy(other, ("dense", inner_b), name="B")
    C = fl.Scalar(name="C")
    i, j = fl.indices("i", "j")
    prog = fl.forall(i, fl.forall(j, fl.increment(
        C[()], A[i, j] * B[i, j])))
    expected = interpret(prog).result_for(C)
    fl.execute(prog)
    assert C.value == pytest.approx(float(expected), abs=1e-9)


@settings(max_examples=30)
@given(mat=random_matrix(max_rows=4, max_cols=8),
       proto=st.sampled_from(["walk", "gallop"]))
def test_spmspv_random_protocols(mat, proto):
    rng = np.random.default_rng(7)
    vec = np.round(rng.random(mat.shape[1]), 2)
    vec[rng.random(mat.shape[1]) > 0.4] = 0.0
    A = fl.from_numpy(mat, ("dense", "sparse"), name="A")
    x = fl.from_numpy(vec, ("sparse",), name="x")
    y = fl.zeros(mat.shape[0], name="y")
    marker = {"walk": fl.walk, "gallop": fl.gallop}[proto]
    i, j = fl.indices("i", "j")
    prog = fl.forall(i, fl.forall(j, fl.increment(
        y[i], fl.access(A, i, marker(j)) * fl.access(x, marker(j)))))
    fl.execute(prog)
    np.testing.assert_allclose(y.to_numpy(), mat @ vec, atol=1e-9)


class TestProtocolSupport:
    """Formats must reject protocols they cannot honor, cleanly."""

    @pytest.mark.parametrize("fmt", ["dense", "bitmap", "band", "ragged",
                                     "rle", "packbits"])
    def test_gallop_unsupported(self, fmt):
        from repro.compiler.context import Context
        from repro.ir import Literal
        from repro.util.errors import ProtocolError

        tensor = fl.from_numpy(np.zeros(6), (fmt,), name="T")
        with pytest.raises(ProtocolError):
            tensor.levels[0].unfurl(Context(), Literal(0), "gallop")

    @pytest.mark.parametrize("fmt", ["sparse", "vbl"])
    def test_gallop_supported(self, fmt):
        from repro.compiler.context import Context
        from repro.ir import Literal

        tensor = fl.from_numpy(np.zeros(6), (fmt,), name="T")
        tensor.levels[0].unfurl(Context(), Literal(0), "gallop")
