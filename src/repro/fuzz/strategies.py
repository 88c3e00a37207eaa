"""Shared Hypothesis strategies for the property-test suite.

Every ``tests/properties/`` module used to carry its own copy of these
generators; they live here — next to the seeded fuzzer whose grammar
they mirror — so the structural shapes stay in one place and new
formats get picked up by every property test at once.

Hypothesis is a test-only dependency, so this module guards its import
and fails with a clear message if pulled into a non-test context.
"""

import numpy as np

try:
    from hypothesis import strategies as st
except ImportError as exc:  # pragma: no cover - test envs have it
    raise ImportError(
        "repro.fuzz.strategies needs hypothesis (a test extra): "
        "pip install repro-looplets[test]") from exc

from repro.fuzz.gen import FORMATS_ANY, FORMATS_INNER

#: Every 1-D (innermost-mode) format.
FORMATS_1D = list(FORMATS_INNER)
#: Formats legal as the outer mode of a matrix.
FORMATS_OUTER = list(FORMATS_ANY)
#: Formats exercised as the inner mode of a matrix.
FORMATS_MATRIX_INNER = FORMATS_1D

format_1d = st.sampled_from(FORMATS_1D)
format_outer = st.sampled_from(FORMATS_OUTER)
format_matrix_inner = st.sampled_from(FORMATS_MATRIX_INNER)


@st.composite
def structured_vector(draw, max_len=24):
    """A float vector with one of several structural shapes."""
    n = draw(st.integers(min_value=1, max_value=max_len))
    shape = draw(st.sampled_from(["scatter", "band", "runs", "empty",
                                  "dense"]))
    values = draw(st.lists(
        st.floats(min_value=-4, max_value=4, allow_nan=False,
                  width=32).map(lambda v: round(v, 2)),
        min_size=n, max_size=n))
    vec = np.array(values)
    if shape == "scatter":
        keep = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        vec[~np.array(keep)] = 0.0
    elif shape == "band":
        lo = draw(st.integers(0, n - 1))
        hi = draw(st.integers(lo, n))
        mask = np.zeros(n, dtype=bool)
        mask[lo:hi] = True
        vec[~mask] = 0.0
    elif shape == "runs":
        pool = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
        picks = draw(st.lists(st.sampled_from(pool), min_size=n,
                              max_size=n))
        vec = np.array(picks, dtype=float)
        vec = np.sort(vec)  # longer runs
    elif shape == "empty":
        vec = np.zeros(n)
    return vec


@st.composite
def integer_vector(draw, max_len=24):
    """A float vector holding small integers (exact in float64), for
    bit-identity assertions across optimizer levels."""
    n = draw(st.integers(min_value=1, max_value=max_len))
    shape = draw(st.sampled_from(["scatter", "band", "dense", "empty"]))
    values = draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
    vec = np.array(values, dtype=float)
    if shape == "scatter":
        keep = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        vec[~np.array(keep)] = 0.0
    elif shape == "band":
        lo = draw(st.integers(0, n - 1))
        hi = draw(st.integers(lo, n))
        mask = np.zeros(n, dtype=bool)
        mask[lo:hi] = True
        vec[~mask] = 0.0
    elif shape == "empty":
        vec = np.zeros(n)
    return vec


@st.composite
def random_matrix(draw, max_rows=6, max_cols=10):
    """A matrix with random density, including blanked rows (absent
    fibers for sparse outer levels)."""
    rows = draw(st.integers(1, max_rows))
    cols = draw(st.integers(1, max_cols))
    density = draw(st.sampled_from([0.0, 0.2, 0.5, 1.0]))
    seed = draw(st.integers(0, 2 ** 16))
    rng = np.random.default_rng(seed)
    mat = np.round(rng.random((rows, cols)), 2)
    mat[rng.random((rows, cols)) > density] = 0.0
    blank = draw(st.lists(st.booleans(), min_size=rows, max_size=rows))
    mat[np.array(blank)] = 0.0
    return mat


@st.composite
def vector_pair(draw, max_len=20):
    """Two equal-length vectors over a small sparse value pool."""
    n = draw(st.integers(2, max_len))

    def vec():
        values = draw(st.lists(
            st.sampled_from([0.0, 0.0, 1.0, 2.5, -3.0]),
            min_size=n, max_size=n))
        return np.array(values)

    return vec(), vec()
