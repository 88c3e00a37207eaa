"""Ingest and densify cost a fixed number of calls, whatever the size.

The budget is counted in Python-level calls (``cProfile``'s total,
builtins included), which no machine's speed moves.  When the builders
scanned element by element, ``from_numpy`` of a ``dense/sparse`` matrix
made 26 524 calls at 50x50 and 647 308 at 250x250 (``to_numpy``: 805 and
8 929); an array-at-a-time builder makes the same few dozen at both.
"""

import cProfile
import pstats

import numpy as np
import pytest

from repro.formats import format_names
from repro.tensors import from_numpy

#: Calls allowed per ``from_numpy`` and per ``to_numpy`` of a matrix.
BUDGET = 250

STACKS = [(outer, inner) for outer in format_names(leaf_only=False)
          for inner in format_names()]


def matrix(n):
    """An ``n x n`` matrix with scattered values, a few short runs and
    two empty rows."""
    rng = np.random.default_rng(n)
    mat = np.round(rng.random((n, n)), 1)
    mat[rng.random((n, n)) < 0.7] = 0.0
    mat[n // 3] = 0.0
    mat[-1] = 0.0
    return mat


def calls(fn):
    profile = cProfile.Profile()
    profile.enable()
    fn()
    profile.disable()
    return pstats.Stats(profile).total_calls


@pytest.mark.parametrize("formats", STACKS, ids="/".join)
def test_calls_do_not_grow_with_the_array(formats):
    counts = []
    for n in (50, 250):
        mat = matrix(n)
        tensor = from_numpy(mat, formats)
        counts.append((calls(lambda: from_numpy(mat, formats)),
                       calls(tensor.to_numpy)))
    small, large = counts
    assert small == large
    assert max(large) <= BUDGET
