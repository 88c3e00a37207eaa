"""Galloping is sublinear in the tail of the longer list.

``A = {0 .. T-1}`` meets ``B = {0, n-1}``: after the shared head, B's
next coordinate is past the end of A, so a galloping intersection has
nothing left to do whatever ``T`` is.  Its op count is the same at
``T = 10`` and at ``T = 10 000``; walking A's tail would make it grow
with ``T``.  The python and the C kernel agree in value and count.
"""

import numpy as np
import pytest

import repro.lang as fl
from repro import codegen

N = 20000
TAILS = (10, 10000)
BACKENDS = ("python", "c") if codegen.have_toolchain() else ("python",)


def _lists(tail):
    a = np.zeros(N)
    a[:tail] = np.arange(1.0, tail + 1.0)
    b = np.zeros(N)
    b[0], b[N - 1] = 2.0, 3.0
    return a, b


def _pairwise(tail, swapped):
    a, b = _lists(tail)
    A = fl.from_numpy(a, ("sparse",), name="A")
    B = fl.from_numpy(b, ("sparse",), name="B")
    left, right = (B, A) if swapped else (A, B)
    C = fl.Scalar(name="C")
    i = fl.indices("i")
    prog = fl.forall(i, fl.increment(
        C[()], fl.access(left, fl.gallop(i))
        * fl.access(right, fl.gallop(i))))
    return prog, C, float(a @ b)


def _three_way(tail):
    """Figure 8's shape: a walked row picks the rows of two galloping
    intersections, ``C[] += W[i, j] * A[j, k] * B[i, k]``."""
    a, b = _lists(tail)
    rows = 3
    w = np.zeros((rows, rows))
    w[0, 1] = w[2, 2] = 1.0
    A = np.zeros((rows, N))
    A[1], A[2] = a, b
    B = np.zeros((rows, N))
    B[0], B[2] = b, a
    W_t = fl.from_numpy(w, ("dense", "sparse"), name="W")
    A_t = fl.from_numpy(A, ("dense", "sparse"), name="A")
    B_t = fl.from_numpy(B, ("dense", "sparse"), name="B")
    C = fl.Scalar(name="C")
    i, j, k = fl.indices("i", "j", "k")
    prog = fl.forall(i, fl.forall(j, fl.forall(k, fl.increment(
        C[()], fl.access(W_t, i, fl.walk(j))
        * fl.access(A_t, j, fl.gallop(k))
        * fl.access(B_t, i, fl.gallop(k))))))
    expected = float(np.einsum("ij,jk,ik->", w, A, B))
    return prog, C, expected


def _run(build, backend):
    prog, C, expected = build()
    kernel = fl.compile_kernel(prog, instrument=True, backend=backend,
                               cache=False)
    assert kernel.effective_backend == backend
    ops = kernel.run()
    assert C.value == expected
    return C.value, ops


CASES = {
    "A*B": lambda tail: _pairwise(tail, swapped=False),
    "B*A": lambda tail: _pairwise(tail, swapped=True),
    "W*A*B": _three_way,
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_gallop_work_does_not_grow_with_the_tail(case):
    runs = {(tail, backend): _run(lambda: CASES[case](tail), backend)
            for tail in TAILS for backend in BACKENDS}
    counts = {ops for _, ops in runs.values()}
    assert len(counts) == 1, runs
    for tail in TAILS:
        values = {runs[tail, backend][0] for backend in BACKENDS}
        assert len(values) == 1, runs
