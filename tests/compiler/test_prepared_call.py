"""A bound kernel's ``run()`` makes the call its binding prepared.

A C kernel marshals a binding's pointer array once — on the first
``run()`` after a bind, a ``rebind`` or an adoption — and then calls
its native entry directly.  Counted in Python-level calls
(``cProfile``), which no machine's speed moves: a bound ``run()`` that
went through the entry's identity memo every time made 5 calls, the
prepared call makes 2.
"""

import cProfile
import pstats

import numpy as np
import pytest

import repro.lang as fl
from repro import codegen
from repro.util.errors import BindingError

pytestmark = pytest.mark.skipif(not codegen.have_toolchain(),
                                reason="no C compiler on PATH")

#: Python-level calls allowed per bound ``run()`` of a C kernel.
CALLS_PER_RUN = 3

A_DATA = np.array([0, 1.5, 0, 2.0, 0, 0, 3.0, 0])
B_DATA = np.array([1.0, 2.0, 0, 4.0, 0, 0, 5.0, 0])
DOT = float(A_DATA @ B_DATA)


def operand(data, name):
    return fl.from_numpy(data, ("sparse",), name=name)


@pytest.fixture
def dot():
    """``(kernel, C)``: a native sparse dot, run once."""
    A, B, C = operand(A_DATA, "A"), operand(B_DATA, "B"), fl.Scalar(name="C")
    i = fl.indices("i")
    kernel = fl.compile_kernel(fl.forall(i, fl.increment(C[()], A[i] * B[i])),
                               cache=False, backend="c", name="prepared")
    assert kernel.effective_backend == "c"
    kernel.run()
    return kernel, C


def profiled(action):
    """``(calls of the C entry's memo, total Python calls)`` of one
    ``action()``."""
    profile = cProfile.Profile()
    profile.enable()
    try:
        action()
    finally:
        profile.disable()
    stats = pstats.Stats(profile)
    marshals = sum(counts[0] for (path, _, name), counts
                   in stats.stats.items()
                   if name == "marshal" and path.endswith("toolchain.py"))
    return marshals, stats.total_calls


def rerun(kernel, C):
    """Reset ``C`` and run the stored binding; its value."""
    C.set(0.0)
    kernel.run()
    return C.value


def test_a_bound_run_never_enters_the_memo(dot):
    kernel, C = dot
    rounds = 50
    marshals, calls = profiled(lambda: [kernel.run() for _ in range(rounds)])
    assert marshals == 0
    assert calls <= CALLS_PER_RUN * rounds + 1     # + profile.disable
    assert rerun(kernel, C) == DOT


@pytest.mark.parametrize("how", ["sequence", "named"])
def test_rebind_prepares_again_on_the_next_run(dot, how):
    kernel, C = dot
    other = operand(A_DATA * 3.0, "A")
    if how == "sequence":
        C_, _, B = kernel.tensors
        kernel.rebind([C_, other, B])
    else:
        kernel.rebind(A=other)
    assert profiled(lambda: rerun(kernel, C))[0] == 1
    assert profiled(lambda: rerun(kernel, C))[0] == 0
    assert C.value == 3.0 * DOT


def test_an_override_leaves_the_stored_call_alone(dot):
    kernel, C = dot
    other = operand(A_DATA * 5.0, "A")
    C.set(0.0)
    assert profiled(lambda: kernel.run(A=other))[0] == 1
    assert C.value == 5.0 * DOT
    assert profiled(lambda: rerun(kernel, C))[0] == 0
    assert C.value == DOT


def test_a_refused_rebind_keeps_the_prepared_call(dot):
    kernel, C = dot
    wrong = fl.from_numpy(np.zeros(9), ("sparse",), name="A")
    with pytest.raises(BindingError, match=r"^slot 1 \(A\): format"):
        kernel.rebind(A=wrong)
    assert profiled(lambda: rerun(kernel, C))[0] == 0
    assert C.value == DOT


def test_an_adoption_prepares_again(dot):
    kernel, C = dot
    arena = fl.ShmArena()
    try:
        fl.share_dataset(kernel.tensors, arena)
        assert profiled(lambda: rerun(kernel, C))[0] == 1
        assert C.value == DOT
        # The adopted arrays are what the prepared call reads.
        kernel.tensors[1].element.val[:] *= 2.0
        assert profiled(lambda: rerun(kernel, C))[0] == 0
        assert C.value == 2.0 * DOT
    finally:
        arena.close()


@pytest.mark.parametrize("value, error", [
    (float("nan"), ValueError), (float("inf"), OverflowError),
    (float("-inf"), OverflowError)])
def test_a_status_raises_through_the_prepared_call(value, error):
    """``fl_round_u8``'s status is Python's own error, on the first
    (preparing) run, on the prepared call after it, and on an
    override."""
    def compile_round(backend):
        x = fl.from_numpy(np.array([1.4, value, 0.0, 3.5]), ("sparse",),
                          name="x")
        C = fl.Scalar(name="C")
        i = fl.indices("i")
        return fl.compile_kernel(
            fl.forall(i, fl.increment(C[()], fl.call("round_u8", x[i]))),
            backend=backend, cache=False)

    with pytest.raises(error) as want:
        compile_round("python").run()
    kernel = compile_round("c")
    assert kernel.effective_backend == "c"
    x = kernel.tensors[1]
    for run in (kernel.run, kernel.run, lambda: kernel.run(x=x)):
        with pytest.raises(error) as got:
            run()
        assert str(got.value) == str(want.value)
