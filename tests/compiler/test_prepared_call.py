"""A bound kernel's ``run()`` makes the call its binding prepared.

Both backends marshal a binding once — on the first ``run()`` after a
bind, a ``rebind`` or an adoption — into the prepared call its bind-plan
entry keeps (``Kernel.bind``; the kernel entry,
:func:`repro.ir.runtime.make_entry`, memoizes nothing): a C kernel its
pointer array, then it calls the native entry directly; a python kernel
the element views of its view set (``CompiledKernel.views``), then it
calls the exec'd function directly.  Counted in Python-level calls
(``cProfile``), which no machine's speed moves: a bound C ``run()``
that went through an identity memo every time made 5 calls, the
prepared call makes 2; a bound python ``run()`` makes 2 (``run`` and
the kernel) and takes no view.
"""

import cProfile
import gc
import pstats
import sys
import threading
import weakref

import numpy as np
import pytest

import repro.lang as fl
from repro import codegen
from repro.compiler.kernel import BINDING_MEMO_CAP
from repro.ir import runtime
from repro.util.errors import BindingError

needs_cc = pytest.mark.skipif(not codegen.have_toolchain(),
                              reason="no C compiler on PATH")

#: Python-level calls allowed per bound ``run()``.
CALLS_PER_RUN = 3

A_DATA = np.array([0, 1.5, 0, 2.0, 0, 0, 3.0, 0])
B_DATA = np.array([1.0, 2.0, 0, 4.0, 0, 0, 5.0, 0])
DOT = float(A_DATA @ B_DATA)


def operand(data, name):
    return fl.from_numpy(data, ("sparse",), name=name)


def compile_dot(backend, C=None):
    """``(kernel, C)``: a sparse dot on ``backend``, not yet run."""
    A, B = operand(A_DATA, "A"), operand(B_DATA, "B")
    C = fl.Scalar(name="C") if C is None else C
    i = fl.indices("i")
    kernel = fl.compile_kernel(fl.forall(i, fl.increment(C[()], A[i] * B[i])),
                               cache=False, backend=backend,
                               name="prepared_" + backend)
    assert kernel.effective_backend == backend
    return kernel, C


@pytest.fixture(params=[pytest.param("c", marks=needs_cc), "python"])
def dot(request):
    """``(kernel, C)``: a sparse dot on each backend, run once."""
    kernel, C = compile_dot(request.param)
    kernel.run()
    return kernel, C


@pytest.fixture
def views_made(monkeypatch):
    """Every element view a python entry takes from here on."""
    made = []

    def counted(array):
        made.append(array)
        return memoryview(array)

    monkeypatch.setattr(runtime, "memoryview", counted, raising=False)
    return made


def profiled(action):
    """``(calls of an entry's marshal, total Python calls)`` of one
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
                   if name == "marshal"
                   and path.endswith(("toolchain.py", "runtime.py")))
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
    """A rebind marshals nothing; the next run prepares its entry's
    call, once.  A named rebind files that entry in its plan's memo,
    so the call it prepares is the one a later rebind to the same
    operands finds."""
    kernel, C = dot
    C_, A, B = kernel.tensors
    other = operand(A_DATA * 3.0, "A")
    if how == "sequence":
        def rebind():
            kernel.rebind([C_, other, B])
    else:
        def rebind():
            kernel.rebind(A=other)
    assert profiled(rebind)[0] == 0
    assert profiled(lambda: rerun(kernel, C))[0] == 1
    assert profiled(lambda: rerun(kernel, C))[0] == 0
    assert C.value == 3.0 * DOT
    if how == "named":
        entry = kernel._entry
        assert entry.call is not None
        assert list(kernel.bind_plan(("A",)).memo.values()) == [entry]
        kernel.rebind(A=A)
        assert profiled(rebind)[0] == 0
        assert kernel._entry is entry
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


@needs_cc
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


@pytest.mark.parametrize("backend", [
    pytest.param("c", marks=needs_cc), "python"])
def test_threads_cycling_past_the_memo_cap(backend):
    """Four threads each cycle their own full bindings through the
    kernel's bind (the artifact's whole plan), more bindings in all
    than its memo holds:
    hits race inserts and evictions with no lock, and every call
    still computes its own binding."""
    kernel, _ = compile_dot(backend)
    artifact = kernel.artifact
    _, _, B = kernel.tensors
    per_thread = BINDING_MEMO_CAP // 2
    bindings = [[] for _ in range(4)]
    for thread, own in enumerate(bindings):
        for k in range(per_thread):
            factor = float(thread * per_thread + k + 1)
            C = fl.Scalar(name="C")
            own.append((C, [C, operand(A_DATA * factor, "A"), B],
                        factor * DOT))
    failures = []

    def cycle(own):
        try:
            for _ in range(10):
                for C, tensors, want in own:
                    C.set(0.0)
                    entry = kernel.bind(tensors)[0]
                    if entry.call is None:
                        entry.call = artifact.fn.prepare(entry.args)
                    entry.call()
                    if C.value != pytest.approx(want):
                        failures.append((C.value, want))
        except Exception as exc:     # a KeyError from the memo, say
            failures.append(exc)

    threads = [threading.Thread(target=cycle, args=(own,))
               for own in bindings]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)     # switch threads between any two ops
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert len(artifact._whole.memo) == BINDING_MEMO_CAP


@pytest.mark.parametrize("backend", [
    pytest.param("c", marks=needs_cc), "python"])
def test_an_entry_call_keeps_no_reference_to_its_arguments(backend):
    """``artifact.fn(*args)`` marshals, calls and keeps nothing: the
    arrays it was handed are freed with their last other owner."""
    kernel, C = compile_dot(backend)
    artifact = kernel.artifact
    _, _, B = kernel.tensors
    A = operand(A_DATA * 2.0, "A")
    args = artifact.bind([C, A, B])
    arrays = [weakref.ref(array) for array in A.kernel_pins()[1:]]
    artifact.fn(*args)
    assert C.value == 2.0 * DOT
    del A, args
    gc.collect()
    assert [ref() for ref in arrays] == [None] * len(arrays)


@pytest.mark.parametrize("backend", [
    pytest.param("c", marks=needs_cc), "python"])
def test_threads_cycling_overrides_past_the_plan_memo_cap(backend):
    """Four threads override one kernel with their own outputs and
    operands, more sets in all than a plan's memo holds: hits race
    inserts and evictions, and every call still computes its own
    operands into its own output."""
    kernel, _ = compile_dot(backend)
    per_thread = BINDING_MEMO_CAP // 2
    sets = [[(fl.Scalar(name="C"), operand(A_DATA * float(k + 1), "A"),
              float(k + 1) * DOT)
             for k in range(t * per_thread, (t + 1) * per_thread)]
            for t in range(4)]
    failures = []

    def cycle(own):
        try:
            for _ in range(10):
                for C, A, want in own:
                    C.set(0.0)
                    kernel.run(C=C, A=A)
                    if C.value != pytest.approx(want):
                        failures.append((C.value, want))
        except Exception as exc:     # a KeyError from the memo, say
            failures.append(exc)

    threads = [threading.Thread(target=cycle, args=(own,))
               for own in sets]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)     # switch threads between any two ops
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert len(kernel.bind_plan(("C", "A")).memo) <= BINDING_MEMO_CAP


# ------------------------------------------------------------- python entry
def test_a_bound_python_run_takes_no_view_after_its_first(views_made):
    kernel, C = compile_dot("python")
    assert {"val", "val_2", "idx", "idx_2"} <= set(kernel.artifact.views)
    assert profiled(lambda: rerun(kernel, C))[0] == 1
    assert len(views_made) == len(kernel.artifact.views)
    del views_made[:]
    marshals, calls = profiled(lambda: [kernel.run() for _ in range(50)])
    assert (marshals, views_made) == (0, [])
    # run() and the kernel each; the lambda, its list and disable.
    assert calls <= 2 * 50 + 3
    assert rerun(kernel, C) == DOT


def test_a_python_override_views_each_new_binding_once(views_made):
    kernel, C = compile_dot("python")
    kernel.run()
    other = operand(A_DATA * 5.0, "A")
    for marshals in (1, 0):     # a new identity, then the memo's
        C.set(0.0)
        assert profiled(lambda: kernel.run(A=other))[0] == marshals
        assert C.value == 5.0 * DOT
    del views_made[:]
    assert profiled(lambda: rerun(kernel, C))[0] == 0
    assert (views_made, C.value) == ([], DOT)


def test_a_python_source_takes_no_view_itself():
    kernel, _ = compile_dot("python")
    assert kernel.artifact.views and "memoryview(" not in kernel.source
    level_0 = fl.compile_kernel(kernel.program, cache=False, opt_level=0)
    assert level_0.artifact.views == ()


def test_a_read_only_output_raises_on_the_preparing_run():
    """docs/backends.md: a store through a view of a read-only output
    raises ``TypeError``; the run that prepares the call is that run."""
    C = fl.Scalar(name="C")
    C.element.val.flags.writeable = False
    kernel, _ = compile_dot("python", C)
    assert "C_val" in kernel.artifact.views
    for _ in range(2):
        with pytest.raises(TypeError, match="read-only"):
            kernel.run()
