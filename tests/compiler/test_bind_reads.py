"""One read per tensor: every compile and bind takes ``kernel_pins()`` once.

A compile reads each tensor once, in the program walk: the key's
signatures and alias groups, the lowering's binding plan and the
kernel's first bind are that read.  A bind reads each tensor it binds
through one ``kernel_pins()`` call (``BindPlan.pins``): the signatures
it checks, the buffers it feeds by position and the identities its
memo key names are that one read.  Nothing builds a role dict
(``buffers()``).  Counted here on a sparse x sparse dot whose three
slots are ``Tensor`` objects (the scalar output is one), along every
path: a cold and a memory-hit compile, an override on a memo miss and
on a hit, a named and a sequence rebind, and a ``KernelPool.map`` on
every executor.
"""

import numpy as np
import pytest

import repro.lang as fl
from repro.compiler.kernel import kernel_cache
from repro.exec import EXECUTORS, KernelPool, WorkerPool
from repro.tensors.tensor import Tensor

N = 64


def operands(seed):
    """Two sparse vectors, ``A`` and ``B``, that overlap."""
    rng = np.random.default_rng(seed)
    a, b = np.zeros(N), np.zeros(N)
    a[rng.choice(N, 12, replace=False)] = rng.random(12) + 0.1
    b[rng.choice(N, 12, replace=False)] = rng.random(12) + 0.1
    a[7] = b[7] = 1.0
    return (fl.from_numpy(a, ("sparse",), name="A"),
            fl.from_numpy(b, ("sparse",), name="B"))


def dot(A, B, C):
    i = fl.indices("i")
    return fl.forall(i, fl.increment(C[()], A[i] * B[i]))


def expected(A, B):
    return float(A.to_numpy() @ B.to_numpy())


@pytest.fixture
def reads(monkeypatch):
    """A call returning, since its last call, the ids of the tensors
    each of ``kernel_pins``, ``format_signature`` and ``buffers`` read
    (sorted)."""
    seen = {"kernel_pins": [], "format_signature": [], "buffers": []}
    for method, calls in seen.items():
        original = getattr(Tensor, method)

        def counting(self, _original=original, _calls=calls):
            _calls.append(id(self))
            return _original(self)

        monkeypatch.setattr(Tensor, method, counting)

    def taken():
        out = {method: sorted(calls) for method, calls in seen.items()}
        for calls in seen.values():
            del calls[:]
        return out

    return taken


def assert_read_once(reads, tensors):
    """Each of ``tensors`` was read by one ``kernel_pins()`` call,
    its signature was read once (by that call), and nothing took a
    role dict."""
    got = reads()
    assert got["kernel_pins"] == sorted(map(id, tensors))
    assert got["format_signature"] == sorted(map(id, tensors))
    assert got["buffers"] == []


@pytest.fixture
def kernel():
    A, B = operands(0)
    return fl.compile_kernel(dot(A, B, fl.Scalar(name="C")), cache=False)


@pytest.mark.parametrize("backend", ["python", "c"])
def test_a_cold_compile(reads, backend):
    """``cache=False``: key, lowering and first bind share the walk's
    one read of each tensor."""
    A, B = operands(0)
    C = fl.Scalar(name="C")
    program = dot(A, B, C)
    reads()
    kernel = fl.compile_kernel(program, cache=False, backend=backend)
    assert not kernel.from_cache
    assert_read_once(reads, [C, A, B])
    kernel.run()
    assert C.value == pytest.approx(expected(A, B))


def test_a_memory_hit_compile(reads):
    kernel_cache().clear()
    try:
        fl.compile_kernel(dot(*operands(0), fl.Scalar(name="C")),
                          store=False, remote=False)
        A, B = operands(1)
        C = fl.Scalar(name="C")
        program = dot(A, B, C)
        reads()
        kernel = fl.compile_kernel(program, store=False, remote=False)
        assert kernel.from_cache
        assert_read_once(reads, [C, A, B])
        kernel.run()
        assert C.value == pytest.approx(expected(A, B))
    finally:
        kernel_cache().clear()


def test_an_override_on_a_miss_and_on_a_hit(kernel, reads):
    C = kernel.outputs[0]
    a, b = operands(1)
    reads()
    for _ in range(2):
        C.set(0.0)
        kernel.run(A=a, B=b)
        assert_read_once(reads, [a, b])
        assert C.value == pytest.approx(expected(a, b))
    assert len(kernel.bind_plan(("A", "B")).memo) == 1


def test_a_named_rebind_and_run(kernel, reads):
    C = kernel.outputs[0]
    a, b = operands(1)
    reads()
    for _ in range(2):
        kernel.rebind(A=a, B=b)
        assert_read_once(reads, [a, b])
        C.set(0.0)
        kernel.run()
        assert_read_once(reads, [])
        assert C.value == pytest.approx(expected(a, b))


def test_a_sequence_rebind(kernel, reads):
    a, b = operands(1)
    C = fl.Scalar(name="C")
    tensors = [{"C": C, "A": a, "B": b}[t.name] for t in kernel.tensors]
    reads()
    kernel.rebind(tensors)
    assert_read_once(reads, tensors)
    kernel.run()
    assert_read_once(reads, [])
    assert C.value == pytest.approx(expected(a, b))


@pytest.mark.parametrize("form", ["names", "sequences"])
@pytest.mark.parametrize("executor", EXECUTORS)
def test_a_map_reads_each_dataset_tensor_once(executor, form, kernel,
                                              reads):
    """Each map reads every dataset tensor once: in-process the first
    map binds and the second hits the plan memos, and the processes
    executor (on a pool of its own, closed at the end) binds afresh
    each time."""
    datasets = []
    for seed in range(1, 5):
        a, b = operands(seed)
        named = {"C": fl.Scalar(name="C"), "A": a, "B": b}
        datasets.append(named if form == "names" else
                        [named[t.name] for t in kernel.tensors])
    members = [tensor for dataset in datasets
               for tensor in (dataset.values() if form == "names"
                              else dataset)]
    workers = WorkerPool(max_workers=2) if executor == "processes" else None
    try:
        with KernelPool(kernel, executor=executor, max_workers=2,
                        worker_pool=workers) as pool:
            for _ in range(2):
                reads()
                result = pool.map(datasets)
                assert_read_once(reads, members)
                assert [float(item.outputs[0]) for item in result] == \
                    pytest.approx([expected(*operands(seed))
                                   for seed in range(1, 5)])
    finally:
        if workers is not None:
            workers.close()
