"""Adoption into a shared-memory arena and kernels bound to the
adopted tensors, in both orders: ``share_tensor`` re-points a tensor's
arrays, so a kernel bound before it must follow them."""

import numpy as np
import pytest

import repro.lang as fl
from repro import codegen
from repro.exec import shm as shm_mod
from repro.util.errors import BindingError

BACKENDS = [
    "python",
    pytest.param("c", marks=pytest.mark.skipif(
        not codegen.have_toolchain(), reason="no C compiler on PATH")),
]

A_DATA = np.array([0, 1.5, 0, 2.0, 0, 0, 3.0, 0])
B_DATA = np.array([1.0, 2.0, 0, 4.0, 0, 0, 5.0, 0])


@pytest.fixture
def arena():
    arena = fl.ShmArena()
    yield arena
    arena.close()


def dot_tensors():
    return (fl.from_numpy(A_DATA, ("sparse",), name="A"),
            fl.from_numpy(B_DATA, ("sparse",), name="B"),
            fl.Scalar(name="C"))


def dot_kernel(A, B, C, backend):
    i = fl.indices("i")
    return fl.compile_kernel(
        fl.forall(i, fl.increment(C[()], A[i] * B[i])),
        cache=False, backend=backend)


def resident(tensor):
    return all(shm_mod.resident_descriptor(array) is not None
               for array in tensor.buffers().values())


@pytest.mark.parametrize("backend", BACKENDS)
def test_share_then_compile(backend, arena):
    A, B, C = dot_tensors()
    fl.share_dataset([A, B, C], arena)
    kernel = dot_kernel(A, B, C, backend)
    kernel.run()
    assert C.value == pytest.approx(float(A_DATA @ B_DATA))


@pytest.mark.parametrize("backend", BACKENDS)
def test_compile_then_share(backend, arena):
    """The kernel holds the pre-adoption arrays; its next run must
    land in the arrays the tensors own now, not in orphans."""
    A, B, C = dot_tensors()
    kernel = dot_kernel(A, B, C, backend)
    kernel.run()
    assert C.value == pytest.approx(float(A_DATA @ B_DATA))
    fl.share_dataset([A, B, C], arena)
    assert resident(A) and resident(B) and resident(C)
    C.set(0.0)
    kernel.run()
    assert C.value == pytest.approx(float(A_DATA @ B_DATA))
    # The adopted inputs are what is read, too.
    A.element.val[:] *= 2.0
    C.set(0.0)
    kernel.run()
    assert C.value == pytest.approx(2.0 * float(A_DATA @ B_DATA))


@pytest.mark.parametrize("backend", BACKENDS)
def test_named_paths_after_share_see_adopted_arrays(backend, arena):
    """An incremental override or rebind re-resolves the replaced slot
    only; the untouched ones must still follow an adoption."""
    A, B, C = dot_tensors()
    kernel = dot_kernel(A, B, C, backend)
    fl.share_dataset([A, B, C], arena)
    other = fl.from_numpy(A_DATA * 3.0, ("sparse",), name="A")
    C.set(0.0)
    kernel.run(A=other)
    assert C.value == pytest.approx(3.0 * float(A_DATA @ B_DATA))
    fl.share_tensor(other, arena)
    C.set(0.0)
    kernel.rebind(A=other).run()
    assert C.value == pytest.approx(3.0 * float(A_DATA @ B_DATA))


def test_share_keeps_signature_and_structure(arena):
    A, _, _ = dot_tensors()
    before = A.format_signature()
    dense = A.to_numpy()
    assert fl.share_tensor(A, arena) is A
    assert A.format_signature() is before
    np.testing.assert_array_equal(A.to_numpy(), dense)


def test_append_outputs_pass_through(arena):
    out = fl.RunOutput((4,), fill=0.0)
    buffers = out.kernel_buffers()
    assert fl.share_tensor(out, arena) is out
    for role, buf in out.kernel_buffers().items():
        assert buf is buffers[role]
        assert shm_mod.resident_descriptor(buf) is None


def test_hand_assigned_val_needs_explicit_rebind():
    """Only adoption is tracked: a hand-assigned ``element.val`` is
    seen after ``rebind``, and refused there when its dtype changed."""
    A, B, C = dot_tensors()
    kernel = dot_kernel(A, B, C, "python")
    A.element.val = A.element.val * 2.0
    kernel.run()
    assert C.value == pytest.approx(float(A_DATA @ B_DATA))
    kernel.rebind(kernel.tensors)
    C.set(0.0)
    kernel.run()
    assert C.value == pytest.approx(2.0 * float(A_DATA @ B_DATA))
    A.element.val = A.element.val.astype(np.float32)
    with pytest.raises(BindingError, match="format signature"):
        kernel.rebind(kernel.tensors)
