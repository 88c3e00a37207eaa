"""What a bind-plan memo key names, read in one call per replacement.

A memo hit (``CompiledKernel.plan_entry``) keys on the identities of
each replacement's format signature and ``kernel_buffers()`` values,
read through :meth:`BindPlan.pins`: one ``kernel_pins()`` call where
the object has one (``Tensor``, ``Scalar``, the append outputs), else
``format_signature()`` plus ``kernel_buffers().values()``.  Both reads
must name the same objects in the same order, or a hit would pin
something other than what its entry binds.
"""

import copy

import numpy as np
import pytest

import repro.lang as fl
from repro.cin.analyze import tensor_binding_buffers, tensor_signature
from repro.compiler.kernel import BindPlan
from repro.formats import format_names
from repro.formats.custom import LoopletTensor
from repro.looplets.core import Lookup
from repro.tensors.output import RunOutput, SparseOutput

MATRIX = np.array([[0.0, 1.5, 1.5, 0.0, 2.0],
                   [0.0, 0.0, 0.0, 0.0, 0.0],
                   [3.0, 3.0, 0.0, 0.0, 4.0]])


def read(tensor):
    """What a one-replacement plan's key names for ``tensor``."""
    return BindPlan(((0, 0),), (), (), (), None).pins([tensor])


def protocol(tensor):
    """The same objects through the two protocol wrappers."""
    return [tensor_signature(tensor),
            *tensor_binding_buffers(tensor).values()]


def assert_names_the_same_objects(tensor):
    got, want = read(tensor), protocol(tensor)
    assert len(got) == len(want)
    assert all(a is b for a, b in zip(got, want))


def matrices():
    """A matrix over every registered level format innermost, under a
    dense and a sparse outer level, and a dense and a sparse vector:
    from no level array (all dense) to several per level."""
    out = []
    for inner in format_names():
        for outer in ("dense", "sparse"):
            out.append(fl.from_numpy(MATRIX, (outer, inner), name="A"))
    out.append(fl.from_numpy(MATRIX[0], ("dense",), name="x"))
    out.append(fl.from_numpy(MATRIX[2], ("sparse",), name="y"))
    return out


@pytest.mark.parametrize("tensor", matrices(), ids=repr)
def test_a_tensor_names_its_signature_then_its_buffers(tensor):
    assert_names_the_same_objects(tensor)


def test_scalars_and_append_outputs_name_the_same_objects():
    for tensor in (fl.Scalar(name="C"), fl.Scalar(2.0, dtype=np.int64),
                   RunOutput((2, 6), name="R"),
                   SparseOutput(9, name="S")):
        assert hasattr(tensor, "kernel_pins")
        assert_names_the_same_objects(tensor)


def test_objects_without_the_call_fall_back_to_the_protocol():
    """A LoopletTensor and an opaque object have no ``kernel_pins``:
    their signature is a fresh tuple per read (equal, never the same
    object, so they never hit), their buffers none."""
    custom = LoopletTensor(4, lambda ctx, pos: Lookup(lambda j: j))
    opaque = object()
    for tensor in (custom, opaque):
        assert not hasattr(tensor, "kernel_pins")
        got, want = read(tensor), protocol(tensor)
        assert got == want and len(got) == 1
    assert read(opaque) == [("opaque", id(opaque))]


def test_a_re_pointed_array_is_read_anew():
    """Arrays are read on every call: a hand-assigned value array, a
    re-pointed level array and a new dtype all change what is named."""
    tensor = fl.from_numpy(MATRIX, ("dense", "sparse"), name="A")
    before = read(tensor)
    tensor.element.val = tensor.element.val * 2.0
    tensor.levels[1].idx = tensor.levels[1].idx.copy()
    after = read(tensor)
    assert after[0] is before[0]                    # same signature
    assert after[1] is before[1]                    # pos kept
    assert after[2] is not before[2] and after[2] is tensor.levels[1].idx
    assert after[3] is not before[3] and after[3] is tensor.element.val
    assert_names_the_same_objects(tensor)
    tensor.element.val = tensor.element.val.astype(np.float32)
    assert read(tensor)[0] != before[0]
    assert_names_the_same_objects(tensor)


def test_a_copy_reads_its_own_arrays():
    tensor = fl.from_numpy(MATRIX, ("sparse", "sparse"), name="A")
    twin = copy.deepcopy(tensor)
    assert_names_the_same_objects(twin)
    assert not set(map(id, read(twin)[1:])) & set(map(id, read(tensor)))


def test_a_plan_reads_its_replacements_in_name_order():
    """The key runs over the plan's names in order, each replacement's
    signature before its buffers."""
    A = fl.from_numpy(MATRIX[0], ("sparse",), name="A")
    B = fl.from_numpy(MATRIX[2], ("sparse",), name="B")
    plan = BindPlan((("B", 2), ("A", 1)), (), (), (), None)
    assert all(a is b for a, b in zip(plan.pins({"A": A, "B": B}),
                                      protocol(B) + protocol(A)))


def test_an_array_re_pointed_between_the_reads_is_not_filed():
    """A miss reads each replacement twice: the key's read, then its
    ``kernel_buffers()`` for the bind.  An array re-pointed between the
    two leaves the call unfiled, so no key names an array its entry
    does not bind; the next call, read whole, is filed."""
    a = fl.from_numpy(MATRIX[0], ("sparse",), name="A")
    b = fl.from_numpy(MATRIX[2], ("sparse",), name="B")
    C = fl.Scalar(name="C")
    i = fl.indices("i")
    kernel = fl.compile_kernel(
        fl.forall(i, fl.increment(C[()], a[i] * b[i])), cache=False)
    x = copy.deepcopy(a)
    first, second = x.element.val, x.element.val * 3.0

    def re_pointing():
        del x.kernel_buffers            # one re-point, then the class's
        x.element.val = second
        return x.buffers()

    x.kernel_buffers = re_pointing
    kernel.run(A=x)             # the key read ``first``, the bind ``second``
    plan = kernel.bind_plan(("A",))
    assert len(plan.memo) == 0
    assert x.element.val is second and first is not second
    assert C.value == pytest.approx(float(x.to_numpy() @ MATRIX[2]))
    C.set(0.0)
    kernel.run(A=x)
    assert len(plan.memo) == 1
    assert C.value == pytest.approx(float(x.to_numpy() @ MATRIX[2]))
