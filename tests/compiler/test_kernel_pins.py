"""One read per bound tensor, and binding by position in it.

Every bind reads each tensor once through :meth:`BindPlan.pins`, one
``kernel_pins()`` call (``Tensor``, ``Scalar``, the append outputs and
``LoopletTensor``, whose read is its signature alone).  A memo key
names the identities of that read, and a kernel parameter is fed the
item at its plan position in it.  The read must name the objects the
tensor holds, in one order for one format, gathered here without the
call (:func:`protocol`), or a parameter would be fed something other
than the buffer it was compiled for.
"""

import copy

import numpy as np
import pytest

import repro.lang as fl
from repro.cin.analyze import tensor_pins
from repro.cin.builders import increment, store
from repro.compiler.kernel import BindPlan
from repro.formats import format_names
from repro.formats.custom import LoopletTensor
from repro.ir.nodes import Literal
from repro.looplets.core import Lookup, Run
from repro.tensors.output import RunOutput, SparseOutput

MATRIX = np.array([[0.0, 1.5, 1.5, 0.0, 2.0],
                   [0.0, 0.0, 0.0, 0.0, 0.0],
                   [3.0, 3.0, 0.0, 0.0, 4.0]])


def read(tensor):
    """What a one-replacement plan's key names for ``tensor``."""
    return BindPlan(((0, 0),), (), (), (), None).pins([tensor])


def protocol(tensor):
    """The same objects, gathered without the call: the signature, then
    each level's arrays by their hints (``Level.buffers()``) and the
    values; an append output's three streams."""
    if isinstance(tensor, (RunOutput, SparseOutput)):
        return [tensor.format_signature(), tensor.coords, tensor.vals,
                tensor.state]
    return [tensor.format_signature(),
            *[array for level in tensor.levels
              for array in level.buffers().values()],
            tensor.element.val]


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


def test_a_custom_tensor_reads_its_signature_an_opaque_its_identity():
    """A LoopletTensor's read is its signature alone, one tuple for
    life, so it can hit.  An object with no ``kernel_pins`` (a fiber an
    access targets) is opaque: ``tensor_pins`` reads its identity, a
    fresh tuple per read (equal, never the same object), so it never
    hits; a bind plan does not read it at all."""
    custom = LoopletTensor(4, lambda ctx, pos: Lookup(lambda j: j))
    assert read(custom) == [custom.format_signature()]
    assert read(custom)[0] is read(custom)[0]
    assert tensor_pins(custom) == (custom.format_signature(),)
    opaque = object()
    assert tensor_pins(opaque) == (("opaque", id(opaque)),)
    assert tensor_pins(opaque)[0] is not tensor_pins(opaque)[0]
    with pytest.raises(AttributeError):
        read(opaque)


def custom_dot():
    """``(kernel, V, B, C)``: ``C[] += V[i] * B[i]`` over a
    LoopletTensor ``V`` of ones."""
    V = LoopletTensor(4, lambda ctx, pos: Run(Literal(1.0)), name="V")
    B = fl.from_numpy(np.arange(4.0), ("dense",), name="B")
    C = fl.Scalar(name="C")
    i = fl.indices("i")
    kernel = fl.compile_kernel(
        fl.forall(i, fl.increment(C[()], V[i] * B[i])), cache=False)
    return kernel, V, B, C


def test_repeated_custom_runs_file_one_entry():
    """A LoopletTensor's memoized signature names one key: five
    identical runs leave one memo entry, not five."""
    kernel, V, B, C = custom_dot()
    b = copy.deepcopy(B)
    for _ in range(5):
        C.set(0.0)
        kernel.run(V=V, B=b)
        assert C.value == pytest.approx(6.0)
    assert len(kernel.bind_plan(("V", "B")).memo) == 1


def test_a_copied_custom_tensor_reads_a_signature_of_its_own():
    V = LoopletTensor(5, lambda ctx, pos: Run(Literal(1.0)))
    mine = V.format_signature()
    twin = copy.deepcopy(V)
    assert twin.format_signature() == ("custom", id(twin), (5,))
    assert twin.format_signature() is twin.format_signature()
    assert V.format_signature() is mine != twin.format_signature()


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


def test_a_miss_binds_the_read_its_key_names():
    """A miss checks, binds and files from its key's read: every
    argument fed from the replacement is an object the key names, and
    no ``buffers()`` role dict is taken.  (A hand-assigned array is a new
    key: ``test_a_hand_assigned_array_is_a_miss_not_a_stale_hit``.)"""
    a = fl.from_numpy(MATRIX[0], ("sparse",), name="A")
    b = fl.from_numpy(MATRIX[2], ("sparse",), name="B")
    C = fl.Scalar(name="C")
    i = fl.indices("i")
    kernel = fl.compile_kernel(
        fl.forall(i, fl.increment(C[()], a[i] * b[i])), cache=False)
    x = copy.deepcopy(a)

    def refused():
        raise AssertionError("a bind took a role dict")

    x.buffers = refused
    kernel.run(A=x)
    plan = kernel.bind_plan(("A",))
    [entry] = plan.memo.values()
    named = set(map(id, entry.pinned))
    fed = [arg for arg, (slot, _) in zip(entry.args, kernel.artifact.plan)
           if slot == 1]
    assert fed and all(id(arg) in named for arg in fed)
    assert C.value == pytest.approx(float(x.to_numpy() @ MATRIX[2]))


def compiled_over(tensor):
    """``(kernel, slot)``: a kernel that reads ``tensor`` (or writes
    it, a scalar or an append output) and the slot it is bound to."""
    i, j = fl.indices("i", "j")
    if isinstance(tensor, (RunOutput, SparseOutput)):
        source = fl.from_numpy(np.ones(tensor.shape),
                               ("dense",) * len(tensor.shape), name="X")
        idxs = (i, j)[:len(tensor.shape)]
        program = store(tensor[idxs], source[idxs])
    elif tensor.ndim == 0:
        source = fl.from_numpy(np.arange(5).astype(tensor.dtype),
                               ("dense",), name="x")
        program = increment(tensor[()], source[i])
    else:
        C = fl.Scalar(name="C")
        idxs = (i, j)[:tensor.ndim]
        program = increment(C[()], tensor[idxs])
    for index in reversed(idxs if tensor.ndim else (i,)):
        program = fl.forall(index, program)
    kernel = fl.compile_kernel(program, cache=False)
    slot = [id(t) for t in kernel.tensors].index(id(tensor))
    return kernel, slot


def bound_tensors():
    """Every registered format (:func:`matrices`), the scalars and the
    append outputs."""
    return matrices() + [
        fl.Scalar(name="C"), fl.Scalar(2.0, dtype=np.int64),
        RunOutput((2, 6), name="R"), SparseOutput(9, name="S")]


@pytest.mark.parametrize("tensor", bound_tensors(), ids=lambda tensor: (
    type(tensor).__name__ if isinstance(tensor, (RunOutput, SparseOutput))
    else repr(tensor)))
def test_a_position_bind_feeds_what_the_position_names(tensor):
    """Each parameter the compile registered at a position of the
    tensor's read was compiled over the object :func:`protocol`
    gathers there, and a copy bound by position hands it the copy's
    object at that position."""
    kernel, slot = compiled_over(tensor)
    tensors = kernel.tensors
    compiled = kernel.artifact.bind(tensors)
    tensors[slot] = twin = copy.deepcopy(tensor)
    args = kernel.artifact.bind(tensors)
    fed = [(param, entry[1])
           for param, entry in enumerate(kernel.artifact.plan)
           if entry is not None and entry[0] == slot]
    assert fed
    for param, position in fed:
        assert compiled[param] is protocol(tensor)[position]
        assert args[param] is protocol(twin)[position]
