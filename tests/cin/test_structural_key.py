"""Structural keys: program identity up to the data it binds."""

import numpy as np

import repro.lang as fl
from repro.cin.analyze import (
    buffer_alias_groups,
    structural_key,
    tensor_pins,
)
from repro.formats.custom import LoopletTensor
from repro.looplets import Run
from repro.ir.nodes import Literal


def dot(a_fmt="sparse", b_fmt="band", n=20, seed=0, names=("A", "B", "C"),
        proto=None):
    rng = np.random.default_rng(seed)
    a = np.zeros(n)
    a[rng.choice(n, 3, replace=False)] = rng.random(3)
    b = np.zeros(n)
    b[n // 4:n // 2] = rng.random(n // 2 - n // 4)
    A = fl.from_numpy(a, (a_fmt,), name=names[0])
    B = fl.from_numpy(b, (b_fmt,), name=names[1])
    C = fl.Scalar(name=names[2])
    i = fl.indices("i")
    a_idx = proto(i) if proto is not None else i
    return fl.forall(i, fl.increment(C[()], fl.access(A, a_idx) * B[i]))


class TestKeyEquality:
    def test_same_structure_different_data(self):
        assert structural_key(dot(seed=1)) == structural_key(dot(seed=2))

    def test_tensor_names_ignored(self):
        assert (structural_key(dot(names=("A", "B", "C")))
                == structural_key(dot(names=("X", "Y", "Z"))))

    def test_key_is_hashable(self):
        hash(structural_key(dot()))


class TestKeyInequality:
    def test_format_changes_key(self):
        assert (structural_key(dot(a_fmt="sparse"))
                != structural_key(dot(a_fmt="dense")))

    def test_shape_changes_key(self):
        assert structural_key(dot(n=20)) != structural_key(dot(n=21))

    def test_protocol_changes_key(self):
        assert (structural_key(dot(proto=fl.gallop))
                != structural_key(dot(proto=None)))

    def test_reduction_op_changes_key(self):
        A = fl.from_numpy(np.arange(6.0), ("dense",), name="A")
        C = fl.Scalar(name="C")
        i = fl.indices("i")
        prog_sum = fl.forall(i, fl.increment(C[()], A[i]))
        prog_max = fl.forall(i, fl.reduce_into(C[()], "max", A[i]))
        assert structural_key(prog_sum) != structural_key(prog_max)

    def test_fill_changes_key(self):
        def rle_sum(fill):
            vec = np.full(10, fill)
            vec[4] = 3.0
            A = fl.from_numpy(vec, ("rle",), fill=fill, name="A")
            C = fl.Scalar(name="C")
            i = fl.indices("i")
            return fl.forall(i, fl.increment(C[()], A[i]))

        assert structural_key(rle_sum(0.0)) != structural_key(rle_sum(2.0))

    def test_dtype_changes_key(self):
        def typed_sum(dtype):
            A = fl.from_numpy(np.arange(6, dtype=dtype), ("dense",),
                              name="A")
            C = fl.Scalar(name="C")
            i = fl.indices("i")
            return fl.forall(i, fl.increment(C[()], A[i]))

        assert (structural_key(typed_sum(np.float64))
                != structural_key(typed_sum(np.float32)))


class TestCustomTensors:
    def _virtual(self):
        return LoopletTensor(8, lambda ctx, pos: Run(Literal(1.0)),
                             name="V")

    def _prog(self, V):
        C = fl.Scalar(name="C")
        i = fl.indices("i")
        return fl.forall(i, fl.increment(C[()], fl.access(V, i)))

    def test_identity_pinned(self):
        V = self._virtual()
        assert (structural_key(self._prog(V))
                == structural_key(self._prog(V)))
        assert (structural_key(self._prog(self._virtual()))
                != structural_key(self._prog(self._virtual())))

    def test_opaque_signature_for_unknown_objects(self):
        opaque = object()
        assert tensor_pins(opaque) == (("opaque", id(opaque)),)


class TestAliasGroups:
    def test_shared_buffer_detected(self):
        data = np.zeros((4, 5))
        data[1, 2] = 1.0
        A = fl.from_numpy(data, ("dense", "sparse"), name="A")
        B = fl.Tensor(A.levels, A.element, name="B")  # same storage
        groups = buffer_alias_groups([A, B])
        assert groups  # pos/idx/val all shared
        for group in groups:
            slots = {slot for slot, _ in group}
            assert slots == {0, 1}

    def test_distinct_tensors_have_no_groups(self):
        A = fl.from_numpy(np.ones(4), ("dense",), name="A")
        B = fl.from_numpy(np.ones(4), ("dense",), name="B")
        assert buffer_alias_groups([A, B]) == ()

    def test_aliasing_changes_key(self):
        data = np.zeros((4, 5))
        data[1, 2] = 1.0
        A = fl.from_numpy(data, ("dense", "sparse"), name="A")
        shared = fl.Tensor(A.levels, A.element, name="B")
        fresh = fl.from_numpy(data, ("dense", "sparse"), name="B")
        C = fl.Scalar(name="C")
        i, j = fl.indices("i", "j")

        def prog(B):
            return fl.forall(i, fl.forall(j, fl.increment(
                C[()], A[i, j] * B[i, j])))

        assert structural_key(prog(shared)) != structural_key(prog(fresh))
