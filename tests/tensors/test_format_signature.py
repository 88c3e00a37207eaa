"""Format signatures and kernel-buffer maps: the tensor half of the
structural-key contract."""

import copy
import pickle

import numpy as np
import pytest

import repro.lang as fl
from repro.formats import format_names
from repro.formats.custom import LoopletTensor
from repro.ir.nodes import Literal
from repro.looplets import Run
from repro.tensors.output import RunOutput, SparseOutput
from repro.util.errors import BindingError


def vec(fmt, n=10, seed=0):
    rng = np.random.default_rng(seed)
    data = rng.random(n)
    data[data < 0.5] = 0.0
    return fl.from_numpy(data, (fmt,), name="T")


class TestTensorSignature:
    def test_equal_across_data(self):
        assert (vec("sparse", seed=1).format_signature()
                == vec("sparse", seed=2).format_signature())

    def test_name_not_in_signature(self):
        a = vec("sparse")
        b = fl.from_numpy(a.to_numpy(), ("sparse",), name="other")
        assert a.format_signature() == b.format_signature()

    def test_format_differs(self):
        assert (vec("sparse").format_signature()
                != vec("dense").format_signature())

    def test_shape_differs(self):
        assert (vec("dense", n=10).format_signature()
                != vec("dense", n=11).format_signature())

    def test_dtype_differs(self):
        a = fl.from_numpy(np.arange(4, dtype=np.float64), ("dense",))
        b = fl.from_numpy(np.arange(4, dtype=np.int64), ("dense",))
        assert a.format_signature() != b.format_signature()

    def test_fill_differs(self):
        data = np.full(6, 2.0)
        a = fl.from_numpy(data, ("rle",), fill=0.0)
        b = fl.from_numpy(data, ("rle",), fill=2.0)
        assert a.format_signature() != b.format_signature()

    def test_numpy_fill_normalized(self):
        data = np.zeros(6)
        a = fl.from_numpy(data, ("sparse",), fill=np.float64(0.0))
        b = fl.from_numpy(data, ("sparse",), fill=0.0)
        assert a.format_signature() == b.format_signature()

    def test_scalar_signature(self):
        assert (fl.Scalar(name="a").format_signature()
                == fl.Scalar(name="b").format_signature())

    def test_signature_is_hashable(self):
        hash(vec("vbl").format_signature())


def memoized_tensors():
    """One tensor of every registered format, and every other kind
    whose signature is computed once."""
    cases = [pytest.param(lambda fmt=fmt: vec(fmt), id=fmt)
             for fmt in format_names()]
    cases += [
        pytest.param(lambda: fl.Scalar(name="s"), id="Scalar"),
        pytest.param(lambda: fl.zeros((3, 4), name="z"), id="zeros"),
        pytest.param(lambda: RunOutput((4, 6), fill=0, dtype=np.uint8),
                     id="RunOutput"),
        pytest.param(lambda: SparseOutput((3, 3), fill=0.0),
                     id="SparseOutput"),
    ]
    return cases


class TestSignatureComputedOnce:
    @pytest.mark.parametrize("make", memoized_tensors())
    def test_same_object_on_every_call(self, make):
        t = make()
        assert t.format_signature() is t.format_signature()

    @pytest.mark.parametrize("make", memoized_tensors())
    def test_copies_keep_an_equal_signature(self, make):
        """``perf/`` clones operands with ``deepcopy``; the processes
        executor's fallback transport pickles them."""
        t = make()
        clones = [copy.deepcopy(t), pickle.loads(pickle.dumps(t))]
        signature = t.format_signature()
        # ... and again, now carrying the memo.
        clones += [copy.deepcopy(t), pickle.loads(pickle.dumps(t))]
        for clone in clones:
            assert clone.format_signature() == signature
            assert clone.format_signature() is clone.format_signature()

    def test_deepcopy_shares_the_memoized_tuple(self):
        """What makes a clone match its kernel with one ``is``."""
        t = vec("sparse")
        signature = t.format_signature()
        assert copy.deepcopy(t).format_signature() is signature

    def test_replaced_val_of_another_dtype_changes_the_signature(self):
        a, b = vec("sparse", seed=1), vec("sparse", seed=2)
        C = fl.Scalar(name="C")
        a.name, b.name = "A", "B"
        i = fl.indices("i")
        kernel = fl.compile_kernel(
            fl.forall(i, fl.increment(C[()], a[i] * b[i])), cache=False)
        that = copy.deepcopy(a)
        before = that.format_signature()
        kernel.run(A=that)
        that.element.val = that.element.val.astype(np.float32)
        after = that.format_signature()
        assert after != before and after[2] == "float32"
        assert after is that.format_signature()
        with pytest.raises(BindingError, match="format signature"):
            kernel.run(A=that)
        # Same dtype, new array: the signature does not move.
        that.element.val = that.element.val.astype(np.float64)
        assert that.format_signature() == before
        kernel.run(A=that)

    def test_looplet_tensor_signature_embeds_its_own_id(self):
        t = LoopletTensor(5, lambda ctx, pos: Run(Literal(1.0)))
        clone = copy.deepcopy(t)
        assert t.format_signature() == ("custom", id(t), (5,))
        assert clone.format_signature() == ("custom", id(clone), (5,))
        assert clone.format_signature() != t.format_signature()


class TestKernelBuffers:
    def test_tensor_roles_match_buffers(self):
        t = vec("sparse")
        assert t.kernel_buffers() == t.buffers()
        assert set(t.kernel_buffers()) == {"lvl0_pos", "lvl0_idx", "val"}

    def test_roles_stable_across_same_format(self):
        assert (set(vec("vbl", seed=1).kernel_buffers())
                == set(vec("vbl", seed=2).kernel_buffers()))

    def test_run_output(self):
        out = RunOutput((4, 6), fill=0, dtype=np.uint8)
        assert out.kernel_buffers() == {
            "coords": out.coords, "vals": out.vals, "state": out.state}
        assert all(isinstance(buf, np.ndarray)
                   for buf in out.kernel_buffers().values())
        other = RunOutput((4, 6), fill=0, dtype=np.uint8, name="x")
        assert out.format_signature() == other.format_signature()
        smaller = RunOutput((4, 5), fill=0, dtype=np.uint8)
        assert out.format_signature() != smaller.format_signature()

    def test_sparse_output(self):
        out = SparseOutput((3, 3), fill=0.0)
        assert list(out.kernel_buffers()) == ["coords", "vals", "state"]
        assert out.kernel_buffers()["vals"].dtype == np.float64
        assert (out.format_signature()
                != RunOutput((3, 3), fill=0.0).format_signature())
