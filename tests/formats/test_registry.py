"""The format registry: one declaration per format.

A level format is its ``Level`` subclass — ``NAME``, ``ARRAYS``,
``LEAF_ONLY``, ``PROTOCOLS``, ``build``/``densify`` and ``unfurl`` —
plus one line in ``repro.formats.FORMATS``.  The first test adds a
format that way and nothing else; the rest pin the declarations the
stack derives everything from.
"""

import inspect

import numpy as np
import pytest

import repro.lang as fl
from repro.baselines.reference import interpret
from repro.exec.shm import ShmArena
from repro.formats import FORMATS, Level, format_names
from repro.formats.level import (
    FiberSlice,
    fill_payload,
    fill_slab,
    offsets,
    stored_mask,
    stored_span,
)
from repro.ir import asm, build
from repro.ir.nodes import Load, Var
from repro.looplets import Lookup, Phase, Pipeline, Run
from repro.tensors.convert import convert
from repro.tensors.share import share_tensor
from repro.util.errors import FormatError


class SuffixLevel(Level):
    """A toy format: fill up to ``lo[p]``, then children stored
    contiguously to the end of the dimension (a mirrored ragged)."""

    NAME = "suffix"
    ARRAYS = ("pos", "lo")

    def __init__(self, shape, child, pos, lo):
        super().__init__(shape, child)
        self.pos = np.ascontiguousarray(pos, dtype=np.int64)
        self.lo = np.ascontiguousarray(lo, dtype=np.int64)

    @classmethod
    def build(cls, slab, dim, fill):
        lo = stored_span(stored_mask(slab, fill))[0]
        suffix = np.arange(dim) >= lo[:, None]
        return {"pos": offsets(dim - lo), "lo": lo}, slab[suffix]

    def unfurl(self, ctx, pos, proto="walk"):
        self.resolve_protocol(proto)
        q0 = Var(ctx.freshen("q0"))
        lo = Var(ctx.freshen("lo"))
        ctx.emit(asm.AssignStmt(q0, Load(ctx.buffer(self.pos, "pos"), pos)))
        ctx.emit(asm.AssignStmt(lo, Load(ctx.buffer(self.lo, "lo"), pos)))

        def stored(j):
            return FiberSlice(self.child,
                              build.plus(q0, build.minus(j, lo)))

        return Pipeline([
            Phase(Run(fill_payload(self)), stride=lo),
            Phase(Lookup(stored)),
        ])

    def densify(self, nfibers, children):
        out = fill_slab(self, nfibers, children)
        out[np.arange(self.shape) >= self.lo[:, None]] = children
        return out


def test_a_format_is_one_class_and_one_registry_line(monkeypatch):
    monkeypatch.setitem(FORMATS, "suffix", SuffixLevel)
    vec = np.array([0.0, 0.0, 3.0, 0.0, 2.0, 5.0])
    other = np.array([1.0, 0.0, 2.0, 4.0, 0.0, 3.0])

    A = fl.from_numpy(vec, ("suffix",), name="A")
    assert type(A.levels[0]) is SuffixLevel
    assert list(A.levels[0].lo) == [2]
    np.testing.assert_array_equal(A.to_numpy(), vec)
    assert A.format_signature()[1] == (("SuffixLevel", 6),)
    assert list(A.buffers()) == ["lvl0_pos", "lvl0_lo", "val"]

    for target in ("sparse", "suffix"):
        into = convert(fl.from_numpy(vec, ("vbl",)), (target,))
        np.testing.assert_array_equal(into.to_numpy(), vec)
    back = convert(A, ("rle",))
    np.testing.assert_array_equal(back.to_numpy(), vec)

    B = fl.from_numpy(other, ("sparse",), name="B")
    C = fl.Scalar(name="C")
    i = fl.indices("i")
    program = fl.forall(i, fl.increment(C[()], A[i] * B[i]))
    expected = interpret(program).result_for(C)
    kernel = fl.compile_kernel(program, cache=False)
    kernel.run()
    assert C.value == float(expected) == float(vec @ other)

    mat = np.array([[0.0, 1.0, 2.0], [0.0, 0.0, 0.0], [4.0, 0.0, 6.0]])
    M = fl.from_numpy(mat, ("dense", "suffix"), name="M")
    np.testing.assert_array_equal(M.to_numpy(), mat)
    x = fl.from_numpy(np.array([1.0, 0.0, 3.0]), ("sparse",), name="x")
    y = fl.zeros(3, name="y")
    j = fl.indices("j")
    spmv = fl.forall(i, fl.forall(j, fl.increment(y[i], M[i, j] * x[j])))
    expected = np.asarray(interpret(spmv).result_for(y))
    fl.compile_kernel(spmv, cache=False).run()
    np.testing.assert_array_equal(y.to_numpy(), expected)

    arena = ShmArena()
    try:
        share_tensor(A, arena)
        np.testing.assert_array_equal(A.to_numpy(), vec)
        assert not A.levels[0].lo.flags.owndata
    finally:
        arena.close()


def test_every_named_level_class_is_registered():
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    named = {sub for sub in subclasses(Level)
             if sub.NAME is not None and sub is not SuffixLevel}
    assert named == set(FORMATS.values())
    assert {cls.NAME for cls in named} == set(format_names())
    # The one alias resolves to a registered class and is not a name.
    assert FORMATS["sparse_list"] is FORMATS["sparse"]
    assert "sparse_list" not in format_names()


def test_registry_order_is_grammar_order():
    assert format_names() == ("dense", "sparse", "band", "vbl", "bitmap",
                              "ragged", "rle", "packbits")
    assert format_names(leaf_only=True) == ("rle", "packbits")
    assert (format_names(leaf_only=False) + format_names(leaf_only=True)
            == format_names())


@pytest.mark.parametrize("fmt", format_names())
def test_arrays_are_the_constructor_the_buffers_and_the_builder(fmt):
    cls = FORMATS[fmt]
    params = tuple(inspect.signature(cls.__init__).parameters)
    assert params[:3] == ("self", "shape", "child")
    assert params[3:] == cls.ARRAYS

    vec = np.array([0.0, 2.0, 2.0, 2.0, 0.0])
    arrays, children = cls.build(vec[np.newaxis], len(vec), 0.0)
    assert tuple(arrays) == cls.ARRAYS
    for array in arrays.values():
        assert array.flags.c_contiguous and array.dtype in (np.int64, bool)
    assert children.ndim == 1 and children.dtype == vec.dtype
    level = fl.from_numpy(vec, (fmt,)).levels[0]
    assert tuple(level.buffers()) == cls.ARRAYS
    for name, array in level.buffers().items():
        assert array is getattr(level, name)
    assert level.fiber_count() == 1


@pytest.mark.parametrize("fmt", format_names(leaf_only=True))
def test_leaf_only_formats_are_rejected_off_the_innermost_mode(fmt):
    # The second shape has no fiber to scan: the rule is the format's,
    # not the data's.
    for shape in [(2, 3, 3), (0, 3, 3)]:
        with pytest.raises(FormatError,
                           match="^%s must be the innermost mode$" % fmt):
            fl.from_numpy(np.zeros(shape), ("dense", fmt, "dense"))


#: ``format_signature()`` embeds the level class name, and the kernel
#: key embeds the signature: these literals are what every persisted
#: digest was computed over.
SIGNATURE_CLASS = {
    "dense": "DenseLevel",
    "sparse": "SparseListLevel",
    "band": "SparseBandLevel",
    "vbl": "SparseVBLLevel",
    "bitmap": "BitmapLevel",
    "ragged": "RaggedLevel",
    "rle": "RunLengthLevel",
    "packbits": "PackBitsLevel",
}


@pytest.mark.parametrize("fmt", format_names())
def test_format_signature_is_unchanged(fmt):
    tensor = fl.from_numpy(np.zeros((3, 4)), ("dense", fmt))
    assert tensor.format_signature() == (
        "tensor",
        (("DenseLevel", 3), (SIGNATURE_CLASS[fmt], 4)),
        "float64",
        ("float", "0.0"),
    )
