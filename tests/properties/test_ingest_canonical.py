"""Every level format stores one canonical form, for every dtype and
edge value, and densifies back to the array it was built from.

Together the two properties pin each format's arrays completely: the
round trip says what is stored is right, the canonical form says there
is only one way to store it.  Equality is the builders' own,
elementwise ``!=``: NaN equals nothing (a NaN fill stores everything,
NaN data never joins a run) and ``-0.0`` equals ``0.0`` (it is fill
where 0 is, and joins a run of zeros, which keeps its first element's
bits) — so the round trip is exact in bits except for the sign of a
zero.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.formats import format_names
from repro.formats.packbits import _MIN_RUN
from repro.tensors import from_numpy

OUTER = format_names(leaf_only=False)

#: dtype -> (element pool, fill pool).
KINDS = {
    np.bool_: ([False, True], [False, True]),
    np.int8: ([0, 0, 1, 2, -128, 127], [0, 1]),
    np.float32: ([0.0, 0.0, -0.0, 1.0, 2.5, float("nan"), float("inf")],
                 [0.0, 1.0, float("nan")]),
    np.float64: ([0.0, 0.0, -0.0, 1.0, 2.5, float("nan"), -1e300],
                 [0.0, 1.0, float("nan")]),
}


@st.composite
def ingest_case(draw):
    """``(array, formats, fill)``: 1-3 modes with extents 0-6, a legal
    format stack, values drawn from a small pool so runs, bands and
    all-fill fibers are common."""
    dtype = draw(st.sampled_from(sorted(KINDS, key=lambda d: d.__name__)))
    elements, fills = KINDS[dtype]
    shape = tuple(draw(st.lists(st.integers(0, 6), min_size=1, max_size=3)))
    arr = draw(hnp.arrays(dtype, shape, elements=st.sampled_from(elements)))
    if draw(st.booleans()):
        arr[...] = draw(st.sampled_from(elements))
    formats = tuple(draw(st.sampled_from(OUTER)) for _ in shape[:-1])
    formats += (draw(st.sampled_from(format_names())),)
    return arr, formats, draw(st.sampled_from(fills))


def bits(arr):
    """``arr``'s bytes with every zero given a positive sign."""
    arr = np.ascontiguousarray(arr)
    return np.where(arr == 0, np.zeros((), arr.dtype), arr).tobytes()


def level_slabs(tensor):
    """``(level, nfibers, children)`` per level, innermost first:
    the two passes of ``Tensor.to_numpy``, kept apart."""
    counts = [1]
    for level in tensor.levels[:-1]:
        counts.append(level.child_count(counts[-1]))
    slab = tensor.element.val
    out = []
    for level in reversed(tensor.levels):
        out.append((level, counts[-1], slab))
        slab = level.densify(counts.pop(), slab)
    return out


def stored(children, fill):
    """Per child, whether anything in it differs from ``fill``."""
    return (children != fill).any(axis=tuple(range(1, children.ndim)))


def fibers(level, nfibers):
    return [(p, int(level.pos[p]), int(level.pos[p + 1]))
            for p in range(nfibers)]


def check_dense(level, nfibers, children, fill):
    assert len(children) == nfibers * level.shape


def check_bitmap(level, nfibers, children, fill):
    assert len(children) == nfibers * level.shape
    np.testing.assert_array_equal(level.tbl, stored(children, fill))


def check_sparse(level, nfibers, children, fill):
    assert stored(children, fill).all()
    for _, lo, hi in fibers(level, nfibers):
        assert (np.diff(level.idx[lo:hi]) > 0).all()


def check_band(level, nfibers, children, fill):
    keep = stored(children, fill)
    for _, lo, hi in fibers(level, nfibers):
        assert hi == lo or (keep[lo] and keep[hi - 1])


def check_ragged(level, nfibers, children, fill):
    keep = stored(children, fill)
    for _, lo, hi in fibers(level, nfibers):
        assert hi == lo or keep[hi - 1]


def check_vbl(level, nfibers, children, fill):
    assert stored(children, fill).all()
    starts = level.end - np.diff(level.ofs)
    for _, lo, hi in fibers(level, nfibers):
        # Maximal: a gap of fill between any two blocks of a fiber.
        assert (starts[lo + 1:hi] > level.end[lo:max(hi - 1, lo)]).all()


def check_rle(level, nfibers, children, fill):
    for _, lo, hi in fibers(level, nfibers):
        assert (children[lo + 1:hi] != children[lo:max(hi - 1, lo)]).all()


def check_packbits(level, nfibers, children, fill):
    for _, lo, hi in fibers(level, nfibers):
        left = 0
        literal_before = False
        for g in range(lo, hi):
            width = abs(int(level.idx[g])) - left
            left += width
            values = children[level.vof[g]:level.vof[g + 1]]
            if level.idx[g] > 0:
                assert width >= _MIN_RUN and len(values) == 1
                literal_before = False
                continue
            assert len(values) == width and not literal_before
            literal_before = True
            same = values[1:] == values[:-1]
            for k in range(len(same) - _MIN_RUN + 2):
                assert not same[k:k + _MIN_RUN - 1].all()


CHECKS = {"dense": check_dense, "bitmap": check_bitmap,
          "sparse": check_sparse, "band": check_band,
          "ragged": check_ragged, "vbl": check_vbl, "rle": check_rle,
          "packbits": check_packbits}


def test_every_format_has_a_canonical_form_to_check():
    assert set(CHECKS) == set(format_names())


@settings(max_examples=400)
@given(case=ingest_case())
def test_roundtrip_is_exact_and_arrays_are_canonical(case):
    arr, formats, fill = case
    tensor = from_numpy(arr, formats, fill=fill)

    back = tensor.to_numpy()
    assert back.dtype == arr.dtype
    assert back.shape == arr.shape
    assert bits(back) == bits(arr)
    if set(formats) == {"dense"}:
        assert back.tobytes() == arr.tobytes()

    assert tensor.element.val.dtype == arr.dtype
    for level, nfibers, children in level_slabs(tensor):
        for name in level.ARRAYS:
            array = getattr(level, name)
            assert array.flags.c_contiguous
            assert array.dtype == (bool if name == "tbl" else np.int64)
        CHECKS[level.NAME](level, nfibers, children, fill)


@settings(max_examples=150)
@given(case=ingest_case(), leaf=st.sampled_from(format_names(leaf_only=True)))
def test_a_run_keeps_its_first_elements_bits(case, leaf):
    arr, _, fill = case
    dim = arr.shape[-1]
    tensor = from_numpy(arr, ("dense",) * (arr.ndim - 1) + (leaf,),
                        fill=fill)
    level, val = tensor.levels[-1], tensor.element.val
    rows = arr.reshape(arr.size // max(dim, 1), dim)
    for p, lo, hi in fibers(level, len(rows)):
        left = 0
        for q in range(lo, hi):
            if leaf == "rle":
                first, stop = val[q:q + 1], int(level.right[q])
            else:
                first = val[level.vof[q]:level.vof[q] + 1]
                stop = abs(int(level.idx[q]))
            assert first.tobytes() == rows[p, left:left + 1].tobytes()
            left = stop
