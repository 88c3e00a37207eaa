"""Structured output assembly.

Dense and scalar outputs are written in place through the locate path.
This module adds *append-style* outputs, where the kernel emits runs of
equal values instead of storing every element:

:class:`RunOutput`
    a run-length-encoded result (the paper's Figure 10 writes blended
    images as RLE).  When the compiler proves a whole region is
    assigned one constant (the run pass reduced every input to a
    scalar), it appends a single run covering the region — O(runs)
    work instead of O(pixels).

An append output owns three ndarrays, all ordinary kernel parameters:
``coords`` (``int64``; run ends or coordinates, *flattened* row-major),
``vals`` (the output dtype) and ``state`` (``int64``: entry count,
cursor — one past the last coordinate covered — and a sticky
out-of-order flag).  The streams are sized by the shape product, which
no in-order stream exceeds, and allocated untouched.  Emitted code
stores entries in coordinate order, filling gaps between runs and
flagging (not storing) an append behind the cursor;
:meth:`_AppendOutput.finalize` raises on the flag, merges adjacent equal
runs, and splits the stream back into per-fiber arrays.
"""

import math

import numpy as np

from repro.formats.dense import DenseLevel
from repro.formats.element import ElementLevel
from repro.formats.rle import RunLengthLevel, run_starts
from repro.formats.sparse_list import SparseListLevel
from repro.tensors.tensor import Tensor, _normalize_fill
from repro.util.errors import FormatError, ReproError


class _AppendOutput:
    """What the append-style outputs share: the eDSL surface, the
    three kernel arrays, and the dense levels wrapped around the
    assembled innermost one.

    A subclass names the level class it assembles (``LEVEL``), its
    signature tag, default name and what one stream entry is
    (``NOUN``), and implements :meth:`_split`.
    """

    def __init__(self, shape, fill=0.0, dtype=np.float64, name=None):
        if isinstance(shape, int):
            shape = (shape,)
        self.shape = tuple(int(s) for s in shape)
        if not self.shape:
            raise FormatError("%s needs at least one mode"
                              % type(self).__name__)
        self.fill = fill
        self.dtype = np.dtype(dtype)
        self.name = name or self.DEFAULT_NAME
        self.total = math.prod(self.shape)
        self.coords = np.empty(self.total, dtype=np.int64)
        self.vals = np.empty(self.total, dtype=self.dtype)
        self.state = np.zeros(3, dtype=np.int64)
        # Shape, dtype and fill are fixed here: one tuple for life.
        self._signature = (self.TAG, self.shape, str(self.dtype),
                           _normalize_fill(fill))

    @property
    def ndim(self):
        return len(self.shape)

    def __getitem__(self, idxs):
        from repro.cin.builders import access

        if not isinstance(idxs, tuple):
            idxs = (idxs,)
        if len(idxs) != self.ndim:
            raise FormatError("%s has %d modes" % (self.name, self.ndim))
        return access(self, *idxs)

    def kernel_buffers(self):
        """The coordinate stream, the value stream and the state
        vector (count, cursor, out-of-order flag): :meth:`kernel_pins`'s
        buffers, by role."""
        return dict(zip(("coords", "vals", "state"), self.kernel_pins()[1:]))

    def format_signature(self):
        return self._signature

    def kernel_pins(self):
        """``(format_signature(), *kernel_buffers().values())`` without
        the dict (see :meth:`repro.tensors.tensor.Tensor.kernel_pins`)."""
        return self.format_signature(), self.coords, self.vals, self.state

    def _stream(self):
        """The entries the last run stored, as ``(coords, vals)``."""
        count, _, flagged = self.state
        if flagged:
            raise ReproError("%s appended out of order" % self.NOUN)
        return self.coords[:count], self.vals[:count]

    def finalize(self):
        """Split the flat stream into per-row arrays of ``LEVEL``."""
        inner = self.shape[-1]
        rows = math.prod(self.shape[:-1])
        arrays, values = self._split(inner, inner * np.arange(rows + 1))
        element = ElementLevel(values, fill_value=self.fill)
        child = self.LEVEL(inner, element, **arrays)
        levels = [child]
        for dim in reversed(self.shape[:-1]):
            child = DenseLevel(dim, child)
            levels.insert(0, child)
        return Tensor(levels, element, name=self.name)

    def to_tensor(self):
        return self.finalize()

    def to_numpy(self):
        return self.finalize().to_numpy()


class RunOutput(_AppendOutput):
    """An output tensor assembled as run-length-encoded fibers.

    Behaves enough like a Tensor for the eDSL (``__getitem__``,
    ``shape``, ``fill``); after the kernel runs, :meth:`to_tensor`
    yields a real Dense/RunLength tensor and :meth:`to_numpy` a dense
    array.
    """

    LEVEL = RunLengthLevel
    TAG = "run_output"
    DEFAULT_NAME = "R"
    NOUN = "run"

    def _runs(self):
        """The stream closed with a trailing fill run and with
        adjacent equal runs merged, as ``(ends, values)``."""
        ends, values = self._stream()
        if self.state[1] < self.total:
            ends = np.append(ends, self.total)
            values = np.append(values, self.vals.dtype.type(self.fill))
        first = run_starts(values[None, :])[0]
        # A merged run ends where the next one starts; the last ends
        # the stream (``first[0]`` is True, and rolls round to it).
        return ends[np.roll(first, -1)], values[first]

    def _split(self, inner, bounds):
        """The flat run stream as per-row RLE arrays: a run crossing a
        row boundary is cut there."""
        ends, values = self._runs()
        cuts = ends
        if self.total:
            # The sorted union, by hand: np.union1d imports numpy.ma
            # (a megabyte) on first use.
            cuts = np.sort(np.concatenate((ends, bounds[1:])))
            cuts = cuts[run_starts(cuts[None, :])[0]]
        pos = np.searchsorted(cuts, bounds, side="right")
        return ({"pos": pos, "right": (cuts - 1) % max(inner, 1) + 1},
                values[np.searchsorted(ends, cuts)])

    def run_count(self):
        """Number of stored runs (work measure for RLE outputs)."""
        return len(self._runs()[0])


class SparseOutput(_AppendOutput):
    """An output tensor assembled as per-fiber sorted coordinate lists.

    The compiler guards every store with a fill check, so only non-fill
    results are appended — the classic sparse-result assembly, in
    strictly increasing coordinate order (overwrite semantics make
    repeats ambiguous, so they are flagged rather than silently
    merged).  After the kernel runs, :meth:`to_tensor` yields a
    Dense/.../SparseList tensor.
    """

    LEVEL = SparseListLevel
    TAG = "sparse_output"
    DEFAULT_NAME = "S"
    NOUN = "sparse output coordinate"

    def _split(self, inner, bounds):
        """The flat coordinate stream as per-row lists."""
        coords, values = self._stream()
        return ({"pos": np.searchsorted(coords, bounds),
                 "idx": coords % max(inner, 1)}, values.copy())

    def nnz(self):
        """Number of stored (non-fill) entries."""
        return len(self._stream()[0])
