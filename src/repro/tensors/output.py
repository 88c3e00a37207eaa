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

The builder is handed to the kernel as a parameter; emitted code calls
``append_run(flat_start, flat_stop, value)`` with *flattened*
coordinates (row-major), and :meth:`RunOutput.finalize` splits the run
stream back into per-fiber RLE arrays (merging adjacent equal runs).
"""

import numpy as np

from repro.formats.dense import DenseLevel
from repro.formats.element import ElementLevel
from repro.formats.rle import RunLengthLevel
from repro.formats.sparse_list import SparseListLevel
from repro.tensors.tensor import Tensor, _normalize_fill
from repro.util.errors import FormatError, ReproError


class RunBuilder:
    """Mutable run stream targeted by emitted kernels."""

    def __init__(self, total, fill):
        self.total = total
        self.fill = fill
        self.ends = []
        self.values = []
        self._cursor = 0

    def reset(self):
        self.ends = []
        self.values = []
        self._cursor = 0

    def append_run(self, start, stop, value):
        """Record ``value`` over flat coordinates ``[start, stop)``.

        Appends must arrive in coordinate order; gaps are filled with
        the fill value; adjacent equal values merge.
        """
        if stop <= start:
            return
        if start < self._cursor:
            raise ReproError(
                "run appended out of order: [%d, %d) after cursor %d"
                % (start, stop, self._cursor))
        if start > self._cursor:
            self._push(start, self.fill)
        self._push(stop, value)

    def _push(self, end, value):
        if self.values and self.values[-1] == value:
            self.ends[-1] = end
        else:
            self.ends.append(end)
            self.values.append(value)
        self._cursor = end

    def close(self):
        if self._cursor < self.total:
            self._push(self.total, self.fill)


class _AppendOutput:
    """What the append-style outputs share: the eDSL surface, the
    kernel binding, and the dense levels wrapped around the assembled
    innermost one.

    A subclass names its builder (``BUILDER``), the level class it
    assembles (``LEVEL``), its signature tag and default name, and
    implements :meth:`_split`.
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
        total = 1
        for dim in self.shape:
            total *= dim
        self.builder = self.BUILDER(total, fill)
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
        """The builder is the only object kernels bind for these outputs."""
        return {"builder": self.builder}

    def format_signature(self):
        return self._signature

    def finalize(self):
        """Split the flat stream into per-row arrays of ``LEVEL``."""
        inner = self.shape[-1]
        rows = self.builder.total // max(inner, 1)
        arrays, values = self._split(inner, rows)
        element = ElementLevel(np.array(values, dtype=self.dtype)
                               if values else np.zeros(0, dtype=self.dtype),
                               fill_value=self.fill)
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

    BUILDER = RunBuilder
    LEVEL = RunLengthLevel
    TAG = "run_output"
    DEFAULT_NAME = "R"

    def _split(self, inner, rows):
        """The flat run stream as per-row RLE arrays."""
        self.builder.close()
        pos = [0]
        right = []
        values = []
        ends = self.builder.ends
        vals = self.builder.values
        q = 0
        for row in range(rows):
            row_end = (row + 1) * inner
            while q < len(ends) and ends[q] <= row_end:
                right.append(ends[q] - row * inner)
                values.append(vals[q])
                q += 1
            if not right or pos[-1] == len(right) or right[-1] != inner:
                # A run crosses the row boundary: split it.
                right.append(inner)
                values.append(vals[q] if q < len(ends) else self.fill)
            pos.append(len(right))
        return {"pos": pos, "right": right}, values

    def run_count(self):
        """Number of stored runs (work measure for RLE outputs)."""
        self.builder.close()
        return len(self.builder.ends)


class SparseBuilder:
    """Mutable coordinate stream for sparse outputs."""

    def __init__(self, total, fill):
        self.total = total
        self.fill = fill
        self.coords = []
        self.values = []

    def reset(self):
        self.coords = []
        self.values = []

    def append(self, flat, value):
        """Record a non-fill value at flat coordinate ``flat``.

        Appends must arrive in strictly increasing coordinate order
        (overwrite semantics make repeats ambiguous, so they are
        rejected rather than silently merged).
        """
        if self.coords and flat <= self.coords[-1]:
            raise ReproError(
                "sparse output coordinate %d appended out of order"
                % (flat,))
        self.coords.append(flat)
        self.values.append(value)


class SparseOutput(_AppendOutput):
    """An output tensor assembled as per-fiber sorted coordinate lists.

    The compiler guards every store with a fill check, so only non-fill
    results are appended — the classic sparse-result assembly.  After
    the kernel runs, :meth:`to_tensor` yields a Dense/.../SparseList
    tensor.
    """

    BUILDER = SparseBuilder
    LEVEL = SparseListLevel
    TAG = "sparse_output"
    DEFAULT_NAME = "S"

    def _split(self, inner, rows):
        """The flat coordinate stream as per-row lists."""
        pos = [0]
        idx = []
        values = []
        q = 0
        coords = self.builder.coords
        vals = self.builder.values
        for row in range(rows):
            row_end = (row + 1) * inner
            while q < len(coords) and coords[q] < row_end:
                idx.append(coords[q] - row * inner)
                values.append(vals[q])
                q += 1
            pos.append(len(idx))
        return {"pos": pos, "idx": idx}, values

    def nnz(self):
        """Number of stored (non-fill) entries."""
        return len(self.builder.coords)
