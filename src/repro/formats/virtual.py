"""Packed triangular and symmetric matrix formats (Figures 3a and 3c).

Both store only the lower triangle, row-major packed: row ``i`` holds
``i + 1`` values starting at offset ``i * (i + 1) // 2``.  The
triangular row unfurls as Lookup-then-Run(0); the symmetric row covers
the upper part by reading the *transposed* packed location
``val[j * (j + 1) // 2 + i]`` — turning symmetry into an access
protocol rather than a storage duplication.

Both are inner levels whose fiber position is the row number, so they
compose under a DenseLevel exactly like any other inner format.
"""

import numpy as np

from repro.formats.level import FiberSlice, Level
from repro.ir import build
from repro.ir.nodes import Literal
from repro.looplets import Lookup, Phase, Pipeline, Run
from repro.util.errors import FormatError


def _packed_offset(i):
    """IR expression for ``i * (i + 1) // 2``."""
    return build.call("floordiv", build.times(i, build.plus(i, 1)),
                      Literal(2))


class TriangularLevel(Level):
    """Lower-triangular packed rows: values at ``j <= i``, fill above."""

    def __init__(self, shape, child):
        super().__init__(shape, child)
        expected = shape * (shape + 1) // 2
        if child.fiber_count() != expected:
            raise FormatError(
                "packed triangular storage for n=%d needs %d values, "
                "got %d" % (shape, expected, child.fiber_count()))

    def unfurl(self, ctx, pos, proto="walk"):
        self.resolve_protocol(proto)
        offset = _packed_offset(pos)

        def row(j):
            return FiberSlice(self.child, build.plus(offset, j))

        return Pipeline([
            Phase(Lookup(row), stride=build.plus(pos, 1)),
            Phase(Run(Literal(self.fill))),
        ])

    def fiber_count(self):
        return self.shape

    def densify(self, nfibers, children):
        out = np.full((self.shape, self.shape), self.fill,
                      dtype=children.dtype)
        out[np.tril_indices(self.shape)] = children
        return out

    def __repr__(self):
        return "TriangularLevel(%d)" % self.shape


class SymmetricLevel(Level):
    """Symmetric matrix stored as its packed lower triangle."""

    def __init__(self, shape, child):
        super().__init__(shape, child)
        expected = shape * (shape + 1) // 2
        if child.fiber_count() != expected:
            raise FormatError(
                "packed symmetric storage for n=%d needs %d values, "
                "got %d" % (shape, expected, child.fiber_count()))

    def unfurl(self, ctx, pos, proto="walk"):
        self.resolve_protocol(proto)
        offset = _packed_offset(pos)

        def lower(j):
            return FiberSlice(self.child, build.plus(offset, j))

        def upper(j):
            return FiberSlice(self.child,
                              build.plus(_packed_offset(j), pos))

        return Pipeline([
            Phase(Lookup(lower), stride=build.plus(pos, 1)),
            Phase(Lookup(upper)),
        ])

    def fiber_count(self):
        return self.shape

    def densify(self, nfibers, children):
        out = np.empty((self.shape, self.shape), dtype=children.dtype)
        rows, cols = np.tril_indices(self.shape)
        out[rows, cols] = out[cols, rows] = children
        return out

    def __repr__(self):
        return "SymmetricLevel(%d)" % self.shape
