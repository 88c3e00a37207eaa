"""Element level: the leaf of every fiber tree, holding scalar values."""

import numpy as np

from repro.ir.nodes import Load
from repro.util.errors import FormatError


class ElementLevel:
    """Stores the scalar values of a tensor in one flat array.

    ``fill_value`` is the background value the enclosing structured
    levels elide (0 for sparse numeric data, ``False`` for boolean
    masks, any constant for run-length images).
    """

    child = None
    shape = None

    def __init__(self, val, fill_value=0.0):
        self.val = np.ascontiguousarray(val)
        if self.val.ndim != 1:
            raise FormatError("element values must form a flat array")
        self.fill_value = fill_value

    @property
    def fill(self):
        return self.fill_value

    def load(self, ctx, pos):
        """Scalar read ``val[pos]``."""
        return Load(ctx.buffer(self.val, "val"), pos)

    def fiber_count(self):
        return len(self.val)

    def buffers(self):
        return {"val": self.val}

    def __repr__(self):
        return "ElementLevel(%d values, fill=%r)" % (len(self.val),
                                                     self.fill_value)
