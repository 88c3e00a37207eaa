"""Level formats: the storage half of the Looplet story (Section 4)."""

from repro.formats.bitmap import BitmapLevel
from repro.formats.dense import DenseLevel
from repro.formats.element import ElementLevel
from repro.formats.level import (
    FiberSlice,
    FillFiber,
    Level,
    child_payload,
    fill_payload,
)
from repro.formats.packbits import PackBitsLevel
from repro.formats.ragged import RaggedLevel
from repro.formats.rle import RunLengthLevel
from repro.formats.sparse_band import SparseBandLevel
from repro.formats.sparse_list import SparseListLevel
from repro.formats.vbl import SparseVBLLevel
from repro.formats.virtual import SymmetricLevel, TriangularLevel

#: Every stored level format by its ``from_numpy``/``convert`` name:
#: the one place a format name becomes a class.  Order is the fuzzer's
#: grammar order (any-mode formats, then the leaf-only ones), so a new
#: format is appended to its group — reordering reshuffles every
#: seeded case.
FORMATS = {level.NAME: level for level in (
    DenseLevel, SparseListLevel, SparseBandLevel, SparseVBLLevel,
    BitmapLevel, RaggedLevel, RunLengthLevel, PackBitsLevel)}
#: TACO's name for the sparse list: accepted, never enumerated.
FORMATS["sparse_list"] = SparseListLevel


def format_names(leaf_only=None):
    """Registered names in registry order, aliases left out:
    all of them, or only those whose ``LEAF_ONLY`` is ``leaf_only``."""
    return tuple(name for name, level in FORMATS.items()
                 if name == level.NAME
                 and leaf_only in (None, level.LEAF_ONLY))


__all__ = [
    "FORMATS",
    "format_names",
    "BitmapLevel",
    "DenseLevel",
    "ElementLevel",
    "FiberSlice",
    "FillFiber",
    "Level",
    "child_payload",
    "fill_payload",
    "PackBitsLevel",
    "RaggedLevel",
    "RunLengthLevel",
    "SparseBandLevel",
    "SparseListLevel",
    "SparseVBLLevel",
    "SymmetricLevel",
    "TriangularLevel",
]
