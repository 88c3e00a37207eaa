"""Tensor format conversion.

``convert(tensor, formats)`` re-formats a tensor.  When the target's
innermost mode is dense, or a format with an append-style output
(sparse, rle), the conversion runs as a *compiled copy
kernel* — the source is unfurled through its looplets and the result
assembled structurally (one append per run/nonzero), so converting an
RLE image to sparse never densifies it.  Every other target assembles
from the densified array on the host, which is exact but O(size).
"""

import repro.cin.builders as fl
from repro.formats import FORMATS
from repro.ir.nodes import Var
from repro.tensors.construct import from_numpy, zeros
from repro.tensors.output import RunOutput, SparseOutput
from repro.tensors.tensor import Tensor
from repro.util.errors import FormatError

#: The append-style output that assembles each level class.
_APPEND_OUTPUTS = {out.LEVEL: out for out in (RunOutput, SparseOutput)}


def convert(tensor, formats, name=None):
    """Return a new tensor holding ``tensor``'s values in ``formats``."""
    if isinstance(formats, str):
        formats = (formats,) * tensor.ndim
    formats = tuple(formats)
    if len(formats) != tensor.ndim:
        raise FormatError("need one format per mode")
    if tensor.ndim == 0:
        raise FormatError("scalars have no formats to convert")
    name = name or getattr(tensor, "name", "T")

    out_cls = _APPEND_OUTPUTS.get(FORMATS.get(formats[-1]))
    outer_dense = all(fmt == "dense" for fmt in formats[:-1])
    if (out_cls or formats[-1] == "dense") and outer_dense:
        return _convert_by_kernel(tensor, out_cls, name)
    return from_numpy(tensor.to_numpy(), formats, fill=tensor.fill,
                      name=name)


def _convert_by_kernel(tensor, out_cls, name):
    # Imported here: the compiler depends on repro.tensors, so a
    # module-level import would be circular.
    from repro.compiler.kernel import compile_kernel

    shape = tensor.shape
    fill = tensor.fill
    if out_cls is None:
        out = zeros(shape, fill=fill, dtype=tensor.dtype, name=name)
    else:
        out = out_cls(shape, fill=fill, dtype=tensor.dtype, name=name)

    idxs = [Var("i%d" % mode) for mode in range(tensor.ndim)]
    body = fl.store(out[tuple(idxs)], fl.access(tensor, *idxs))
    program = fl.foralls(idxs, body)
    compile_kernel(program).run()

    if isinstance(out, Tensor):
        return out
    return out.to_tensor()


def dropfills(tensor, name=None):
    """Re-compress a tensor: dense modes stay dense, the innermost mode
    becomes a sparse list holding only non-fill values."""
    formats = ("dense",) * (tensor.ndim - 1) + ("sparse",)
    return convert(tensor, formats, name=name)
