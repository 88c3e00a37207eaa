"""The user-facing language surface, re-exported in one namespace.

    import repro.lang as fl

    i = fl.indices("i")
    C = fl.Scalar(name="C")
    A = fl.from_numpy(a, ("sparse",), name="A")
    B = fl.from_numpy(b, ("band",), name="B")
    fl.execute(fl.forall(i, fl.increment(C[()], A[i] * B[i])))
    print(C.value)

Importing it loads the language and the compile-and-run path only.
The batch engine, the kernel store, the kernel service and the fuzzer
resolve on first use, through the ``_LAZY`` table.
The chaos engine is a test tool: import it from :mod:`repro.chaos`.
"""

import importlib

from repro.cin.builders import (
    access,
    call,
    coalesce,
    eq,
    forall,
    foralls,
    gallop,
    ge,
    gt,
    increment,
    indices,
    land,
    le,
    literal,
    lor,
    lt,
    maximum,
    minimum,
    multi,
    ne,
    offset,
    pass_,
    permit,
    reduce_into,
    sieve,
    store,
    walk,
    where,
    window,
)
from repro.compiler.kernel import (
    CompiledKernel,
    Kernel,
    KernelCache,
    compile_kernel,
    execute,
    kernel_cache,
)
from repro.ir import MISSING, ops
from repro.tensors.output import RunOutput, SparseOutput
from repro.util.config import configure, runtime_config
from repro.tensors.share import share_dataset, share_tensor
from repro.tensors import (
    Scalar,
    convert,
    dropfills,
    Tensor,
    from_numpy,
    symmetric_from_numpy,
    triangular_from_numpy,
    zeros,
)

#: Each deferred public name and the module that defines it.  Most
#: sessions never batch, persist, serve or fuzz; and the fuzzer builds
#: programs through this very module, so an eager import of it would
#: be circular.
_LAZY = {
    **dict.fromkeys(("BatchItem", "BatchResult", "EXECUTORS", "KernelPool",
                     "ShmArena", "WorkerPool", "default_pool", "run_batch"),
                    "repro.exec"),
    **dict.fromkeys(("KernelStore", "active_store"), "repro.store"),
    **dict.fromkeys(("ServiceClient", "active_client",
                     "reset_service_stats", "service_stats"),
                    "repro.service.client"),
    "KernelService": "repro.service.server",
    **dict.fromkeys(("fuzz_one", "run_fuzz"), "repro.fuzz"),
}


def __getattr__(name):
    # PEP 562: called only for a name not yet in the module globals;
    # the value is stored there, so a second access is a plain lookup.
    if name not in _LAZY:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    value = getattr(importlib.import_module(_LAZY[name]), name)
    globals()[name] = value
    return value


__all__ = [
    "access", "call", "coalesce", "eq", "forall", "foralls", "gallop",
    "ge", "gt", "increment", "indices", "land", "le", "literal", "lor",
    "lt", "maximum", "minimum", "multi", "ne", "offset", "pass_", "permit",
    "reduce_into", "sieve", "store", "walk", "where", "window",
    "CompiledKernel", "Kernel", "KernelCache",
    "compile_kernel", "execute", "kernel_cache", "MISSING", "ops",
    "BatchItem", "BatchResult", "EXECUTORS", "KernelPool", "ShmArena",
    "WorkerPool", "default_pool", "run_batch",
    "KernelStore", "active_store",
    "configure", "runtime_config",
    "KernelService", "ServiceClient", "active_client",
    "reset_service_stats", "service_stats",
    "fuzz_one", "run_fuzz",
    "RunOutput", "SparseOutput",
    "Scalar", "Tensor", "convert", "dropfills", "from_numpy",
    "share_dataset", "share_tensor", "symmetric_from_numpy",
    "triangular_from_numpy", "zeros",
]
