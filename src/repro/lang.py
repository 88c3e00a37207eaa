"""The user-facing language surface, re-exported in one namespace.

    import repro.lang as fl

    i = fl.indices("i")
    C = fl.Scalar(name="C")
    A = fl.from_numpy(a, ("sparse",), name="A")
    B = fl.from_numpy(b, ("band",), name="B")
    fl.execute(fl.forall(i, fl.increment(C[()], A[i] * B[i])))
    print(C.value)
"""

from repro.cin.builders import (
    access,
    call,
    coalesce,
    eq,
    follow,
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
    locate,
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
from repro.chaos import chaos, fault_points
from repro.compiler.kernel import (
    CompiledKernel,
    Kernel,
    KernelCache,
    compile_kernel,
    execute,
    kernel_cache,
)
from repro.exec import (
    EXECUTORS,
    BatchItem,
    BatchResult,
    KernelPool,
    ShmArena,
    WorkerPool,
    default_pool,
    run_batch,
)
from repro.ir import MISSING, ops
from repro.store import KernelStore, active_store, load_pack
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


def __getattr__(name):
    # Lazy: repro.fuzz builds its programs through this very module
    # (the generator composes the public eDSL), so importing it here
    # eagerly would be circular whichever module loads first.
    if name in ("fuzz_one", "run_fuzz"):
        from repro.fuzz import fuzz_one, run_fuzz

        return {"fuzz_one": fuzz_one, "run_fuzz": run_fuzz}[name]
    # Same story for the autotuner: it compiles candidates through
    # compile_kernel, which this module re-exports.
    if name in ("tune_program", "lookup_schedule", "apply_schedule"):
        from repro.tune import (
            apply_schedule,
            lookup_schedule,
            tune_program,
        )

        return {"tune_program": tune_program,
                "lookup_schedule": lookup_schedule,
                "apply_schedule": apply_schedule}[name]
    # And for the kernel service: most sessions never talk to one, so
    # the HTTP client/server stack only loads when a name is touched.
    if name in ("KernelService", "ServiceClient", "active_client",
                "service_stats", "reset_service_stats"):
        from repro.service import (
            KernelService,
            ServiceClient,
            active_client,
            reset_service_stats,
            service_stats,
        )

        return {"KernelService": KernelService,
                "ServiceClient": ServiceClient,
                "active_client": active_client,
                "service_stats": service_stats,
                "reset_service_stats": reset_service_stats}[name]
    raise AttributeError("module %r has no attribute %r"
                         % (__name__, name))


__all__ = [
    "access", "call", "coalesce", "eq", "follow", "forall", "foralls",
    "gallop", "ge", "gt", "increment", "indices", "land", "le", "literal",
    "locate", "lor", "lt", "maximum", "minimum", "multi", "ne", "offset",
    "pass_", "permit", "reduce_into", "sieve", "store", "walk", "where",
    "window", "CompiledKernel", "Kernel", "KernelCache",
    "compile_kernel", "execute", "kernel_cache", "MISSING", "ops",
    "BatchItem", "BatchResult", "EXECUTORS", "KernelPool", "ShmArena",
    "WorkerPool", "default_pool", "run_batch",
    "KernelStore", "active_store", "load_pack",
    "configure", "runtime_config",
    "KernelService", "ServiceClient", "active_client",
    "reset_service_stats", "service_stats",
    "chaos", "fault_points",
    "fuzz_one", "run_fuzz",
    "apply_schedule", "lookup_schedule", "tune_program",
    "RunOutput", "SparseOutput",
    "Scalar", "Tensor", "convert", "dropfills", "from_numpy",
    "share_dataset", "share_tensor", "symmetric_from_numpy",
    "triangular_from_numpy", "zeros",
]
