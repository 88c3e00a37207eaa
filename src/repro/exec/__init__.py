"""Batched parallel execution of compiled kernels.

``run_batch`` maps one compiled program over many independent
datasets under a serial, thread-pool, or process-pool executor;
``KernelPool`` is the reusable engine underneath.  Process workers
receive serialized kernel *specs*
(:meth:`repro.compiler.kernel.CompiledKernel.to_spec`), never live
function objects.  See :mod:`repro.exec.batch` for the semantics.
"""

from repro.exec.batch import (
    EXECUTORS,
    BatchItem,
    BatchResult,
    KernelPool,
    run_batch,
)
from repro.exec.pool import WorkerPool, default_pool
from repro.exec.shm import ShmArena

__all__ = [
    "EXECUTORS",
    "BatchItem",
    "BatchResult",
    "KernelPool",
    "ShmArena",
    "WorkerPool",
    "default_pool",
    "run_batch",
]
