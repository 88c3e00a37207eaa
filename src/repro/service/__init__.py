"""The fleet-wide kernel service: compile anywhere, once — for everyone.

The cache hierarchy ``compile_kernel`` reads through grew one tier per
scale of sharing: the in-memory LRU shares within a process, the disk
:class:`~repro.store.disk.KernelStore` shares across processes on one
machine, and this package adds the third tier — a long-lived HTTP
service that shares one store across a fleet.  A warm service means a
brand-new machine (empty local store, cold process) completes entire
workloads with **zero local compiles**: every kernel is fetched as
the stored entry's bytes — its spec, plus the compiled ``.so`` or
python code object sidecar — and imported into the local tiers on the
way in.

Two halves:

:class:`KernelService` (:mod:`repro.service.server`)
    A stdlib ``ThreadingHTTPServer`` in front of a ``KernelStore``:
    ``GET /kernels/<digest>`` serves one entry as it is stored
    (version axes ride in the entry key, so a client can reject stale
    kernels), ``POST /kernels/<digest>`` files a client-pushed entry
    sent the same way — checked by readers that run nothing, so the
    server executes nothing it is sent and needs no C toolchain — and
    ``/healthz`` / ``/stats`` expose liveness and hit/miss/push
    counters in the same schema as the store's ``stats.json``.  ``python -m repro.service --store DIR`` serves
    that store directory (fill one ahead of time with ``python -m
    repro.store warm --store DIR``).

:class:`ServiceClient` (:mod:`repro.service.client`)
    The read-through/write-behind side ``compile_kernel`` calls on a
    local miss.  Timeouts and retries reuse the
    :class:`~repro.util.errors.TransientError` taxonomy
    (:class:`~repro.util.errors.ServiceUnreachableError`); an
    unreachable service triggers a warn-once degrade to the local
    tiers with a cooldown, so a dead service costs one timeout per
    cooldown window — never a failed compile, never different bits.

Configuration follows the package precedence rule (kwarg >
``fl.configure`` > ``FL_*`` env > default): ``compile_kernel(...,
remote="http://host:port")`` per call, ``fl.configure(service_url=
...)`` per process, ``FL_SERVICE_URL`` per environment —
``FL_SERVICE_TIMEOUT_S`` and ``FL_SERVICE_RETRIES`` shape the client.
"""

from repro.service.client import (
    DOWN_COOLDOWN_S,
    ServiceClient,
    active_client,
    reset_service_stats,
    service_stats,
)
from repro.service.server import KernelService

__all__ = [
    "DOWN_COOLDOWN_S", "KernelService", "ServiceClient",
    "active_client", "reset_service_stats", "service_stats",
]
