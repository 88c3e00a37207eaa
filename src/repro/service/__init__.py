"""The fleet-wide kernel service: compile anywhere, once — for everyone.

The third cache tier: the in-memory LRU shares kernels within a
process, the disk :class:`~repro.store.disk.KernelStore` across the
processes of one machine, and a long-lived HTTP service one store
across a fleet, so a brand-new machine completes whole workloads with
**zero local compiles** — every kernel arrives as the stored entry's
bytes (its spec, plus the ``.so`` or code object sidecar).

Two halves, and the package re-exports neither: a process imports the
half it runs.

:mod:`repro.service.server` (:class:`KernelService`)
    A stdlib ``ThreadingHTTPServer`` in front of a ``KernelStore``
    that files and serves entries as bytes and executes nothing it is
    sent.  ``python -m repro.service --store DIR`` loads the server
    and the store alone — no numpy, no compiler, no C toolchain.

:mod:`repro.service.client` (:class:`ServiceClient`)
    The read-through/write-behind side ``compile_kernel`` calls on a
    local miss: timeouts, retries and a warn-once degrade to the
    local tiers, so a dead service never fails a compile.  Importing
    it loads no HTTP server.

Configuration follows the package precedence rule (kwarg >
``fl.configure`` > ``FL_*`` env > default): ``compile_kernel(...,
remote="http://host:port")`` per call, ``fl.configure(service_url=
...)`` per process, ``FL_SERVICE_URL`` per environment —
``FL_SERVICE_TIMEOUT_S`` and ``FL_SERVICE_RETRIES`` shape the client.
"""
