"""Worker side of the batch engine.

A worker process never receives a compiled function object — function
objects do not pickle, and shipping code objects across process
boundaries would tie the pool to one interpreter state.  Instead the
pool ships each kernel's *spec* (see
:meth:`repro.compiler.kernel.CompiledKernel.to_spec`) **once per
worker**: the first chunk of a kernel carries the spec, every later
chunk carries only its digest, and the worker resolves the digest
against its per-process spec cache.  The worker resolves the spec's
:class:`~repro.compiler.key.KernelKey` through the *same*
:func:`~repro.compiler.tiers.read_through` the driver's
``compile_kernel`` uses — only ``build`` differs: re-``exec`` the
shipped spec instead of lowering a program — and rebinds the artifact
to each incoming dataset's shared-memory views (:mod:`repro.exec.shm`
— no tensor bytes are unpickled).

When a persistent kernel store is configured (``FL_KERNEL_STORE`` in
the environment workers inherit, or ``fl.configure(store_path=...)``
under the fork start method), the worker warm-starts from disk before
rebuilding from the shipped spec: a store hit loads the persisted
entry, a miss rebuilds from the spec and writes the entry behind — so
the *next* fleet of workers, in any future process, starts warm.

:func:`worker_main` is the long-lived loop :class:`repro.exec.pool.WorkerPool`
spawns; :func:`run_chunk` is the per-chunk engine, kept free of
process state so the hygiene tests can drive it in-process.
Everything here must stay importable at module top level so worker
processes can start under any start method (fork, spawn, forkserver).
"""

import os
import pickle
import time

import numpy as np

from repro.compiler.kernel import KernelCache
from repro.compiler.key import KernelKey
from repro.compiler.tiers import read_through, rebuild
from repro.util.errors import SpecError

#: The worker's memory tier: rebuilt artifacts by kernel key.  One
#: worker re-``exec``\\ s each distinct kernel at most once, no matter
#: how many datasets of that kernel it is handed.  Private to the
#: worker role — not the process-wide ``KERNEL_CACHE`` a forked worker
#: inherits warm from its parent — so fork and spawn count rebuilds
#: alike; bounded so a long fuzz campaign against a persistent pool
#: cannot grow a worker without limit.
_MEMO = KernelCache(maxsize=256)

#: Per-process spec cache, keyed by the digest the pool ships with
#: every chunk.  Filled the first time a kernel reaches this worker;
#: later chunks of the same kernel carry the digest only.
_SPECS = {}


def artifact_from_spec(spec):
    """The rebuilt artifact for ``spec``, memoized per process.

    Returns ``(artifact, cached, store_hit, remote_hit)``: ``cached``
    says the re-``exec`` was skipped entirely (the per-worker memo
    hit); ``store_hit`` says the rebuild came off the persistent disk
    store rather than the shipped spec; ``remote_hit`` says it came
    off the fleet kernel service (consulted after a disk miss, when a
    service URL is configured — the worker inherits ``FL_SERVICE_URL``
    like every ``FL_*`` knob).  A miss writes the spec behind into the
    local store so future worker fleets warm-start; the *parent* owns
    the remote push, so a thousand workers never stampede the service
    with the same entry.
    """
    def build():
        artifact = rebuild(spec)
        if artifact is None:
            raise SpecError(
                "kernel %r does not rebuild from its shipped spec"
                % spec.get("name"))
        return artifact

    # The worker already holds the spec (it shipped with the chunk),
    # so the remote tier is only worth a round-trip when it can
    # deliver what the spec cannot: the prebuilt ``.so`` sidecar,
    # sparing this worker a local C-toolchain compile.
    artifact, tier = read_through(
        KernelKey.of_spec(spec), build, memory=_MEMO,
        remote=None if spec.get("c_source") else False, push=False)
    return artifact, tier == "memory", tier == "disk", tier == "remote"


def snapshot_tensor(tensor):
    """A detached numpy copy of one output tensor's current value.

    Densifies through ``to_numpy`` when the tensor supports it (real
    tensors and append outputs), falling back to the scalar ``value``
    protocol.  Snapshots — never live buffers — are what
    :class:`repro.exec.batch.BatchResult` hands back, so results
    compare bit-identically across executors.
    """
    to_numpy = getattr(tensor, "to_numpy", None)
    if to_numpy is not None:
        return np.array(to_numpy(), copy=True)
    return np.asarray(tensor.value)


def _pickle_exception(exc):
    """The exception as pipe-safe bytes, degrading to a RuntimeError
    carrying the original type name when the instance won't pickle."""
    try:
        return pickle.dumps(exc, pickle.HIGHEST_PROTOCOL)
    except Exception:
        fallback = RuntimeError(
            "%s: %s" % (type(exc).__name__, exc))
        return pickle.dumps(fallback, pickle.HIGHEST_PROTOCOL)


def run_chunk(chunk, cache, mark=None):
    """Run one chunk of datasets against shared-memory payloads.

    ``chunk`` carries the kernel digest (plus the spec itself on the
    first chunk a worker sees), the staging segment name, and one
    transport payload per dataset (:func:`repro.exec.shm.describe_args`).
    ``mark`` publishes the in-flight dataset index (the pool's crash
    attribution); ``cache`` is the worker's
    :class:`repro.exec.shm.SegmentCache`.

    Returns per-dataset results (ops, seconds, rebuild/store flags)
    plus at most one error record; execution stops at the first
    failing dataset.  Transient
    segment attachments are released on normal completion and caught
    errors — but deliberately NOT while a ``SystemExit``/signal is
    tearing the process down, so the in-flight index stays published
    in the progress array for the pool's crash attribution.
    """
    from repro import chaos as _chaos
    from repro.exec import shm as _shm

    digest = chunk["digest"]
    if chunk.get("spec") is not None:
        _SPECS[digest] = chunk["spec"]
    spec = _SPECS.get(digest)
    worker = "pid-%d" % os.getpid()
    results = []
    error = None
    args = None
    index = None
    try:
        if spec is None:
            raise RuntimeError(
                "worker %s has no spec for digest %s (pool protocol "
                "error: specs ship with a kernel's first chunk)"
                % (worker, digest))
        resolved = None
        for payload in chunk["datasets"]:
            index = payload["index"]
            if mark is not None:
                mark(index)
            try:
                if _chaos.active():
                    _chaos.inject("worker_crash", index=index)
                    _chaos.inject("worker_stall", index=index)
                    _chaos.inject("slow_chunk", index=index)
                start = time.perf_counter()
                # One tier walk per chunk: its first dataset pays for
                # (and reports) the rebuild, the rest reuse it.
                artifact, cached, store_hit, remote_hit = (
                    resolved or artifact_from_spec(spec))
                resolved = (artifact, True, False, False)
                args = _shm.build_args(payload, chunk.get("staging"),
                                       cache)
                result = artifact.fn(*args)
                seconds = time.perf_counter() - start
                results.append({
                    "index": index,
                    "ops": (int(result) if artifact.instrument
                            else None),
                    "worker": worker,
                    "seconds": seconds,
                    "spec_rebuild": not cached,
                    "store_hit": store_hit,
                    "remote_hit": remote_hit,
                })
            finally:
                args = None
    except Exception as exc:
        error = {"index": index, "exc": _pickle_exception(exc)}
    # Not a finally: a SystemExit propagating through here must leave
    # the in-flight mark standing so the parent can attribute the
    # death to the right dataset.
    if mark is not None:
        mark(-1)
    cache.release_transient()
    if error is not None and error["index"] is None:
        first = chunk["datasets"][0]["index"] if chunk["datasets"] else 0
        error["index"] = first
    return {"worker": worker, "results": results, "error": error}


def worker_main(conn, progress_name, slot, nslots):
    """The long-lived loop of one :class:`repro.exec.pool.WorkerPool`
    worker: attach the pool's progress array, then serve chunk
    messages off the duplex pipe until shutdown or EOF.

    Messages travel as explicit pickle bytes (``send_bytes``) so the
    parent serializes exactly once and can meter the pickled payload
    size — the instrumentation that proves tensor data stays out of
    the pipe.
    """
    from repro.exec import shm as _shm

    cache = _shm.SegmentCache()
    progress = None
    if progress_name is not None:
        seg = cache.attach(progress_name, pinned=True)
        progress = seg.view(0, np.int64, (nslots, 2))

    def mark(value):
        # Column 0 is the in-flight dataset index (crash attribution);
        # column 1 is a heartbeat in monotonic microseconds (the
        # watchdog treats a stale heartbeat as a wedged worker).
        # Monotonic, never wall clock: CLOCK_MONOTONIC is system-wide
        # on Linux so the parent's time.monotonic() reads the same
        # clock, and an NTP step or clock slew can neither frame a
        # healthy worker as stalled nor blind the watchdog.
        if progress is not None:
            progress[slot, 0] = value
            progress[slot, 1] = int(time.monotonic() * 1e6)

    try:
        while True:
            try:
                data = conn.recv_bytes()
            except (EOFError, OSError):
                break
            message = pickle.loads(data)
            if message.get("op") == "shutdown":
                break
            chaos_env = message.pop("chaos", None)
            if chaos_env is not None:
                from repro import chaos as _chaos

                _chaos.apply_env(chaos_env)
            reply = run_chunk(message, cache, mark)
            try:
                conn.send_bytes(
                    pickle.dumps(reply, pickle.HIGHEST_PROTOCOL))
            except (BrokenPipeError, OSError):
                break
    finally:
        # A multiprocessing child exits without running ``atexit``:
        # this worker's store counters are flushed here.
        from repro.store.disk import flush_counters

        flush_counters()
        cache.close()
        try:
            conn.close()
        except OSError:
            pass
