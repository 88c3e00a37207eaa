"""The persistent warm worker pool under the ``processes`` executor.

The old engine paid the full process tax on every call: a fresh
``ProcessPoolExecutor`` per :class:`~repro.exec.batch.KernelPool`, one
pickled task per dataset, tensors serialized both ways.  For kernels
whose whole point is being cheap per dataset (the paper's
compile-once/coiterate-fast model), that overhead *was* the runtime —
the committed fig1 baseline ran processes at 0.034 scaling efficiency.

:class:`WorkerPool` keeps a fleet of long-lived workers warm across
batches, kernels, and :class:`~repro.exec.batch.KernelPool`
lifetimes:

ship-once kernels
    each worker receives a kernel's spec exactly once per pool
    lifetime (chunks carry a digest; the spec rides along only on a
    worker's first chunk of that kernel), and the worker warm-starts
    from the on-disk :class:`~repro.store.disk.KernelStore` before
    re-``exec``-ing the shipped source.

shared-memory transport
    dataset payloads cross as :mod:`repro.exec.shm` descriptors, not
    pickled tensors; the parent meters both sides (``pickle_bytes``
    vs ``shm_bytes``) so tests can assert tensor data stays out of
    the pipe.

chunked scheduling
    many datasets ride one IPC round-trip.  The chunk size adapts to
    the measured per-item cost of the kernel being mapped (an EMA of
    worker-reported kernel seconds, one per kernel digest) targeting
    :data:`CHUNK_TARGET_S` of work per message, capped so every worker
    gets something to do.

self-healing
    each worker publishes the dataset index it is executing *and a
    heartbeat timestamp* in a shared progress array; when a worker
    dies hard the pool reads the array to attribute the crash to the
    right dataset (surfaced as a
    :class:`~repro.util.errors.WorkerCrashError`, wrapped in
    ``BatchExecutionError`` by the batch layer) and respawns the
    worker immediately, so the next ``run_batch`` call sees a full
    fleet.

watchdog deadlines
    a worker whose heartbeat stops advancing past the effective
    per-chunk deadline is presumed wedged (deadlock, hung native
    call): the dispatcher kills it, attributes the stall to the
    in-flight dataset (:class:`~repro.util.errors.WorkerStallError`),
    and respawns the slot exactly like a crash.  The deadline is
    explicit (``deadline_s`` per ``run`` call, which the batch layer
    passes from its ``KernelPool``) or derived from the kernel's own
    chunk-cost EMA (``max(5s, 50x measured per-item seconds)``); before
    any measurement of that kernel and with no explicit deadline the
    watchdog stays off, so a cold first chunk can never be killed by a
    guess, nor by another kernel's cost.

retry with backoff
    transient failures — crashes, stalls, and worker-raised
    :class:`~repro.util.errors.TransientError`\\ s such as shm attach
    races — are retried on a healthy worker with exponential backoff
    (from :data:`BACKOFF_S`) plus jitter, up to ``max_retries`` per
    dataset.  This is the batch layer's one recovery path: nothing
    re-runs a dataset in the calling process.  Deterministic kernel
    exceptions are never retried.  Datasets that merely shared a chunk
    with the suspect are requeued without penalty.

A module-level default pool (:func:`default_pool`, tuned via
``fl.configure(pool_*=...)``) is shared by every ``KernelPool`` that does
not bring its own, which is what makes the warm state actually
accumulate across calls.  The default pool is closed at interpreter
exit; explicit pools are context managers.
"""

import atexit
import multiprocessing as mp
import os
import pickle
import random
import threading
import time
from collections import deque
from multiprocessing import connection as mp_connection

import numpy as np

from repro.exec import shm as _shm
from repro.exec import worker as _worker
from repro.util import config
from repro.util.errors import (WorkerCrashError, WorkerStallError,
                               is_transient)

#: Fault keys reported per ``run`` call and aggregated in ``stats()``.
FAULT_KEYS = ("retries", "crashes", "stalls", "transient_errors",
              "backoff_s")

#: Seconds of measured work one chunk message aims to carry.
CHUNK_TARGET_S = 0.01

#: The first retry's backoff in seconds; it doubles per attempt,
#: capped at 1s, before jitter.
BACKOFF_S = 0.05

#: Retries of a crashed or stalled dataset when the caller names none.
DEFAULT_MAX_RETRIES = 2


def _fresh_faults():
    return {key: (0.0 if key == "backoff_s" else 0) for key in FAULT_KEYS}

#: Start methods accepted by :class:`WorkerPool` (a subset of the
#: platform's ``multiprocessing.get_all_start_methods()``).
START_METHODS = ("fork", "spawn", "forkserver")

_PICKLE_PROTO = pickle.HIGHEST_PROTOCOL

#: Module-private RNG for retry-backoff jitter, seeded from OS entropy.
#: Never the global ``random`` module: a retry must not perturb the
#: module-level stream (seeded fuzz/chaos campaigns interleave with
#: batch retries and stay reproducible), and a seeded campaign must not
#: make fleet-wide jitter deterministic — which would defeat its
#: thundering-herd purpose.
_JITTER_RNG = random.Random()


def default_start_method():
    """``fork`` where available (cheap, inherits the warm interpreter),
    else the platform default."""
    methods = mp.get_all_start_methods()
    return "fork" if "fork" in methods else methods[0]


class _Worker:
    """Parent-side handle on one worker process."""

    __slots__ = ("process", "conn", "shipped")

    def __init__(self, process, conn):
        self.process = process
        self.conn = conn
        #: spec digests this worker has already received (ship-once).
        self.shipped = set()


class WorkerPool:
    """A fleet of persistent worker processes (see module docstring).

    One batch runs at a time per pool (calls serialize); the pool is
    safe to share between threads and across any number of
    ``KernelPool``/``run_batch`` calls.  Use as a context manager or
    call :meth:`close`; closing is idempotent.
    """

    def __init__(self, max_workers=None, start_method=None):
        self.max_workers = (config.worker_count(max_workers)
                            or os.cpu_count() or 1)
        method = start_method or default_start_method()
        if method not in mp.get_all_start_methods():
            raise ValueError(
                "start method %r not available on this platform "
                "(choose from %s)"
                % (method, ", ".join(mp.get_all_start_methods())))
        self.start_method = method
        self._ctx = mp.get_context(method)
        self._lock = threading.RLock()
        self._workers = [None] * self.max_workers
        self._progress = None
        self._progress_view = None
        self._closed = False
        self._per_item_s = {}  # digest -> EMA of measured per-item s
        self._last_chunk_size = None
        self._counters = {
            "batches": 0, "chunks": 0, "respawns": 0,
            "specs_shipped": 0, "workers_spawned": 0,
            "pickle_bytes": 0, "shm_bytes": 0,
            "retries": 0, "crashes": 0, "stalls": 0,
        }

    # -- lifecycle -----------------------------------------------------
    @property
    def closed(self):
        return self._closed

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False

    def close(self):
        """Shut every worker down and unlink the progress segment.

        Idempotent; safe to call while workers are idle.  Workers get
        a shutdown message and a short grace period before being
        terminated.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            workers, self._workers = self._workers, []
            progress, self._progress = self._progress, None
            self._progress_view = None
        for worker in workers:
            if worker is None:
                continue
            try:
                worker.conn.send_bytes(
                    pickle.dumps({"op": "shutdown"}, _PICKLE_PROTO))
            except (BrokenPipeError, OSError):
                pass
        for worker in workers:
            if worker is None:
                continue
            worker.process.join(timeout=2)
            if worker.process.is_alive():  # pragma: no cover - slow exit
                worker.process.terminate()
                worker.process.join(timeout=2)
            try:
                worker.conn.close()
            except OSError:  # pragma: no cover
                pass
        if progress is not None:
            progress.close()

    def _ensure_progress(self):
        # Two int64 columns per slot: the in-flight dataset index
        # (crash/stall attribution) and a heartbeat timestamp in
        # monotonic microseconds (watchdog liveness).  Monotonic on
        # both sides: CLOCK_MONOTONIC is system-wide on Linux, so the
        # workers' stamps compare directly against the dispatcher's
        # time.monotonic() and wall-clock steps (NTP, slew) can never
        # skew the deadline math.
        if self._progress is None:
            self._progress = _shm.ShmSegment.create(
                16 * self.max_workers)
            self._progress_view = self._progress.view(
                0, np.int64, (self.max_workers, 2))
            self._progress_view[:, 0] = -1
            self._progress_view[:, 1] = 0

    def _spawn(self, slot):
        self._ensure_progress()
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_worker.worker_main,
            args=(child_conn, self._progress.name, slot,
                  self.max_workers),
            daemon=True, name="fl-exec-%d" % slot)
        process.start()
        child_conn.close()
        worker = _Worker(process, parent_conn)
        self._workers[slot] = worker
        self._counters["workers_spawned"] += 1
        return worker

    def _respawn(self, slot):
        """Replace a dead worker so the fleet stays at strength."""
        worker = self._workers[slot]
        if worker is not None:
            try:
                worker.conn.close()
            except OSError:  # pragma: no cover
                pass
            if worker.process.is_alive():  # pragma: no cover
                worker.process.terminate()
            worker.process.join(timeout=5)
        self._workers[slot] = None
        if self._progress_view is not None:
            self._progress_view[slot] = -1
        self._counters["respawns"] += 1
        return self._spawn(slot)

    def _discard(self, slot):
        """Interrupt hygiene: drop a slot's worker hard, right now.

        Used when the dispatch loop is unwinding on ``KeyboardInterrupt``
        or an unexpected error with chunks still in flight — the worker
        may be mid-kernel and cannot be drained, so it is killed and the
        slot left empty for a lazy respawn on the next ``run``.
        """
        worker = self._workers[slot]
        if worker is None:
            return
        self._workers[slot] = None
        try:
            worker.conn.close()
        except OSError:  # pragma: no cover
            pass
        if worker.process.is_alive():
            worker.process.kill()
        worker.process.join(timeout=5)
        if self._progress_view is not None:
            self._progress_view[slot] = -1

    # -- scheduling ----------------------------------------------------
    def _pick_chunk_size(self, n, per_item_s):
        """Datasets per IPC round-trip: about :data:`CHUNK_TARGET_S` of
        the kernel's measured work, clamped so every worker gets a
        share; before any measurement, four chunks per worker."""
        per_worker = max(1, -(-n // self.max_workers))
        if not per_item_s or per_item_s <= 0:
            size = max(1, -(-n // (self.max_workers * 4)))
        else:
            size = int(CHUNK_TARGET_S / per_item_s) or 1
        size = max(1, min(per_worker, size))
        self._last_chunk_size = size
        return size

    def _send_chunk(self, worker, spec, digest, chunk, staging_name):
        from repro import chaos as _chaos

        message = {"digest": digest, "staging": staging_name,
                   "datasets": chunk,
                   # The parent's chaos configuration rides along so
                   # arming/disarming a plan reaches long-lived
                   # workers regardless of what their environment
                   # captured at spawn time.
                   "chaos": _chaos.current_env()}
        shipped_spec = digest not in worker.shipped
        if shipped_spec:
            message["spec"] = spec
            worker.shipped.add(digest)
        data = pickle.dumps(message, _PICKLE_PROTO)
        self._counters["pickle_bytes"] += len(data)
        self._counters["chunks"] += 1
        if shipped_spec:
            self._counters["specs_shipped"] += 1
        worker.conn.send_bytes(data)

    def run(self, spec, digest, tasks, staging_name=None,
            deadline_s=None, max_retries=DEFAULT_MAX_RETRIES,
            fail_fast=True):
        """Map ``tasks`` (transport payloads, each carrying its
        dataset ``index``) over the warm workers under one kernel.

        Returns ``(results, failures, faults)``: worker result dicts
        in completion order, ``(index, exception)`` pairs for datasets
        that failed permanently, and the call's fault counters
        (:data:`FAULT_KEYS`).  Transient failures — crashes, stalls,
        worker-raised :class:`TransientError`\\ s — are retried with
        exponential backoff up to ``max_retries`` times before
        landing in ``failures``; deterministic kernel exceptions land
        there immediately.  With ``fail_fast`` (the default) dispatch
        stops after the first permanent failure; policies that want
        every dataset's outcome pass False.  Staged write-back and
        error wrapping are the caller's job.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("WorkerPool is closed")
            return self._run_locked(spec, digest, list(tasks),
                                    staging_name, deadline_s,
                                    max_retries, fail_fast)

    def _run_locked(self, spec, digest, tasks, staging_name,
                    deadline_s, max_retries, fail_fast):
        faults = _fresh_faults()
        if not tasks:
            return [], [], faults
        # The watchdog deadline: the caller's (0 turns it off), else a
        # generous guess from this kernel's chunk-cost EMA (50x the
        # per-item cost, floored at 5s).  Before any measurement of it
        # the watchdog stays off, so a cold first chunk is never killed
        # by a guess.
        per_item_s = self._per_item_s.get(digest)
        if deadline_s is not None:
            deadline = float(deadline_s) or None
        elif per_item_s:
            deadline = max(5.0, 50.0 * per_item_s)
        else:
            deadline = None
        self._counters["batches"] += 1
        chunk_size = self._pick_chunk_size(len(tasks), per_item_s)
        pending = deque(tasks[i:i + chunk_size]
                        for i in range(0, len(tasks), chunk_size))
        busy = {}  # slot -> (chunk, dispatch monotonic seconds)
        results = []
        done = set()  # dataset indices with a collected result
        failures = []
        attempts = {}  # dataset index -> transient failures so far
        stop = False
        exec_seconds = 0.0
        executed = 0

        def requeue(chunk, suspect, exc, fault_key):
            """Handle one transient failure: penalize the suspect
            dataset (retry with backoff, or fail permanently past the
            retry budget) and requeue chunk-mates whose results were
            lost with it, unpenalized.  Returns True on permanent
            failure."""
            nonlocal stop
            faults[fault_key] += 1
            if fault_key in self._counters:
                self._counters[fault_key] += 1
            survivors = [task for task in chunk
                         if task["index"] not in done
                         and task["index"] != suspect]
            if survivors:
                pending.append(survivors)
            attempts[suspect] = attempts.get(suspect, 0) + 1
            if attempts[suspect] > max_retries:
                failures.append((suspect, exc))
                if fail_fast:
                    stop = True
                    pending.clear()
                return True
            faults["retries"] += 1
            self._counters["retries"] += 1
            delay = min(1.0, BACKOFF_S * 2 ** (attempts[suspect] - 1))
            delay *= 1.0 + _JITTER_RNG.random()  # jitter
            faults["backoff_s"] += delay
            time.sleep(delay)
            pending.append([task for task in chunk
                            if task["index"] == suspect])
            return False

        def attribute(slot, chunk):
            """The dataset a dead/wedged worker was running, read from
            the progress array and validated against the chunk it was
            actually handed (a stale stamp from an earlier chunk must
            not frame an innocent dataset)."""
            suspect = int(self._progress_view[slot, 0])
            members = {task["index"] for task in chunk}
            if suspect not in members:
                suspect = chunk[0]["index"]
            return suspect

        try:
            while pending or busy:
                if not stop:
                    for slot in range(self.max_workers):
                        if not pending:
                            break
                        if slot in busy:
                            continue
                        worker = (self._workers[slot]
                                  or self._spawn(slot))
                        chunk = pending.popleft()
                        try:
                            self._send_chunk(worker, spec, digest,
                                             chunk, staging_name)
                        except (BrokenPipeError, OSError):
                            # Worker died between batches; put the
                            # chunk back and retry on the respawned
                            # process.
                            pending.appendleft(chunk)
                            self._respawn(slot)
                            continue
                        busy[slot] = (chunk, time.monotonic())
                if not busy:
                    break
                conn_of = {self._workers[slot].conn: slot
                           for slot in busy}
                dead_of = {self._workers[slot].process.sentinel: slot
                           for slot in busy}
                timeout = None
                if deadline is not None:
                    timeout = min(0.5, max(0.01, deadline / 4.0))
                ready = mp_connection.wait(
                    list(conn_of) + list(dead_of), timeout)
                now = time.monotonic()
                handled = set()
                for obj in ready:
                    slot = conn_of.get(obj, dead_of.get(obj))
                    if slot is None or slot in handled:
                        continue
                    handled.add(slot)
                    worker = self._workers[slot]
                    chunk, _ = busy.pop(slot)
                    reply = None
                    try:
                        if worker.conn.poll():
                            reply = pickle.loads(
                                worker.conn.recv_bytes())
                    except (EOFError, OSError):
                        reply = None
                    if reply is None:
                        # Hard crash mid-chunk: the progress array
                        # says which dataset was in flight.
                        crashed = attribute(slot, chunk)
                        worker.process.join(timeout=1)
                        exc = WorkerCrashError(
                            "pid-%d" % worker.process.pid,
                            worker.process.exitcode, crashed)
                        self._respawn(slot)
                        requeue(chunk, crashed, exc, "crashes")
                        continue
                    results.extend(reply["results"])
                    for item in reply["results"]:
                        done.add(item["index"])
                        exec_seconds += item["seconds"]
                        executed += 1
                    error = reply.get("error")
                    if error is not None:
                        try:
                            exc = pickle.loads(error["exc"])
                        except Exception:  # pragma: no cover
                            exc = RuntimeError("worker error")
                        index = error["index"]
                        if is_transient(exc):
                            requeue(chunk, index, exc,
                                    "transient_errors")
                        else:
                            # Deterministic kernel exception: never
                            # retried.  Chunk-mates the worker never
                            # reached still get their turn (the skip
                            # policy needs every outcome).
                            failures.append((index, exc))
                            survivors = [task for task in chunk
                                         if task["index"] not in done
                                         and task["index"] != index]
                            if survivors and not fail_fast:
                                pending.append(survivors)
                            if fail_fast:
                                stop = True
                                pending.clear()
                # Watchdog: a busy slot whose heartbeat (or dispatch)
                # is older than the deadline is wedged — kill,
                # attribute, respawn, retry.
                if deadline is not None:
                    for slot in list(busy):
                        if slot in handled:
                            continue
                        chunk, dispatched = busy[slot]
                        heartbeat = (
                            float(self._progress_view[slot, 1]) / 1e6)
                        if now - max(dispatched, heartbeat) <= deadline:
                            continue
                        del busy[slot]
                        worker = self._workers[slot]
                        stalled = attribute(slot, chunk)
                        worker.process.kill()
                        worker.process.join(timeout=5)
                        exc = WorkerStallError(
                            "pid-%d" % worker.process.pid, stalled,
                            deadline)
                        self._respawn(slot)
                        requeue(chunk, stalled, exc, "stalls")
        except BaseException:
            # Unwinding with chunks in flight (KeyboardInterrupt, a
            # staging error...): the workers may be mid-kernel and
            # cannot be drained — drop them hard so nothing is
            # orphaned, and let the next run respawn lazily.
            for slot in list(busy):
                self._discard(slot)
            raise
        if executed:
            measured = exec_seconds / executed
            self._per_item_s[digest] = (
                measured if per_item_s is None
                else 0.5 * per_item_s + 0.5 * measured)
        return results, failures, faults

    def add_shm_bytes(self, nbytes):
        """Credit transported shared-memory payload bytes (metered by
        the batch layer, which owns staging and residency)."""
        self._counters["shm_bytes"] += int(nbytes)

    def stats(self):
        """Lifetime pool statistics: fleet shape, ship-once and
        chunking counters, transport byte meters, and liveness."""
        with self._lock:
            out = dict(self._counters)
            out["max_workers"] = self.max_workers
            out["start_method"] = self.start_method
            out["chunk_size"] = self._last_chunk_size
            out["per_item_s"] = dict(self._per_item_s)
            out["alive"] = sum(
                1 for worker in self._workers
                if worker is not None and worker.process.is_alive())
        return out


# -- the module-level default pool ----------------------------------------

_default_pool = None
_default_lock = threading.Lock()

#: WorkerPool constructor argument -> the config option that feeds it
#: (see :mod:`repro.util.config`).
POOL_OPTION_ARGS = {
    "max_workers": "pool_max_workers",
    "start_method": "pool_start_method",
}


def _config_pool_kwargs():
    """The :class:`WorkerPool` constructor kwargs the config resolver
    currently prescribes (``fl.configure(pool_*=...)`` /
    ``FL_POOL_*``); unset options are omitted so the pool's own
    defaults apply."""
    kwargs = {}
    for arg, option in POOL_OPTION_ARGS.items():
        value = config.resolve(option)
        if value is not None:
            kwargs[arg] = value
    return kwargs


def default_pool():
    """The process-wide warm pool, created on first use and shared by
    every ``KernelPool`` that does not bring its own.  Its shape comes
    from the config resolver (``fl.configure(pool_*=...)``, then the
    ``FL_POOL_*`` environment, then machine defaults)."""
    global _default_pool
    with _default_lock:
        if _default_pool is None or _default_pool.closed:
            _default_pool = WorkerPool(**_config_pool_kwargs())
        return _default_pool


def rebuild_default_if_open():
    """Close-and-respawn the default pool so a config change takes
    effect immediately — but only when one is actually running (a
    lazy process keeps its lazy start).  Called by
    :func:`repro.util.config.configure` when pool options change."""
    global _default_pool
    with _default_lock:
        if _default_pool is None or _default_pool.closed:
            return None
        _default_pool.close()
        _default_pool = WorkerPool(**_config_pool_kwargs())
        return _default_pool


def _close_default_pool():  # pragma: no cover - interpreter exit
    global _default_pool
    with _default_lock:
        pool, _default_pool = _default_pool, None
    if pool is not None and not pool.closed:
        pool.close()


atexit.register(_close_default_pool)
