"""Batched parallel execution: one compiled kernel, many datasets.

The paper's compile-once/coiterate-fast design makes the *artifact*
the expensive object and the data cheap to swap (PR 1's binding plan).
This module completes that story for throughput: :func:`run_batch`
maps a single :class:`~repro.compiler.kernel.CompiledKernel` over many
independent datasets concurrently, and :class:`KernelPool` is the
reusable engine underneath it.

Three executors share one semantics::

    serial      in-process loop (the reference; also the baseline the
                benchmark harness measures scaling against)
    threads     a ThreadPoolExecutor; right for ``opt_level=2``
                kernels whose time is spent in GIL-releasing numpy
                slice operations
    processes   the persistent warm :class:`~repro.exec.pool.WorkerPool`;
                right for scalar coiteration kernels that hold the
                GIL.  Workers receive the kernel's serialized *spec*
                once per pool lifetime (never the function object) and
                dataset payloads cross as shared-memory descriptors,
                not pickled tensors — see :mod:`repro.exec.pool` and
                :mod:`repro.exec.shm`.

Every executor returns the same :class:`BatchResult`: per-dataset
output snapshots in dataset order, per-dataset instrumented op counts,
per-worker statistics that aggregate deterministically (the total op
count of a batch is identical across executors — concurrency moves
work, it never changes it), and a per-stage overhead breakdown
(``serialize`` / ``transport`` / ``execute`` / ``collect``) that says
where the batch's wall time went.

Datasets are either full slot-ordered tensor sequences or name ->
tensor mappings applied over the kernel's bound template.  They are
validated *before* any dispatch: format signatures must match the
artifact, and each dataset must carry its own output tensors (shared
output buffers would race under the parallel executors).  Failures
inside a worker propagate as
:class:`~repro.util.errors.BatchExecutionError` with the index of the
dataset that raised — including workers that die hard mid-chunk
(wrapped :class:`~repro.util.errors.WorkerCrashError`) or wedge past
the watchdog deadline (wrapped
:class:`~repro.util.errors.WorkerStallError`), both respawned by the
pool.  Transient failures are retried with backoff up to
``max_retries`` before they count; the ``on_failure`` policy then
decides whether a permanent failure aborts the batch (``raise``),
falls back to a simpler executor for the affected datasets
(``degrade``), or is reported per-dataset in
:attr:`BatchResult.failures` (``skip``).

All three executors write outputs into the caller's dataset tensors in
place: serial and threads run in-process, and the processes executor
writes through shared memory (arena-resident outputs directly, staged
outputs copied back when the batch succeeds).  Code that needs the
results should still read them off the :class:`BatchResult` snapshots,
which behave identically everywhere.
"""

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.cin.analyze import tensor_binding_buffers
from repro.compiler.kernel import compile_kernel, resolve_name_overrides
from repro.compiler.key import KernelKey
from repro.exec import pool as _pool
from repro.exec import shm as _shm
from repro.exec import worker as _worker
from repro.util.errors import (BatchExecutionError, BindingError,
                               is_transient)

#: The executor names :func:`run_batch` accepts.
EXECUTORS = ("serial", "threads", "processes")

#: The failure policies :func:`run_batch` accepts.  ``raise`` aborts
#: on the first failing dataset (the default and the historical
#: behavior); ``degrade`` re-runs failed datasets on progressively
#: simpler executors (processes -> threads -> serial) and only raises
#: when the serial re-run fails too (a genuinely poison dataset);
#: ``skip`` never raises per-dataset — failed datasets land in
#: :attr:`BatchResult.failures` keyed by index.
ON_FAILURE = ("raise", "degrade", "skip")

#: The per-stage overhead keys every executor reports.
OVERHEAD_STAGES = ("serialize_s", "transport_s", "execute_s",
                   "collect_s")

#: The per-batch fault keys every executor reports: the pool's
#: :data:`repro.exec.pool.FAULT_KEYS` plus the datasets re-run on a
#: lower executor tier by the ``degrade`` policy.
FAULT_KEYS = _pool.FAULT_KEYS + ("degraded",)

#: The ``degrade`` policy's fallback ladder below each executor.
_DEGRADE_LADDER = {"processes": ("threads", "serial"),
                   "threads": ("serial",), "serial": ()}

#: Default transient-failure retry budget per dataset.
DEFAULT_MAX_RETRIES = 2


class BatchItem:
    """The result of running one dataset of a batch."""

    __slots__ = ("index", "outputs", "ops", "worker", "seconds")

    def __init__(self, index, outputs, ops, worker, seconds):
        self.index = index
        self.outputs = outputs
        self.ops = ops
        self.worker = worker
        self.seconds = seconds

    def __repr__(self):
        return ("BatchItem(index=%d, ops=%r, worker=%r)"
                % (self.index, self.ops, self.worker))


class BatchResult:
    """All per-dataset results of one :meth:`KernelPool.map` call.

    Items are always in dataset order regardless of completion order.
    ``outputs`` flattens to one snapshot list per dataset;
    ``total_ops`` sums the instrumented op counts (None when the
    kernel was not instrumented); ``stats`` is the pool's cumulative
    per-worker statistics snapshot taken when the batch finished;
    ``overhead`` is this batch's per-stage time breakdown
    (serialize / transport / execute / collect seconds);
    ``faults`` is this batch's fault-tolerance ledger (retries,
    crashes, stalls, transient errors, backoff seconds, datasets
    degraded to a simpler executor); ``failures`` maps dataset index
    -> :class:`~repro.util.errors.BatchExecutionError` for datasets
    the ``skip`` policy gave up on (empty under other policies —
    they raise instead).
    """

    def __init__(self, items, executor, max_workers, wall_seconds,
                 stats=None, overhead=None, faults=None,
                 failures=None):
        self.items = sorted(items, key=lambda item: item.index)
        self.executor = executor
        self.max_workers = max_workers
        self.wall_seconds = wall_seconds
        self.stats = stats or {}
        self.overhead = dict(overhead or {})
        self.faults = dict(faults if faults is not None
                           else _pool._fresh_faults(FAULT_KEYS))
        self.failures = dict(failures or {})

    @property
    def outputs(self):
        """Output snapshots, one list of arrays per dataset."""
        return [item.outputs for item in self.items]

    @property
    def total_ops(self):
        """Summed instrumented op count, or None when uninstrumented."""
        if any(item.ops is None for item in self.items):
            return None
        return sum(item.ops for item in self.items)

    @property
    def items_per_second(self):
        """Batch throughput: datasets completed per wall-clock second."""
        if self.wall_seconds <= 0:
            return float("inf") if self.items else 0.0
        return len(self.items) / self.wall_seconds

    def __len__(self):
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    def __getitem__(self, index):
        return self.items[index]

    def __repr__(self):
        return ("BatchResult(%d items, executor=%r, %.3fs)"
                % (len(self.items), self.executor, self.wall_seconds))


class KernelPool:
    """A reusable executor mapping one kernel over dataset batches.

    Wraps a bound :class:`~repro.compiler.kernel.Kernel` plus an
    executor of the chosen kind; :meth:`map` may be called any number
    of times.  The ``processes`` executor runs on a persistent
    :class:`~repro.exec.pool.WorkerPool`: by default the process-wide
    shared pool (so warm workers and shipped specs survive this
    ``KernelPool``), a private pool when ``max_workers`` differs from
    the shared pool's size, or exactly the pool passed as
    ``worker_pool``.  Use as a context manager or call :meth:`close`
    to release owned resources — the shared default pool and explicit
    ``worker_pool`` arguments are never closed here.

    Per-worker statistics accumulate over the pool's lifetime:
    ``stats()`` reports runs, instrumented op totals, wall seconds,
    spec rebuilds (how many times a process worker had to re-``exec``
    the kernel source), the per-stage overhead breakdown, and — for
    processes — the underlying worker pool's transport counters.
    """

    def __init__(self, kernel, executor="threads", max_workers=None,
                 worker_pool=None, on_failure="raise",
                 max_retries=None, deadline_s=None, backoff_s=None):
        if executor not in EXECUTORS:
            raise ValueError(
                "unknown executor %r (choose from %s)"
                % (executor, ", ".join(EXECUTORS)))
        if on_failure not in ON_FAILURE:
            raise ValueError(
                "unknown on_failure policy %r (choose from %s)"
                % (on_failure, ", ".join(ON_FAILURE)))
        if worker_pool is not None and executor != "processes":
            raise ValueError(
                "worker_pool only applies to the processes executor")
        self._kernel = kernel
        self._artifact = kernel.artifact
        self._key = KernelKey.of(kernel.artifact)
        self._output_slots = tuple(kernel.output_slots)
        self.executor = executor
        self._requested_workers = (int(max_workers)
                                   if max_workers else None)
        if executor == "serial":
            self.max_workers = 1
        elif worker_pool is not None:
            self.max_workers = worker_pool.max_workers
        else:
            self.max_workers = int(max_workers or (os.cpu_count() or 1))
        if self.max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self._pool = None
        self._worker_pool = worker_pool
        self._explicit_pool = worker_pool is not None
        self._owns_worker_pool = False
        self.on_failure = on_failure
        self.max_retries = (DEFAULT_MAX_RETRIES if max_retries is None
                            else int(max_retries))
        self.deadline_s = (None if deadline_s is None
                           else float(deadline_s))
        self.backoff_s = 0.05 if backoff_s is None else float(backoff_s)
        self._spec = None
        self._closed = False
        self._lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self._worker_stats = {}
        self._overhead = dict.fromkeys(OVERHEAD_STAGES, 0.0)
        self._faults = _pool._fresh_faults(FAULT_KEYS)
        self._thread_ids = threading.local()
        self._thread_counter = 0

    # -- lifecycle -----------------------------------------------------
    def close(self):
        """Release owned executors; the pool cannot map afterwards.

        A private :class:`~repro.exec.pool.WorkerPool` (created when
        ``max_workers`` differed from the shared default's size) is
        closed; the shared default pool and explicitly passed pools
        stay warm for their other users.
        """
        with self._lock:
            self._closed = True
            pool, self._pool = self._pool, None
            worker_pool, owns = self._worker_pool, self._owns_worker_pool
            self._worker_pool = None
            self._owns_worker_pool = False
        if pool is not None:
            pool.shutdown(wait=True)
        if worker_pool is not None and owns:
            worker_pool.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False

    def _ensure_pool(self):
        """The thread executor (threads mode, and the ``threads``
        rung of the degrade ladder), created lazily."""
        with self._lock:
            if self._closed:
                raise RuntimeError("KernelPool is closed")
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.max_workers)
            return self._pool

    def _ensure_worker_pool(self):
        """The process worker pool: shared default when sizes agree,
        private otherwise, or the explicitly provided one."""
        with self._lock:
            if self._closed:
                raise RuntimeError("KernelPool is closed")
            pool = self._worker_pool
            if pool is not None and not pool.closed:
                return pool
            if self._explicit_pool:
                raise RuntimeError(
                    "the KernelPool's worker_pool is closed")
            shared = _pool.default_pool()
            if (self._requested_workers is None
                    or shared.max_workers == self._requested_workers):
                self._worker_pool = shared
                self._owns_worker_pool = False
                self.max_workers = shared.max_workers
            else:
                self._worker_pool = _pool.WorkerPool(
                    max_workers=self._requested_workers)
                self._owns_worker_pool = True
            return self._worker_pool

    def _ensure_spec(self):
        """The serialized artifact for process workers (memoized).

        Serialized through the bound kernel so the spec's display
        names match this pool's tensors, not whichever binding first
        compiled the cached artifact.
        """
        with self._lock:
            if self._spec is None:
                self._spec = self._kernel.to_spec()
            return self._spec

    # -- statistics ----------------------------------------------------
    def _record(self, worker, ops, seconds, spec_rebuild,
                store_hit=False, remote_hit=False):
        with self._stats_lock:
            entry = self._worker_stats.setdefault(
                worker, {"runs": 0, "ops": 0, "seconds": 0.0,
                         "spec_rebuilds": 0, "store_hits": 0,
                         "remote_hits": 0})
            entry["runs"] += 1
            entry["ops"] += ops or 0
            entry["seconds"] += seconds
            entry["spec_rebuilds"] += 1 if spec_rebuild else 0
            entry["store_hits"] += 1 if store_hit else 0
            entry["remote_hits"] += 1 if remote_hit else 0

    def _add_overhead(self, **stages):
        with self._stats_lock:
            for key, value in stages.items():
                self._overhead[key] += value

    def _overhead_snapshot(self):
        with self._stats_lock:
            return dict(self._overhead)

    def _note_fault(self, key, amount=1):
        with self._stats_lock:
            self._faults[key] += amount

    def _merge_faults(self, faults):
        with self._stats_lock:
            for key, value in faults.items():
                self._faults[key] += value

    def _faults_snapshot(self):
        with self._stats_lock:
            return dict(self._faults)

    def stats(self):
        """Cumulative per-worker and aggregate execution statistics.

        The aggregate ``ops`` total is deterministic: for an
        instrumented kernel it equals the sum of every dataset's op
        count, identical no matter which executor ran the batch or how
        the datasets were sharded over workers.  ``overhead`` breaks
        the pool's lifetime wall spend into serialize / transport /
        execute / collect; for the processes executor ``pool`` carries
        the worker pool's transport counters (ship-once, chunks,
        respawns, pickle vs shm bytes).
        """
        with self._stats_lock:
            workers = {name: dict(entry)
                       for name, entry in self._worker_stats.items()}
            overhead = dict(self._overhead)
            faults = dict(self._faults)
        out = {
            "executor": self.executor,
            "max_workers": self.max_workers,
            "runs": sum(e["runs"] for e in workers.values()),
            "ops": sum(e["ops"] for e in workers.values()),
            "spec_rebuilds": sum(e["spec_rebuilds"]
                                 for e in workers.values()),
            "store_hits": sum(e.get("store_hits", 0)
                              for e in workers.values()),
            "remote_hits": sum(e.get("remote_hits", 0)
                               for e in workers.values()),
            "workers": workers,
            "overhead": overhead,
            "faults": faults,
        }
        if self.executor == "processes" and self._worker_pool is not None:
            out["pool"] = self._worker_pool.stats()
        return out

    def _thread_worker_id(self):
        wid = getattr(self._thread_ids, "worker_id", None)
        if wid is None:
            with self._stats_lock:
                wid = "thread-%d" % self._thread_counter
                self._thread_counter += 1
            self._thread_ids.worker_id = wid
        return wid

    # -- dataset resolution --------------------------------------------
    def _resolve(self, datasets):
        """Per dataset, the slot-ordered, signature-checked tensors,
        each one's ``kernel_buffers()`` walk (taken once per map) and
        the identities of its buffers (its own, with none); rejects
        bad datasets before any work is dispatched."""
        template = self._kernel.tensors
        resolved = []
        for index, dataset in enumerate(datasets):
            try:
                if isinstance(dataset, dict):
                    tensors = resolve_name_overrides(template, dataset)
                else:
                    tensors = list(dataset)
                self._artifact.validate(tensors)
            except BindingError as exc:
                raise BindingError("dataset %d: %s" % (index, exc))
            roles = [tensor_binding_buffers(t) for t in tensors]
            resolved.append((tensors, roles, [
                [id(buf) for buf in buffers.values()] or [id(tensor)]
                for tensor, buffers in zip(tensors, roles)]))
        self._check_output_isolation(resolved)
        return resolved

    def _check_output_isolation(self, resolved):
        """No dataset may touch a buffer another dataset writes.

        Two datasets sharing an *output* buffer would overwrite each
        other, and a dataset *reading* a buffer another dataset writes
        races under the parallel executors — either way the batch
        stops being order-independent, so both are rejected.  Sharing
        read-only inputs between datasets stays allowed.
        """
        if len(resolved) < 2:
            return
        writers = {}  # id(buffer) -> dataset index that writes it
        for index, (tensors, _, ids) in enumerate(resolved):
            for slot in self._output_slots:
                for buf_id in ids[slot]:
                    other = writers.setdefault(buf_id, index)
                    if other != index:
                        raise BindingError(
                            "datasets %d and %d share an output "
                            "buffer (slot %d, tensor %r); give every "
                            "dataset its own output tensor"
                            % (other, index, slot,
                               getattr(tensors[slot], "name", "?")))
        output_slots = set(self._output_slots)
        for index, (tensors, _, ids) in enumerate(resolved):
            for slot, tensor in enumerate(tensors):
                if slot in output_slots:
                    continue
                for buf_id in ids[slot]:
                    writer = writers.get(buf_id)
                    if writer is not None and writer != index:
                        raise BindingError(
                            "dataset %d reads a buffer (slot %d, "
                            "tensor %r) that dataset %d writes; the "
                            "batch would not be order-independent"
                            % (index, slot,
                               getattr(tensor, "name", "?"), writer))

    # -- execution -----------------------------------------------------
    def _dataset_names(self, tensors):
        return tuple(getattr(t, "name", "?") for t in tensors)

    def _wrap_failure(self, index, exc, tensors=None):
        """The enriched batch error for one failing dataset: index,
        tensor names, kernel name, and structural-key digest."""
        error = BatchExecutionError(
            index, exc,
            dataset_names=(self._dataset_names(tensors)
                           if tensors is not None else None),
            kernel_name=self._artifact.name,
            structural_key=self._artifact.structural_key)
        # Wrapped failures may be collected (skip policy) instead of
        # raised in an ``except`` block, so chain the cause explicitly.
        error.__cause__ = exc
        return error

    def _run_local(self, index, dataset, worker_id):
        """One dataset, in-process, with the transient retry policy.

        An in-process :class:`TransientError` (store IO flake, shm
        attach race from an arena-resident input) is retried with
        exponential backoff up to ``max_retries``; anything else is a
        deterministic kernel exception and raises immediately.
        """
        attempt = 0
        while True:
            try:
                return self._run_local_once(index, dataset, worker_id)
            except BatchExecutionError as exc:
                if (not is_transient(exc.cause)
                        or attempt >= self.max_retries):
                    raise
                attempt += 1
                self._note_fault("transient_errors")
                self._note_fault("retries")
                delay = min(1.0, self.backoff_s * 2 ** (attempt - 1))
                # The pool's module-private jitter RNG, never the
                # global ``random`` stream (seed-reproducibility of
                # interleaved fuzz/chaos campaigns).
                delay *= 1.0 + _pool._JITTER_RNG.random()  # jitter
                self._note_fault("backoff_s", delay)
                time.sleep(delay)

    def _run_local_once(self, index, dataset, worker_id):
        start = time.perf_counter()
        tensors, roles, _ = dataset
        try:
            args = self._artifact._point(tensors, range(len(roles)),
                                         roles)
            bound = time.perf_counter()
            result = self._artifact.fn(*args)
            ran = time.perf_counter()
            outputs = [_worker.snapshot_tensor(tensors[slot])
                       for slot in self._output_slots]
        except Exception as exc:
            raise self._wrap_failure(index, exc, tensors) from exc
        # Normalize numpy counter values so op totals stay plain ints.
        ops = int(result) if self._artifact.instrument else None
        done = time.perf_counter()
        self._record(worker_id, ops, done - start, spec_rebuild=False)
        self._add_overhead(serialize_s=bound - start,
                           execute_s=ran - bound,
                           collect_s=done - ran)
        return BatchItem(index, outputs, ops, worker_id, done - start)

    def _run_threaded(self, index, dataset, worker_id=None):
        return self._run_local(index, dataset,
                               worker_id or self._thread_worker_id())

    def map(self, datasets):
        """Run every dataset; returns a :class:`BatchResult`.

        Datasets run concurrently under the pool's executor and
        results come back in dataset order.  What a failing dataset
        does depends on the ``on_failure`` policy: ``raise`` (default)
        raises the first failure (in index order) as a
        :class:`~repro.util.errors.BatchExecutionError` carrying its
        index; ``degrade`` re-runs failed datasets on progressively
        simpler executors before raising only genuinely poison ones;
        ``skip`` completes the batch and reports failed datasets in
        :attr:`BatchResult.failures`.
        """
        resolved = self._resolve(list(datasets))
        start = time.perf_counter()
        before = self._overhead_snapshot()
        faults_before = self._faults_snapshot()
        if not resolved:
            return BatchResult([], self.executor, self.max_workers,
                               0.0, stats=self.stats(),
                               overhead=dict.fromkeys(OVERHEAD_STAGES,
                                                      0.0))
        if self.executor == "serial":
            items, failures = self._map_serial(resolved,
                                               range(len(resolved)))
        elif self.executor == "threads":
            items, failures = self._map_threads(resolved,
                                                range(len(resolved)))
        else:
            items, failures = self._map_processes(resolved)
        if failures and self.on_failure == "degrade":
            recovered, failures = self._degrade(resolved, failures)
            items.extend(recovered)
        if failures and self.on_failure != "skip":
            raise failures[min(failures)]
        wall = time.perf_counter() - start
        after = self._overhead_snapshot()
        overhead = {key: after[key] - before[key]
                    for key in OVERHEAD_STAGES}
        faults_after = self._faults_snapshot()
        faults = {key: faults_after[key] - faults_before[key]
                  for key in FAULT_KEYS}
        return BatchResult(items, self.executor, self.max_workers,
                           wall, stats=self.stats(), overhead=overhead,
                           faults=faults, failures=failures)

    def _map_serial(self, resolved, indices, worker_id="serial-0"):
        """Run ``indices`` of ``resolved`` one by one; returns
        ``(items, {index: failure})``."""
        items, failures = [], {}
        for index in indices:
            try:
                items.append(self._run_local(index, resolved[index],
                                             worker_id))
            except BatchExecutionError as exc:
                failures[index] = exc
                if self.on_failure == "raise":
                    break
        return items, failures

    def _map_threads(self, resolved, indices, worker_id=None):
        """:meth:`_map_serial` over the thread executor (``worker_id``
        None labels each run by the thread that took it)."""
        pool = self._ensure_pool()
        futures = [(index, pool.submit(self._run_threaded, index,
                                       resolved[index], worker_id))
                   for index in indices]
        items, failures = [], {}
        for index, future in futures:
            try:
                items.append(future.result())
            except BatchExecutionError as exc:
                failures[index] = exc
        return items, failures

    def _degrade(self, resolved, failures):
        """The ``degrade`` policy: re-run failed datasets on each
        simpler executor tier in turn (processes -> threads ->
        serial).  Environment failures recover on the way down; a
        dataset that still fails serially is genuinely poison and
        stays failed.  Returns ``(recovered_items, still_failed)``.
        """
        recovered = []
        still = dict(failures)
        for stage in _DEGRADE_LADDER[self.executor]:
            if not still:
                break
            self._note_fault("degraded", len(still))
            run = (self._map_threads if stage == "threads"
                   else self._map_serial)
            items, still = run(resolved, sorted(still),
                               "degrade-" + stage)
            recovered.extend(items)
        return recovered, still

    def _map_processes(self, resolved):
        """Dispatch one batch over the warm worker pool.

        Serialize: bind every dataset parent-side and describe its
        arguments as shm descriptors (staging anything not
        arena-resident).  Transport: seal the staging segment (one
        copy in), and after the run copy staged output regions back.
        Execute: the pool's chunked dispatch, under this pool's
        deadline/retry settings.  Collect: snapshot and assemble
        items.  Returns ``(items, failures)``
        — policy handling (raise/degrade/skip) is :meth:`map`'s job.
        The staging segment is unlinked on every path.
        """
        spec = self._ensure_spec()
        # The ship-once id *is* the kernel's store/service digest.
        digest = self._key.digest
        pool = self._ensure_worker_pool()
        t0 = time.perf_counter()
        staging = _shm.ShmStaging()
        tasks = []
        resident_seen = set()
        resident_bytes = 0
        try:
            for index, (tensors, roles, ids) in enumerate(resolved):
                try:
                    args = self._artifact._point(
                        tensors, range(len(roles)), roles)
                except Exception as exc:
                    raise self._wrap_failure(index, exc,
                                             tensors) from exc
                # The transport carries the output buffers back.
                payload = _shm.describe_args(
                    args, staging, index,
                    {buf_id for slot in self._output_slots
                     for buf_id in ids[slot]})
                payload["index"] = index
                tasks.append(payload)
                for arg in args:
                    if (id(arg) not in resident_seen
                            and _shm.resident_descriptor(arg)
                            is not None):
                        resident_seen.add(id(arg))
                        resident_bytes += arg.nbytes
            t1 = time.perf_counter()
            staging_name = staging.seal()
            t2 = time.perf_counter()
            pool.add_shm_bytes(staging.nbytes() + resident_bytes)
            results, pool_failures, faults = pool.run(
                spec, digest, tasks, staging_name,
                deadline_s=self.deadline_s,
                max_retries=self.max_retries,
                fail_fast=(self.on_failure == "raise"))
            self._merge_faults(faults)
            t3 = time.perf_counter()
            staging.writeback({item["index"] for item in results})
            t4 = time.perf_counter()
            by_index = {item["index"]: item for item in results}
            failures = {
                index: self._wrap_failure(index, exc,
                                          resolved[index][0])
                for index, exc in pool_failures}
            items = []
            for index, (tensors, _, _) in enumerate(resolved):
                entry = by_index.get(index)
                if entry is None:
                    # Failed permanently, or never dispatched because
                    # fail_fast stopped the batch after its first
                    # failure.  Neither a result nor any failure is a
                    # pool protocol violation.
                    if not failures:  # pragma: no cover
                        failures[index] = self._wrap_failure(
                            index,
                            RuntimeError("no result for dataset"),
                            tensors)
                    continue
                outputs = [_worker.snapshot_tensor(tensors[slot])
                           for slot in self._output_slots]
                self._record(entry["worker"], entry["ops"],
                             entry["seconds"], entry["spec_rebuild"],
                             entry.get("store_hit", False),
                             entry.get("remote_hit", False))
                items.append(BatchItem(index, outputs, entry["ops"],
                                       entry["worker"],
                                       entry["seconds"]))
            t5 = time.perf_counter()
        finally:
            staging.close()
        self._add_overhead(
            serialize_s=t1 - t0,
            transport_s=(t2 - t1) + (t4 - t3),
            execute_s=sum(item["seconds"] for item in results),
            collect_s=t5 - t4)
        return items, failures


def run_batch(program, datasets, executor="serial", max_workers=None,
              instrument=False, opt_level=None, cache=None,
              on_failure="raise", max_retries=None, deadline_s=None,
              backend=None):
    """Compile ``program`` once and map it over ``datasets``.

    ``datasets`` is a sequence where each element is either a name ->
    tensor mapping (replacing the program's tensors by name, exactly
    like :meth:`~repro.compiler.kernel.Kernel.rebind`) or a full
    slot-ordered tensor sequence.  ``executor`` picks the concurrency
    model (``"serial"``, ``"threads"``, or ``"processes"``; see the
    module docstring for guidance) and ``max_workers`` bounds the pool
    (default: the machine's CPU count — for processes, the shared warm
    :func:`~repro.exec.pool.default_pool`, which stays hot between
    calls).

    ``backend`` selects kernel execution: ``"python"`` or ``"c"``
    (``None`` reads ``fl.configure(backend=...)`` then
    ``FL_KERNEL_BACKEND``; see
    :func:`~repro.compiler.kernel.compile_kernel`).  C kernels release
    the GIL during each call, so the ``threads`` executor actually
    scales with them; process-pool workers rebuild C kernels from the
    shipped spec (recompiling, or warm-starting the shared object off
    the configured disk store).

    Fault tolerance: ``on_failure`` picks the policy for failing
    datasets (:data:`ON_FAILURE` — raise / degrade / skip),
    ``max_retries`` bounds transient-failure retries per dataset
    (default :data:`DEFAULT_MAX_RETRIES`), and ``deadline_s`` pins the
    processes executor's watchdog deadline (default: derived from the
    measured chunk cost).

    Returns a :class:`BatchResult` whose per-dataset output snapshots
    and instrumented op counts are identical across executors.  For a
    standing service that maps many batches through one kernel, build
    a :class:`KernelPool` directly and reuse it.
    """
    kernel = compile_kernel(program, instrument=instrument,
                            cache=cache, opt_level=opt_level,
                            backend=backend)
    with KernelPool(kernel, executor=executor,
                    max_workers=max_workers, on_failure=on_failure,
                    max_retries=max_retries,
                    deadline_s=deadline_s) as pool:
        return pool.map(datasets)
