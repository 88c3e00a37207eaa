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
    threads     a ThreadPoolExecutor; right for kernels that release
                the GIL: C kernels (ctypes releases it for every call)
                and ``opt_level=2`` kernels whose time is spent in numpy
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
pool.  The pool's retry is the one recovery path: a dataset whose
worker crashed or stalled (or raised a
:class:`~repro.util.errors.TransientError`) is retried on a fresh
worker, with backoff, up to ``max_retries`` times.  Serial and threads
runs are never retried, and neither is a kernel exception.  The
``on_failure`` policy then decides whether a permanent failure aborts
the batch (``raise``) or is reported per-dataset in
:attr:`BatchResult.failures` (``skip``).

All three executors write outputs into the caller's dataset tensors in
place: serial and threads run in-process, and the processes executor
writes through shared memory (arena-resident outputs directly, staged
outputs copied back when the batch succeeds).  Code that needs the
results should still read them off the :class:`BatchResult` snapshots,
which behave identically everywhere.
"""

import math
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.compiler.kernel import compile_kernel
from repro.compiler.key import KernelKey
from repro.exec import pool as _pool
from repro.exec import shm as _shm
from repro.exec import worker as _worker
from repro.tensors import share as _share
from repro.util import config
from repro.util.errors import BatchExecutionError, BindingError

#: The executor names :func:`run_batch` accepts.
EXECUTORS = ("serial", "threads", "processes")

#: The failure policies :func:`run_batch` accepts.  ``raise`` aborts
#: on the first failing dataset (the default); ``skip`` never raises
#: per-dataset — failed datasets land in :attr:`BatchResult.failures`
#: keyed by index.
ON_FAILURE = ("raise", "skip")

#: The per-stage overhead keys every executor reports.
OVERHEAD_STAGES = ("serialize_s", "transport_s", "execute_s",
                   "collect_s")


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
    crashes, stalls, transient errors, backoff seconds; only the
    processes executor ever fills it); ``failures`` maps dataset
    index -> :class:`~repro.util.errors.BatchExecutionError` for
    datasets the ``skip`` policy gave up on (empty under ``raise``,
    which raises instead).
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
                           else _pool._fresh_faults())
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
                 max_retries=None, deadline_s=None):
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
        if max_retries is None:
            max_retries = _pool.DEFAULT_MAX_RETRIES
        if type(max_retries) is not int or max_retries < 0:
            raise ValueError("max_retries must be an int >= 0, not %r"
                             % (max_retries,))
        if deadline_s is not None:
            # A negative or NaN deadline would read every busy worker
            # as stalled; 0 turns the watchdog off.
            deadline_s = float(deadline_s)
            if not (deadline_s == 0 or 0 < deadline_s < math.inf):
                raise ValueError(
                    "deadline_s must be None, 0 (watchdog off) or a "
                    "finite number > 0, not %r" % (deadline_s,))
        self._kernel = kernel
        self._artifact = kernel.artifact
        self._key = KernelKey.of(kernel.artifact)
        self._output_slots = tuple(kernel.output_slots)
        # The parameters that pass each slot's arrays: those it feeds,
        # and the one each alias group it is a later member of became.
        self._slot_held = [[param for param, _ in params]
                           for params in kernel.artifact._slot_params]
        for _, _, other, param in kernel.artifact._alias_pairs:
            self._slot_held[other[0]].append(param)
        self.executor = executor
        self._requested_workers = config.worker_count(max_workers)
        if executor == "serial":
            self.max_workers = 1
        elif worker_pool is not None:
            self.max_workers = worker_pool.max_workers
        else:
            self.max_workers = (self._requested_workers
                                or os.cpu_count() or 1)
        self._pool = None
        self._worker_pool = worker_pool
        self._explicit_pool = worker_pool is not None
        self._owns_worker_pool = False
        self.on_failure = on_failure
        self.max_retries = max_retries
        self.deadline_s = deadline_s
        self._spec = None
        self._closed = False
        self._lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self._worker_stats = {}
        self._overhead = dict.fromkeys(OVERHEAD_STAGES, 0.0)
        self._faults = _pool._fresh_faults()
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
        """The thread executor of threads mode, created lazily."""
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

    # -- dataset resolution --------------------------------------------
    def _resolve(self, datasets):
        """Per dataset, the slot-ordered tensors, their plan entry (of
        its names' plan, or the whole plan for a sequence; unfiled on
        processes, whose shared-memory arrays no memo may pin), bound
        from one read of each replacement, and the identities each slot
        binds; rejects bad datasets before any work is dispatched."""
        kernel, artifact = self._kernel, self._artifact
        if kernel._epoch != _share._adoptions:      # as Kernel.run
            kernel.rebind(kernel.tensors)
        template = kernel.tensors
        bind = (artifact.new_entry if self.executor == "processes"
                else artifact.plan_entry)
        resolved = []
        for index, dataset in enumerate(datasets):
            try:
                if isinstance(dataset, dict):
                    plan = kernel.bind_plan(tuple(dataset))
                    args = kernel._entry.args
                else:
                    dataset = list(dataset)
                    if len(dataset) != len(template):
                        artifact.validate(dataset)  # the count's error
                    plan, args = artifact._whole, artifact.seed_args
                entry, tensors = bind(plan, dataset, template, args)
            except BindingError as exc:
                raise BindingError("dataset %d: %s" % (index, exc))
            if tensors is None:         # a memo hit places nothing
                tensors = plan.place(template, dataset)
            resolved.append((tensors, entry, [
                [id(entry.args[param]) for param in held]
                or [id(tensor)]     # a slot that binds nothing: itself
                for tensor, held in zip(tensors, self._slot_held)]))
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
        # An output's own buffers pass: the loop above filed or refused them.
        for index, (tensors, _, ids) in enumerate(resolved):
            for slot, tensor in enumerate(tensors):
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
    def _wrap_failure(self, index, exc, tensors=None):
        """The enriched batch error for one failing dataset: index,
        tensor names, kernel name, and structural-key digest."""
        error = BatchExecutionError(
            index, exc,
            dataset_names=(tuple(getattr(t, "name", "?") for t in tensors)
                           if tensors is not None else None),
            kernel_name=self._artifact.name,
            structural_key=self._artifact.structural_key)
        # Wrapped failures may be collected (skip policy) instead of
        # raised in an ``except`` block, so chain the cause explicitly.
        error.__cause__ = exc
        return error

    def _run_local(self, index, dataset, worker_id):
        """One dataset, in-process, through its plan entry's prepared
        call; an exception surfaces at once."""
        start = time.perf_counter()
        tensors, entry, _ = dataset
        try:
            call = entry.call
            if call is None:
                call = entry.call = self._artifact.fn.prepare(entry.args)
            bound = time.perf_counter()
            result = call()
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

    def _run_threaded(self, index, dataset):
        """:meth:`_run_local` labelled by the thread that took it."""
        wid = getattr(self._thread_ids, "worker_id", None)
        if wid is None:
            with self._stats_lock:
                wid = "thread-%d" % self._thread_counter
                self._thread_counter += 1
            self._thread_ids.worker_id = wid
        return self._run_local(index, dataset, wid)

    def map(self, datasets):
        """Run every dataset; returns a :class:`BatchResult`.

        Datasets run concurrently under the pool's executor and
        results come back in dataset order.  What a failing dataset
        does depends on the ``on_failure`` policy: ``raise`` (default)
        raises the first failure (in index order) as a
        :class:`~repro.util.errors.BatchExecutionError` carrying its
        index; ``skip`` completes the batch and reports failed
        datasets in :attr:`BatchResult.failures`.
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
            items, failures = self._map_serial(resolved)
        elif self.executor == "threads":
            items, failures = self._map_threads(resolved)
        else:
            items, failures = self._map_processes(resolved)
        if failures and self.on_failure == "raise":
            raise failures[min(failures)]
        wall = time.perf_counter() - start
        after = self._overhead_snapshot()
        overhead = {key: after[key] - before[key]
                    for key in OVERHEAD_STAGES}
        faults_after = self._faults_snapshot()
        faults = {key: faults_after[key] - faults_before[key]
                  for key in _pool.FAULT_KEYS}
        return BatchResult(items, self.executor, self.max_workers,
                           wall, stats=self.stats(), overhead=overhead,
                           faults=faults, failures=failures)

    def _map_serial(self, resolved):
        """Run every dataset one by one; returns
        ``(items, {index: failure})``."""
        items, failures = [], {}
        for index, dataset in enumerate(resolved):
            try:
                items.append(self._run_local(index, dataset, "serial-0"))
            except BatchExecutionError as exc:
                failures[index] = exc
                if self.on_failure == "raise":
                    break
        return items, failures

    def _map_threads(self, resolved):
        """:meth:`_map_serial` over the thread executor, every dataset
        run whatever the policy: one task per worker, each taking the
        next dataset until none is left (one future per dataset cost
        more than a small kernel)."""
        pool = self._ensure_pool()
        lock = threading.Lock()
        remaining = iter(enumerate(resolved))

        def drain():
            items, failures = [], {}
            while True:
                with lock:
                    index, dataset = next(remaining, (None, None))
                if index is None:
                    return items, failures
                try:
                    items.append(self._run_threaded(index, dataset))
                except BatchExecutionError as exc:
                    failures[index] = exc

        tasks = [pool.submit(drain)
                 for _ in range(min(self.max_workers, len(resolved)))]
        items, failures = [], {}
        for task in tasks:
            done, failed = task.result()
            items += done
            failures.update(failed)
        items.sort(key=lambda item: item.index)
        return items, failures

    def _map_processes(self, resolved):
        """Dispatch one batch over the warm worker pool.

        Serialize: describe every dataset's arguments (bound
        parent-side by :meth:`_resolve`) as shm descriptors (staging
        anything not arena-resident).  Transport: seal the staging segment (one
        copy in), and after the run copy staged output regions back.
        Execute: the pool's chunked dispatch, under this pool's
        deadline/retry settings.  Collect: snapshot and assemble
        items.  Returns ``(items, failures)``
        — policy handling (raise/skip) is :meth:`map`'s job.
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
            for index, (_, entry, ids) in enumerate(resolved):
                args = entry.args
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
    datasets (:data:`ON_FAILURE` — raise / skip), ``max_retries``
    bounds the processes executor's retries of a crashed or stalled
    dataset (an int >= 0, default
    :data:`~repro.exec.pool.DEFAULT_MAX_RETRIES`), and ``deadline_s``
    pins its watchdog deadline (None derives it from the measured
    chunk cost, 0 turns it off; anything else must be finite and
    positive).

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
