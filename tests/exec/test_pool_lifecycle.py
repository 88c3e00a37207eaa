"""Warm worker-pool lifecycle: reuse, shutdown, start methods, crashes.

The pool's contract is *persistence*: workers outlive individual
``run_batch``/``KernelPool.map`` calls, kernel specs ship to each
worker at most once per pool lifetime, and a worker death is both
attributed (which dataset was in flight) and healed (the slot is
respawned so the next batch succeeds).
"""

import multiprocessing as mp

import numpy as np
import pytest

import repro.lang as fl
from repro.chaos import chaos
from repro.cin.analyze import program_tensors
from repro.exec import KernelPool, WorkerPool, default_pool, run_batch
from repro.exec.pool import START_METHODS
from repro.util import config
from repro.util.errors import BatchExecutionError, WorkerCrashError

N = 120


def make_pair(seed):
    rng = np.random.default_rng(seed)
    a = np.zeros(N)
    support = rng.choice(N, 12, replace=False)
    a[support] = rng.random(12) + 0.1
    b = np.zeros(N)
    lo = int(rng.integers(0, N - 30))
    b[lo:lo + 20] = rng.random(20) + 0.1
    a[lo] = 1.0
    return a, b


def dot_program(a, b):
    A = fl.from_numpy(a, ("sparse",), name="A")
    B = fl.from_numpy(b, ("band",), name="B")
    C = fl.Scalar(name="C")
    i = fl.indices("i")
    return fl.forall(i, fl.increment(C[()], A[i] * B[i]))


def dot_datasets(count, start_seed=1):
    return [program_tensors(dot_program(*make_pair(seed)))
            for seed in range(start_seed, start_seed + count)]


def expected_dots(count, start_seed=1):
    return [float(np.dot(*make_pair(seed)))
            for seed in range(start_seed, start_seed + count)]


def outputs_of(result):
    return [float(item.outputs[0]) for item in result]


def test_default_pool_is_warm_across_run_batch_calls():
    """Two run_batch calls share the module-level pool: same object,
    no extra worker spawns for the second batch."""
    template = dot_program(*make_pair(0))
    pool = default_pool()
    run_batch(template, dot_datasets(3), executor="processes")
    mid = default_pool().stats()
    result = run_batch(template, dot_datasets(3, start_seed=4),
                       executor="processes")
    after = default_pool().stats()
    assert default_pool() is pool
    assert after["workers_spawned"] == mid["workers_spawned"]
    assert after["batches"] == mid["batches"] + 1
    assert outputs_of(result) == pytest.approx(
        expected_dots(3, start_seed=4))


def test_configure_pool_options_replace_and_close_default():
    old = default_pool()
    try:
        fl.configure(pool_max_workers=1)
        new = default_pool()
        assert new is not old
        assert old.closed
        assert new.max_workers == 1
        template = dot_program(*make_pair(0))
        result = run_batch(template, dot_datasets(2),
                           executor="processes")
        assert outputs_of(result) == pytest.approx(expected_dots(2))
    finally:
        # Restore a machine-sized default.
        fl.configure(pool_max_workers=config.UNSET)


def test_worker_pool_close_is_idempotent():
    template = dot_program(*make_pair(0))
    kernel = fl.compile_kernel(template)
    workers = WorkerPool(max_workers=1)
    pool = KernelPool(kernel, executor="processes",
                      worker_pool=workers)
    pool.map(dot_datasets(2))
    workers.close()
    workers.close()  # second close is a no-op
    assert workers.closed
    with pytest.raises(RuntimeError, match="closed"):
        pool.map(dot_datasets(2))
    pool.close()


def test_explicit_pool_survives_kernel_pool_and_ships_specs_once():
    """An explicitly provided WorkerPool is never closed by the
    KernelPool, and a kernel's spec crosses the pipe at most once per
    worker even across KernelPool instances."""
    template = dot_program(*make_pair(0))
    kernel = fl.compile_kernel(template)
    with WorkerPool(max_workers=2) as workers:
        for start_seed in (1, 4):
            with KernelPool(kernel, executor="processes",
                            worker_pool=workers) as pool:
                result = pool.map(dot_datasets(3,
                                               start_seed=start_seed))
            assert not workers.closed
            assert outputs_of(result) == pytest.approx(
                expected_dots(3, start_seed=start_seed))
        assert 1 <= workers.stats()["specs_shipped"] \
            <= workers.max_workers


@pytest.mark.parametrize("method", START_METHODS)
def test_start_method_matrix(method):
    """The pool produces identical results under every available
    multiprocessing start method."""
    if method not in mp.get_all_start_methods():
        pytest.skip("start method %r unavailable here" % method)
    template = dot_program(*make_pair(0))
    kernel = fl.compile_kernel(template)
    with WorkerPool(max_workers=2, start_method=method) as workers:
        assert workers.stats()["start_method"] == method
        with KernelPool(kernel, executor="processes",
                        worker_pool=workers) as pool:
            result = pool.map(dot_datasets(3))
    assert outputs_of(result) == pytest.approx(expected_dots(3))


def test_worker_crash_is_attributed_and_healed():
    """A worker dying mid-chunk surfaces as BatchExecutionError with
    the in-flight dataset index (cause: WorkerCrashError), the slot is
    respawned, and the next map on the same pool succeeds."""
    template = dot_program(*make_pair(0))
    kernel = fl.compile_kernel(template)
    with WorkerPool(max_workers=2) as workers:
        with KernelPool(kernel, executor="processes",
                        worker_pool=workers, max_retries=0) as pool:
            with chaos("worker_crash", index=3, exit_code=17):
                with pytest.raises(BatchExecutionError) as info:
                    pool.map(dot_datasets(6))
            assert info.value.index == 3
            cause = info.value.__cause__
            assert isinstance(cause, WorkerCrashError)
            assert cause.exitcode == 17
            assert cause.index == 3
            # The fault is disarmed outside the chaos block; reuse
            # the *same* pool: the dead slot must have been respawned.
            result = pool.map(dot_datasets(6))
            assert outputs_of(result) == pytest.approx(
                expected_dots(6))
        stats = workers.stats()
        assert stats["respawns"] >= 1
        assert stats["crashes"] >= 1
        assert stats["alive"] == workers.max_workers


@pytest.mark.parametrize("where", ["serial", "threads", "processes",
                                   "WorkerPool", "run_batch",
                                   "configure"])
@pytest.mark.parametrize("max_workers", [0, -1, 0.5, True])
def test_max_workers_is_none_or_a_positive_int(where, max_workers):
    """A worker count is None (the CPU count) or an int >= 1 on every
    entry point; 0 never silently means the CPU count, and the serial
    executor does not ignore the value."""
    template = dot_program(*make_pair(0))
    with pytest.raises(ValueError, match="max_workers"):
        if where in ("serial", "threads", "processes"):
            KernelPool(fl.compile_kernel(template), executor=where,
                       max_workers=max_workers)
        elif where == "WorkerPool":
            WorkerPool(max_workers=max_workers)
        elif where == "run_batch":
            run_batch(template, dot_datasets(1),
                      max_workers=max_workers)
        else:
            fl.configure(pool_max_workers=max_workers)
    assert config.snapshot(["pool_max_workers"]) == {}
