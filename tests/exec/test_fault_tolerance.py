"""Fault tolerance under injected chaos: the kill matrix, the
watchdog, retry/backoff, failure policies, and interrupt hygiene.

Every fault here is injected through the chaos engine
(:mod:`repro.chaos`), so these tests double as its integration
coverage: the plan reaches long-lived workers through the per-chunk
environment handoff, fires at the real seams, and disarms cleanly
when the ``with chaos(...)`` block exits.
"""

import multiprocessing as mp
import os
import time

import numpy as np
import pytest

import repro.lang as fl
from repro.chaos import chaos
from repro.cin.analyze import program_tensors
from repro.exec import KernelPool, WorkerPool
from repro.exec import pool as pool_mod
from repro.exec import shm as shm_mod
from repro.util.errors import (BatchExecutionError, ShmAttachError,
                               TransientError, WorkerCrashError,
                               WorkerStallError, is_transient)

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


def dot_kernel():
    return fl.compile_kernel(dot_program(*make_pair(0)))


def shm_entries():
    prefix = "%s_%d_" % (shm_mod.SHM_PREFIX, os.getpid())
    return {name for name in os.listdir("/dev/shm")
            if name.startswith(prefix)}


def test_transient_taxonomy():
    """The retry machinery keys off is_transient: infrastructure
    faults are transient, kernel/user exceptions are not."""
    assert is_transient(WorkerCrashError("pid-1", -9, 0))
    assert is_transient(WorkerStallError("pid-1", 0, 1.0))
    assert is_transient(ShmAttachError("gone"))
    assert not is_transient(ValueError("kernel bug"))
    assert not is_transient(KeyboardInterrupt())
    assert issubclass(WorkerStallError, TransientError)


# -- the kill matrix -------------------------------------------------------

KILL_MODES = [
    ("exit", {"mode": "exit", "exit_code": 23}, 23),
    ("sys_exit", {"mode": "sys_exit", "exit_code": 7}, 7),
    ("sigkill", {"mode": "sigkill"}, -9),
    ("sigterm", {"mode": "sigterm"}, -15),
]


@pytest.mark.parametrize("mode,rule,expected_code",
                         KILL_MODES, ids=[m[0] for m in KILL_MODES])
def test_kill_matrix_attributes_and_heals(mode, rule, expected_code):
    """However a worker dies mid-dataset — clean exit, SystemExit,
    SIGKILL, SIGTERM — the death is attributed to the in-flight
    dataset with the real exit code, and the same pool serves the
    next batch."""
    kernel = dot_kernel()
    with WorkerPool(max_workers=2) as workers:
        with KernelPool(kernel, executor="processes",
                        worker_pool=workers, max_retries=0) as pool:
            with chaos("worker_crash", index=2, **rule):
                with pytest.raises(BatchExecutionError) as info:
                    pool.map(dot_datasets(6))
            assert info.value.index == 2
            cause = info.value.__cause__
            assert isinstance(cause, WorkerCrashError)
            assert cause.exitcode == expected_code
            assert cause.index == 2
            result = pool.map(dot_datasets(6))
            assert outputs_of(result) == pytest.approx(expected_dots(6))
        stats = workers.stats()
        assert stats["crashes"] >= 1
        assert stats["respawns"] >= 1
        assert stats["alive"] == workers.max_workers


def test_watchdog_kills_hung_worker_within_deadline():
    """A worker wedged for 60s is detected in ~the 1s deadline, killed,
    attributed as WorkerStallError, and its slot respawned."""
    kernel = dot_kernel()
    with WorkerPool(max_workers=2) as workers:
        with KernelPool(kernel, executor="processes",
                        worker_pool=workers, max_retries=0,
                        deadline_s=1.0) as pool:
            start = time.monotonic()
            with chaos("worker_stall", index=1, stall_s=60):
                with pytest.raises(BatchExecutionError) as info:
                    pool.map(dot_datasets(4))
            elapsed = time.monotonic() - start
            assert elapsed < 20, "watchdog did not bound the stall"
            cause = info.value.__cause__
            assert isinstance(cause, WorkerStallError)
            assert cause.index == 1
            assert cause.deadline_s == pytest.approx(1.0)
            result = pool.map(dot_datasets(4))
            assert outputs_of(result) == pytest.approx(expected_dots(4))
        assert workers.stats()["stalls"] >= 1
        assert workers.stats()["alive"] == workers.max_workers


# -- retry / backoff -------------------------------------------------------

def test_one_crash_retries_to_success():
    """A single transient crash is absorbed by the retry budget: the
    batch succeeds bit-for-bit and the fault ledger shows the save."""
    kernel = dot_kernel()
    with WorkerPool(max_workers=2) as workers:
        with KernelPool(kernel, executor="processes",
                        worker_pool=workers, max_retries=2) as pool:
            with chaos("worker_crash", nth=1):
                result = pool.map(dot_datasets(6))
            assert outputs_of(result) == pytest.approx(expected_dots(6))
            assert result.faults["crashes"] >= 1
            assert result.faults["retries"] >= 1
            assert not result.failures
            assert pool.stats()["faults"]["retries"] >= 1


def test_shm_attach_race_retries_to_success():
    """A chaos-injected ShmAttachError in a worker is transient: the
    dataset re-stages on retry and the batch still matches."""
    kernel = dot_kernel()
    with WorkerPool(max_workers=2) as workers:
        with KernelPool(kernel, executor="processes",
                        worker_pool=workers, max_retries=2) as pool:
            with chaos("shm_attach_fail", nth=1):
                result = pool.map(dot_datasets(6))
            assert outputs_of(result) == pytest.approx(expected_dots(6))
            assert result.faults["transient_errors"] >= 1
            assert result.faults["retries"] >= 1


def test_retry_budget_exhausts_to_typed_error():
    """A fault that fires on every attempt burns the whole retry
    budget, then surfaces as the documented typed error."""
    kernel = dot_kernel()
    with WorkerPool(max_workers=2) as workers:
        with KernelPool(kernel, executor="processes",
                        worker_pool=workers, max_retries=1) as pool:
            with chaos("worker_crash", index=2):
                with pytest.raises(BatchExecutionError) as info:
                    pool.map(dot_datasets(4))
            assert isinstance(info.value.__cause__, WorkerCrashError)
            assert pool.stats()["faults"]["retries"] >= 1


# -- failure policies ------------------------------------------------------

def test_skip_isolates_poisoned_dataset():
    """on_failure='skip': the poisoned dataset lands in
    BatchResult.failures as a typed error; every survivor's output is
    untouched."""
    kernel = dot_kernel()
    with WorkerPool(max_workers=2) as workers:
        with KernelPool(kernel, executor="processes",
                        worker_pool=workers, on_failure="skip",
                        max_retries=0) as pool:
            with chaos("worker_crash", index=3):
                result = pool.map(dot_datasets(6))
            assert set(result.failures) == {3}
            failure = result.failures[3]
            assert isinstance(failure, BatchExecutionError)
            assert isinstance(failure.__cause__, WorkerCrashError)
            assert [item.index for item in result] == [0, 1, 2, 4, 5]
            expected = expected_dots(6)
            for item in result:
                assert float(item.outputs[0]) == pytest.approx(
                    expected[item.index])


def test_run_batch_threads_policy_params():
    """The policy knobs ride through the one-call API on every
    executor, not just processes."""
    template = dot_program(*make_pair(0))
    result = fl.run_batch(template, dot_datasets(4),
                          executor="threads", max_workers=2,
                          on_failure="skip", max_retries=1)
    assert outputs_of(result) == pytest.approx(expected_dots(4))
    assert not result.failures


# -- interrupt hygiene -----------------------------------------------------

def test_keyboard_interrupt_leaves_no_orphans(monkeypatch):
    """Ctrl-C mid-batch must not orphan workers or leak segments: the
    in-flight workers are discarded, the pool heals lazily, and the
    next map on the same pool succeeds.  Segments alive before the
    test (an earlier test's process-wide default pool maps its progress
    array for the pool's life) are not this pool's."""
    kernel = dot_kernel()
    segments_before = shm_entries()
    children_before = {proc.pid for proc in mp.active_children()}
    with WorkerPool(max_workers=2) as workers:
        with KernelPool(kernel, executor="processes",
                        worker_pool=workers) as pool:
            result = pool.map(dot_datasets(4))
            assert outputs_of(result) == pytest.approx(expected_dots(4))
            baseline = shm_entries()
            real_wait = pool_mod.mp_connection.wait
            calls = {"n": 0}

            def interrupted_wait(*args, **kwargs):
                calls["n"] += 1
                if calls["n"] == 1:
                    raise KeyboardInterrupt
                return real_wait(*args, **kwargs)

            monkeypatch.setattr(pool_mod.mp_connection, "wait",
                                interrupted_wait)
            with pytest.raises(KeyboardInterrupt):
                pool.map(dot_datasets(4, start_seed=9))
            assert shm_entries() <= baseline, "interrupt leaked shm"
            result = pool.map(dot_datasets(4, start_seed=9))
            assert outputs_of(result) == pytest.approx(
                expected_dots(4, start_seed=9))
    leaked = shm_entries() - segments_before
    assert not leaked, "closed pool left segments: %s" % sorted(leaked)
    orphans = {proc.pid
               for proc in mp.active_children()} - children_before
    assert not orphans, "orphan workers: %s" % sorted(orphans)
