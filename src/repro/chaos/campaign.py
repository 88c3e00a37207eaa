"""The chaos campaign: sweep fault x executor x policy, assert safety.

One campaign proves the fault-tolerance layer's contract the same way
the conformance engine proves the compiler's: systematically, against
a fault-free oracle.  For every registered fault point, every executor
(serial / threads / processes), and every failure policy (raise /
skip), a case runs the same self-contained workload — a
sparse-times-band dot product over :data:`DATASETS` datasets — under
an armed chaos plan and must end in one of three *documented* states:

``identical``
    the batch succeeded and every output is bit-identical to the
    fault-free serial run (with identical instrumented op totals);

``typed-error``
    the batch raised :class:`~repro.util.errors.BatchExecutionError`
    attributing the poisoned dataset, with the documented cause type
    (``WorkerCrashError`` / ``WorkerStallError``);

``skip-partial``
    (skip policy) exactly the poisoned dataset is reported in
    ``BatchResult.failures`` and every other output is bit-identical.

Which state is *expected* is a function of the case: a worker-level
fault pinned to one dataset (crash/stall at ``index=3``, firing every
attempt) exhausts the pool's retry, so it must raise under ``raise``
and be isolated under ``skip`` — nothing re-runs a dataset that kills
its worker in the calling process.  A one-shot environment fault (shm
attach race, store read error, corrupt store entry, slow chunk) must
be absorbed — bit-identical — under every policy.  Worker-level fault
points are inert outside the processes executor, so those rows must
come back identical too (the fault genuinely did not fire).

Every case additionally asserts the hygiene invariants: zero leaked
``/dev/shm`` segments, zero orphan worker processes, and — for stall
cases — detection well inside the wedged worker's sleep (the watchdog,
not the 30s stall, bounded the wall time).

Entry point: :func:`run_campaign`; CLI: ``python -m repro.chaos``.
"""

import multiprocessing as mp
import os
import shutil
import tempfile
import time

import numpy as np

import repro.lang as fl
from repro.chaos import chaos, fault_points
from repro.cin.analyze import program_tensors
from repro.compiler.kernel import KERNEL_CACHE
from repro.exec import shm as _shm
from repro.util.errors import (BatchExecutionError, WorkerCrashError,
                               WorkerStallError)

N = 96
DATASETS = 8
POISON_INDEX = 3  # the dataset worker-level faults are pinned to

EXECUTORS = ("serial", "threads", "processes")
POLICIES = ("raise", "skip")

#: How long an injected stall sleeps.  The watchdog (deadline ~1.5s)
#: must detect and kill it long before this elapses; the campaign
#: asserts stall cases finish in a fraction of it.
STALL_S = 30.0
STALL_DEADLINE_S = 1.5


def fault_plan(fault, seed):
    """The chaos plan one campaign case arms for ``fault``."""
    if fault == "worker_crash":
        return {fault: {"index": POISON_INDEX, "exit_code": 23}}
    if fault == "worker_stall":
        return {fault: {"index": POISON_INDEX, "stall_s": STALL_S}}
    if fault == "slow_chunk":
        return {fault: {"p": 0.5, "seed": seed, "delay_s": 0.01}}
    # One-shot environment faults: fire once, anywhere in the fleet.
    return {fault: {"nth": 1}}


def expected_status(fault, executor, policy):
    """The documented outcome of one case (see module docstring)."""
    if executor == "processes" and fault in ("worker_crash",
                                             "worker_stall"):
        return {"raise": "typed-error", "skip": "skip-partial"}[policy]
    return "identical"


# -- the workload ----------------------------------------------------------

def _make_pair(seed):
    rng = np.random.default_rng(seed)
    a = np.zeros(N)
    support = rng.choice(N, 12, replace=False)
    a[support] = rng.random(12) + 0.1
    b = np.zeros(N)
    lo = int(rng.integers(0, N - 30))
    b[lo:lo + 20] = rng.random(20) + 0.1
    a[lo] = 1.0
    return a, b


def _dot_program(a, b):
    A = fl.from_numpy(a, ("sparse",), name="A")
    B = fl.from_numpy(b, ("band",), name="B")
    C = fl.Scalar(name="C")
    i = fl.indices("i")
    return fl.forall(i, fl.increment(C[()], A[i] * B[i]))


def _datasets(count, seed):
    return [program_tensors(_dot_program(*_make_pair(seed + 1 + k)))
            for k in range(count)]


def _shm_entries():
    prefix = "%s_%d_" % (_shm.SHM_PREFIX, os.getpid())
    try:
        names = os.listdir("/dev/shm")
    except OSError:  # pragma: no cover - non-tmpfs platforms
        return set(_shm.active_segments())
    return {name for name in names if name.startswith(prefix)}


# -- one case --------------------------------------------------------------

def _run_case(kernel, fault, executor, policy, seed, count,
              max_retries):
    """Execute one armed case; returns (status, result, error, stats).

    ``status`` is the observed classification; ``stats`` the
    KernelPool's fault ledger (available even when the map raised).
    """
    datasets = _datasets(count, seed)
    plan = fault_plan(fault, seed)
    deadline = STALL_DEADLINE_S if fault == "worker_stall" else None
    worker_pool = None
    if executor == "processes":
        worker_pool = fl.WorkerPool(max_workers=2)
    kp = fl.KernelPool(kernel, executor=executor,
                       max_workers=None if worker_pool else 2,
                       worker_pool=worker_pool, on_failure=policy,
                       max_retries=max_retries, deadline_s=deadline)
    result = error = None
    try:
        with chaos(plan):
            try:
                result = kp.map(datasets)
            except BatchExecutionError as exc:
                error = exc
        faults = kp.stats()["faults"]
    finally:
        kp.close()
        if worker_pool is not None:
            worker_pool.close()
    if error is not None:
        return "typed-error", result, error, faults
    if result.failures:
        return "skip-partial", result, error, faults
    return "identical", result, error, faults


def _check_case(case, status, result, error, faults, expected_values,
                expected_ops):
    """The per-case assertions; returns a list of violation strings."""
    fault, executor, policy = (case["fault"], case["executor"],
                               case["policy"])
    bad = []
    want = expected_status(fault, executor, policy)
    if status != want:
        detail = ": %s" % error if error is not None else ""
        bad.append("expected %s, observed %s%s"
                   % (want, status, detail))
        return bad

    def check_outputs(items, note):
        for item in items:
            value = item.outputs[0]
            if not np.array_equal(value, expected_values[item.index]):
                bad.append("dataset %d %s diverged from the "
                           "fault-free run" % (item.index, note))

    if status == "identical":
        check_outputs(result.items, "output")
        if len(result) != len(expected_values):
            bad.append("only %d/%d datasets completed"
                       % (len(result), len(expected_values)))
        if result.total_ops != expected_ops:
            bad.append("op total %r != fault-free %r"
                       % (result.total_ops, expected_ops))
    elif status == "skip-partial":
        if set(result.failures) != {POISON_INDEX}:
            bad.append("failures %r != {%d}"
                       % (sorted(result.failures), POISON_INDEX))
        check_outputs(result.items, "surviving output")
        for exc in result.failures.values():
            if not isinstance(exc, BatchExecutionError):
                bad.append("untyped failure %r" % (exc,))
    else:  # typed-error
        if error.index != POISON_INDEX:
            bad.append("error attributed to dataset %d, not %d"
                       % (error.index, POISON_INDEX))
        cause_type = {"worker_crash": WorkerCrashError,
                      "worker_stall": WorkerStallError}[fault]
        if not isinstance(error.cause, cause_type):
            bad.append("cause %s is not %s"
                       % (type(error.cause).__name__,
                          cause_type.__name__))
    if executor == "processes" and fault == "worker_stall":
        if faults.get("stalls", 0) < 1:
            bad.append("no stall recorded by the watchdog")
        if case["elapsed_s"] > STALL_S / 2:
            bad.append("took %.1fs — the stall, not the watchdog, "
                       "bounded the case" % case["elapsed_s"])
    if executor == "processes" and fault == "worker_crash":
        if faults.get("crashes", 0) < 1:
            bad.append("no crash recorded by the pool")
    return bad


# -- the campaign ----------------------------------------------------------

def run_campaign(seed=0, faults=None, executors=None, policies=None,
                 count=DATASETS, max_retries=1, log=None):
    """Run the full sweep; returns a JSON-safe report dict.

    ``report["ok"]`` is True when every case landed in its documented
    state and every hygiene invariant held.  ``faults`` / ``executors``
    / ``policies`` restrict the swept axes (default: everything).
    """
    say = log or (lambda message: None)
    faults = list(faults or sorted(fault_points()))
    executors = list(executors or EXECUTORS)
    policies = list(policies or POLICIES)
    store_root = tempfile.mkdtemp(prefix="flchaos-store-")
    env_before = os.environ.get("FL_KERNEL_STORE")
    os.environ["FL_KERNEL_STORE"] = store_root
    try:
        # Fault-free oracle (serial, warm store written behind).
        template = _dot_program(*_make_pair(seed))
        baseline = fl.run_batch(template, _datasets(count, seed),
                                executor="serial", instrument=True,
                                cache=True)
        expected_values = [item.outputs[0] for item in baseline.items]
        expected_ops = baseline.total_ops
        kernel = fl.compile_kernel(template, instrument=True)
        shm_before = _shm_entries()
        children_before = {proc.pid for proc in mp.active_children()}
        cases = []
        violations = 0
        for fault in faults:
            for executor in executors:
                for policy in policies:
                    if fault.startswith("store_"):
                        # Force the next compile through the disk
                        # store so the read-path fault has something
                        # to bite.
                        KERNEL_CACHE.clear()
                        kernel = fl.compile_kernel(template,
                                                   instrument=True)
                    case = {"fault": fault, "executor": executor,
                            "policy": policy}
                    start = time.perf_counter()
                    status, result, error, fstats = _run_case(
                        kernel, fault, executor, policy, seed, count,
                        max_retries)
                    case["elapsed_s"] = time.perf_counter() - start
                    case["status"] = status
                    case["faults"] = {key: value for key, value
                                      in fstats.items() if value}
                    bad = _check_case(case, status, result, error,
                                      fstats, expected_values,
                                      expected_ops)
                    leaked = _shm_entries() - shm_before
                    if leaked:
                        bad.append("leaked shm segments: %s"
                                   % sorted(leaked))
                    orphans = {proc.pid
                               for proc in mp.active_children()
                               } - children_before
                    if orphans:
                        bad.append("orphan workers: %s"
                                   % sorted(orphans))
                    case["violations"] = bad
                    violations += len(bad)
                    cases.append(case)
                    say("%-20s %-10s %-8s -> %-11s %s"
                        % (fault, executor, policy, status,
                           "OK" if not bad else "; ".join(bad)))
        return {"seed": seed, "datasets": count,
                "max_retries": max_retries, "cases": cases,
                "violations": violations, "ok": violations == 0}
    finally:
        if env_before is None:
            os.environ.pop("FL_KERNEL_STORE", None)
        else:
            os.environ["FL_KERNEL_STORE"] = env_before
        KERNEL_CACHE.clear()
        shutil.rmtree(store_root, ignore_errors=True)
