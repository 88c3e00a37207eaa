"""Batch engine: executor equivalence, failure modes, degeneracies.

The acceptance property of the batch subsystem is *differential*: one
compiled kernel mapped over the same datasets must produce bit-identical
output snapshots and identical aggregate instrumented op counts under
the serial, threads, and processes executors — concurrency shards the
work, it never changes it.
"""

import types

import numpy as np
import pytest

import repro.lang as fl
from repro.cin.analyze import program_tensors
from repro.exec import EXECUTORS, KernelPool, run_batch
from repro.util.errors import BatchExecutionError, BindingError, SpecError

N = 300


def make_pair(seed):
    """A sparse-list and a banded vector with guaranteed overlap."""
    rng = np.random.default_rng(seed)
    a = np.zeros(N)
    support = rng.choice(N, 30, replace=False)
    a[support] = rng.random(30) + 0.1
    b = np.zeros(N)
    lo = int(rng.integers(0, N - 50))
    b[lo:lo + 40] = rng.random(40) + 0.1
    a[lo] = 1.0  # at least one intersection point
    return a, b


def dot_program(a, b):
    A = fl.from_numpy(a, ("sparse",), name="A")
    B = fl.from_numpy(b, ("band",), name="B")
    C = fl.Scalar(name="C")
    i = fl.indices("i")
    return fl.forall(i, fl.increment(C[()], A[i] * B[i]))


def dot_datasets(count, start_seed=1):
    programs = [dot_program(*make_pair(seed))
                for seed in range(start_seed, start_seed + count)]
    return [program_tensors(program) for program in programs]


def named(tensors, name):
    """Position of the tensor called ``name`` in a slot list."""
    return next(slot for slot, tensor in enumerate(tensors)
                if tensor.name == name)


def spmv_program(mat, vec):
    A = fl.from_numpy(mat, ("dense", "sparse"), name="A")
    x = fl.from_numpy(vec, ("sparse",), name="x")
    y = fl.zeros(mat.shape[0], name="y")
    i, j = fl.indices("i", "j")
    return fl.forall(i, fl.forall(j, fl.increment(
        y[i], A[i, j] * x[j])))


def test_differential_across_executors():
    """>= 8 datasets: bit-identical outputs and identical aggregate op
    counts under serial, threads, and processes (the acceptance
    criterion of the batch engine)."""
    template = dot_program(*make_pair(0))
    datasets = dot_datasets(9)
    expected = [float(a @ b)
                for a, b in (make_pair(seed) for seed in range(1, 10))]
    results = {}
    for executor in EXECUTORS:
        results[executor] = run_batch(
            template, datasets, executor=executor, max_workers=3,
            instrument=True)
    serial = results["serial"]
    assert len(serial) == 9
    for item, value in zip(serial, expected):
        assert float(item.outputs[0]) == pytest.approx(value)
    for executor in ("threads", "processes"):
        other = results[executor]
        assert other.total_ops == serial.total_ops
        assert [item.ops for item in other] == \
            [item.ops for item in serial]
        for left, right in zip(serial, other):
            for base, out in zip(left.outputs, right.outputs):
                assert base.dtype == out.dtype
                assert base.shape == out.shape
                assert base.tobytes() == out.tobytes()
    assert serial.total_ops > 0


def test_multi_output_differential():
    """A 2-D kernel with a vector output stays deterministic under
    every executor."""
    rng = np.random.default_rng(3)

    def make_mat(seed):
        gen = np.random.default_rng(seed)
        mat = gen.random((12, 16))
        mat[mat < 0.6] = 0.0
        return mat

    vec = rng.random(16)
    vec[vec < 0.4] = 0.0
    template = spmv_program(make_mat(0), vec)
    datasets = [program_tensors(spmv_program(make_mat(seed), vec))
                for seed in range(1, 9)]
    reference = None
    for executor in EXECUTORS:
        result = run_batch(template, datasets, executor=executor,
                           max_workers=2, instrument=True)
        snap = (result.total_ops,
                [[out.tobytes() for out in item.outputs]
                 for item in result])
        if reference is None:
            reference = snap
        else:
            assert snap == reference
    for item, seed in zip(result, range(1, 9)):
        np.testing.assert_allclose(item.outputs[0],
                                   make_mat(seed) @ vec)


@pytest.mark.parametrize("executor", EXECUTORS)
def test_every_executor_mutates_datasets_in_place(executor):
    """All three executors write outputs into the caller's tensors:
    serial/threads run in-process, and the processes executor writes
    back through its shared-memory transport."""
    template = dot_program(*make_pair(0))
    datasets = dot_datasets(3)
    result = run_batch(template, datasets, executor=executor,
                       max_workers=2)
    for tensors, item in zip(datasets, result):
        scalar = tensors[named(tensors, "C")]
        assert scalar.value == pytest.approx(float(item.outputs[0]))


@pytest.mark.parametrize("executor", EXECUTORS)
def test_empty_batch_degenerates(executor):
    template = dot_program(*make_pair(0))
    result = run_batch(template, [], executor=executor,
                       instrument=True)
    assert len(result) == 0
    assert result.outputs == []
    assert result.total_ops == 0
    assert result.stats["runs"] == 0


@pytest.mark.parametrize("executor", EXECUTORS)
def test_single_dataset_degenerates(executor):
    template = dot_program(*make_pair(0))
    a, b = make_pair(42)
    [dataset] = [program_tensors(dot_program(a, b))]
    result = run_batch(template, [dataset], executor=executor,
                       instrument=True)
    assert len(result) == 1
    assert float(result[0].outputs[0]) == pytest.approx(float(a @ b))
    assert result.total_ops == result[0].ops
    assert result.stats["runs"] == 1


def dense_dot_program(a, b):
    A = fl.from_numpy(a, ("dense",), name="A")
    B = fl.from_numpy(b, ("dense",), name="B")
    C = fl.Scalar(name="C")
    i = fl.indices("i")
    return fl.forall(i, fl.increment(C[()], A[i] * B[i]))


def poisoned_dense_batch(count=5, poisoned=(3,)):
    """A dense dot template and ``count`` datasets, each one in
    ``poisoned`` making the kernel raise IndexError (compile at
    ``opt_level=0``: a vectorized slice read would silently clamp
    instead of raising)."""
    rng = np.random.default_rng(7)
    template = dense_dot_program(rng.random(8), rng.random(8))
    datasets = []
    for position in range(count):
        tensors = program_tensors(
            dense_dot_program(rng.random(8), rng.random(8)))
        if position in poisoned:
            # Truncate the value buffer behind the format signature's
            # back: binding succeeds, the kernel's scalar loop then
            # indexes past the end and raises IndexError.
            broken = tensors[named(tensors, "A")]
            broken.element.val = broken.element.val[:4]
        datasets.append(tensors)
    return template, datasets


@pytest.mark.parametrize("executor", EXECUTORS)
def test_worker_error_carries_dataset_index(executor):
    """A dataset that raises inside the kernel surfaces as
    BatchExecutionError with the failing index attached."""
    template, datasets = poisoned_dense_batch()
    with pytest.raises(BatchExecutionError) as info:
        run_batch(template, datasets, executor=executor,
                  max_workers=2, opt_level=0)
    assert info.value.index == 3
    assert "IndexError" in str(info.value)


@pytest.mark.parametrize("executor", ["serial", "threads"])
def test_in_process_kernel_error_is_not_retried(executor):
    """Serial and threads runs have no recovery path: a kernel that
    raises surfaces at once, whatever the retry budget, and the
    batch's fault ledger stays at zero."""
    template, datasets = poisoned_dense_batch()
    kernel = fl.compile_kernel(template, opt_level=0)
    with KernelPool(kernel, executor=executor, max_workers=2,
                    max_retries=3) as pool:
        with pytest.raises(BatchExecutionError) as info:
            pool.map(datasets)
        faults = pool.stats()["faults"]
    assert info.value.index == 3
    assert not any(faults.values()), faults


@pytest.mark.parametrize("policy", ["raise", "skip"])
def test_a_threads_map_submits_one_task_per_worker(policy):
    """Each worker thread drains the datasets left; the items, their
    order and the failures are the serial map's under either policy."""
    template, datasets = poisoned_dense_batch(count=9, poisoned=(2, 6))
    kernel = fl.compile_kernel(template, opt_level=0)
    outcomes, submits = {}, []
    for executor in ("serial", "threads"):
        with KernelPool(kernel, executor=executor, max_workers=3,
                        on_failure=policy) as pool:
            if executor == "threads":
                threads = pool._ensure_pool()
                submit = threads.submit
                threads.submit = lambda *args: (
                    submits.append(args), submit(*args))[1]
            try:
                result = pool.map(datasets)
            except BatchExecutionError as exc:
                outcomes[executor] = exc.index
            else:
                outcomes[executor] = (
                    [(item.index, [np.asarray(out).tobytes()
                                   for out in item.outputs])
                     for item in result], sorted(result.failures))
    assert len(submits) == 3
    assert outcomes["threads"] == outcomes["serial"]
    if policy == "raise":
        assert outcomes["serial"] == 2
    else:
        items, failed = outcomes["serial"]
        assert failed == [2, 6]
        assert [index for index, _ in items] == [0, 1, 3, 4, 5, 7, 8]


def test_signature_mismatch_rejected_up_front():
    """Datasets whose formats do not match the artifact fail fast,
    before any dataset is dispatched (nothing runs)."""
    template = dot_program(*make_pair(0))
    good = dot_datasets(2)
    a, b = make_pair(99)
    bad = program_tensors(dot_program(a, b))
    # The B slot expects the band format; hand it a sparse-list tensor.
    band_slot = named(bad, "B")
    bad[band_slot] = fl.from_numpy(b, ("sparse",), name="B")
    kernel = fl.compile_kernel(template)
    with KernelPool(kernel, executor="serial") as pool:
        with pytest.raises(
                BindingError,
                match="dataset 2: slot %d" % band_slot):
            pool.map(good + [bad])
        assert pool.stats()["runs"] == 0


@pytest.mark.parametrize("executor", ["serial", "threads"])
def test_an_in_process_map_prepares_each_dataset_once(executor,
                                                      monkeypatch):
    """In-process, a dataset binds through a bind-plan entry: a name
    dataset through the kernel's plan of its names, a sequence through
    the artifact's whole plan.  Two maps of the same datasets prepare
    each dataset's call once, and the second map binds none again."""
    from repro.compiler.kernel import CompiledKernel

    kernel = fl.compile_kernel(dot_program(*make_pair(0)), cache=False)
    artifact = kernel.artifact
    _, _, B = kernel.tensors
    prepared, points = [], []
    prepare, point = artifact.fn.prepare, CompiledKernel._point

    def counted_prepare(args):
        prepared.append(args)
        return prepare(args)

    def counted_point(self, *args, **kwargs):
        points.append(self)
        return point(self, *args, **kwargs)

    monkeypatch.setattr(artifact.fn, "prepare", counted_prepare)
    monkeypatch.setattr(CompiledKernel, "_point", counted_point)
    sequences = dot_datasets(3)
    names = [{"C": fl.Scalar(name="C"), "A": A}
             for _, A, _ in dot_datasets(3, start_seed=4)]
    expected = [float(A.to_numpy() @ B_.to_numpy())
                for _, A, B_ in sequences]
    expected += [float(dataset["A"].to_numpy() @ B.to_numpy())
                 for dataset in names]
    with KernelPool(kernel, executor=executor, max_workers=2) as pool:
        for bound in (6, 6):
            result = pool.map(sequences + names)
            assert [float(item.outputs[0]) for item in result] == \
                pytest.approx(expected)
            assert (len(prepared), len(points)) == (6, bound)
    assert len(artifact._whole.memo) == len(sequences)
    assert len(kernel.bind_plan(("C", "A")).memo) == len(names)


@pytest.mark.parametrize("executor", EXECUTORS)
def test_a_map_reads_the_template_as_an_adoption_left_it(executor):
    """A name dataset takes its untouched slots from the kernel's
    binding: after ``share_tensor`` re-points a template tensor, the
    next map binds the adopted arrays, as the kernel's next run
    would."""
    kernel = fl.compile_kernel(dot_program(*make_pair(0)), cache=False)
    _, _, B = kernel.tensors
    datasets = [{"C": fl.Scalar(name="C"), "A": A}
                for _, A, _ in dot_datasets(2)]
    arena = fl.ShmArena()
    try:
        with KernelPool(kernel, executor=executor, max_workers=2) as pool:
            pool.map(datasets)
            fl.share_tensor(B, arena)
            B.element.val[:] *= 2.0     # the adopted array
            result = pool.map(datasets)
        assert [float(item.outputs[0]) for item in result] == \
            pytest.approx([float(dataset["A"].to_numpy() @ B.to_numpy())
                           for dataset in datasets])
    finally:
        kernel.rebind(kernel.tensors)
        del B
        arena.close()


def test_wrong_slot_count_rejected():
    template = dot_program(*make_pair(0))
    [dataset] = dot_datasets(1)
    with pytest.raises(BindingError, match="dataset 0"):
        run_batch(template, [dataset[:-1]])


def test_mapping_datasets_resolve_by_name():
    a0, b0 = make_pair(0)
    template = dot_program(a0, b0)
    outputs = []
    datasets = []
    values = []
    for seed in (5, 6, 7):
        a, b = make_pair(seed)
        A = fl.from_numpy(a, ("sparse",), name="A")
        B = fl.from_numpy(b, ("band",), name="B")
        C = fl.Scalar(name="C")
        datasets.append({"A": A, "B": B, "C": C})
        outputs.append(C)
        values.append(float(a @ b))
    result = run_batch(template, datasets, executor="serial")
    for item, value in zip(result, values):
        assert float(item.outputs[0]) == pytest.approx(value)
    with pytest.raises(BindingError, match="dataset 0"):
        run_batch(template, [{"nope": outputs[0]}])


def test_mapping_datasets_fail_with_their_index():
    """A name dataset resolves through the kernel's plan for its names,
    and each binding error still names the dataset it came from."""
    a0, b0 = make_pair(0)
    kernel = fl.compile_kernel(dot_program(a0, b0), cache=False)
    slots = kernel.tensors
    band_slot = named(slots, "B")

    def dataset(seed, **replace):
        a, b = make_pair(seed)
        out = {"A": fl.from_numpy(a, ("sparse",), name="A"),
               "B": fl.from_numpy(b, ("band",), name="B"),
               "C": fl.Scalar(name="C")}
        out.update(replace)
        return out

    wrong = fl.from_numpy(make_pair(9)[1], ("sparse",), name="B")
    with KernelPool(kernel, executor="serial") as pool:
        with pytest.raises(BindingError, match=(
                r"^dataset 1: no tensor named 'nope' bound by this "
                r"kernel \(have: A, B, C\)$")):
            pool.map([dataset(1), {"nope": fl.Scalar(name="C")}])
        with pytest.raises(BindingError, match=(
                r"^dataset 2: slot %d \(B\): format signature"
                % band_slot)):
            pool.map([dataset(1), dataset(2), dataset(3, B=wrong)])
        assert pool.stats()["runs"] == 0
        assert len(pool.map([dataset(4), dataset(5)])) == 2

    X = fl.from_numpy(a0, ("sparse",), name="X")
    X_twin = fl.from_numpy(b0, ("band",), name="X")
    i = fl.indices("i")
    twins = fl.compile_kernel(fl.forall(i, fl.increment(
        fl.Scalar(name="C")[()], X[i] * X_twin[i])), cache=False)
    with KernelPool(twins, executor="serial") as pool:
        with pytest.raises(BindingError, match=(
                r"^dataset 0: tensor name 'X' is bound to 2 slots")):
            pool.map([{"X": fl.from_numpy(a0, ("sparse",), name="X"),
                       "C": fl.Scalar(name="C")}])


def test_shared_output_tensor_rejected():
    """Mapping datasets that do not override the output would make
    every dataset write one buffer; the pool refuses."""
    a0, b0 = make_pair(0)
    template = dot_program(a0, b0)
    mappings = []
    for seed in (5, 6):
        a, b = make_pair(seed)
        mappings.append({
            "A": fl.from_numpy(a, ("sparse",), name="A"),
            "B": fl.from_numpy(b, ("band",), name="B"),
        })
    with pytest.raises(BindingError, match="share an output"):
        run_batch(template, mappings)


def test_input_aliasing_another_datasets_output_rejected():
    """Chained batching (dataset k+1 reading dataset k's output
    buffer) would race under the parallel executors; the pool rejects
    it up front."""
    mat = np.zeros((4, 4))
    mat[0, 1] = 1.0
    vec = np.arange(4, dtype=float)
    template = spmv_program(mat, vec)
    first = program_tensors(spmv_program(mat, vec))
    second = program_tensors(spmv_program(mat, vec))
    # Point dataset 1's input vector at dataset 0's output buffer.
    y_slot = named(first, "y")
    x_slot = named(second, "x")
    second[x_slot] = fl.from_numpy(np.zeros(4), ("sparse",), name="x")
    second[x_slot].element.val = first[y_slot].element.val
    with pytest.raises(BindingError, match="order-independent"):
        run_batch(template, [first, second])


def in_place_program(arr):
    """A program whose output ``Y`` shares its array with the input
    ``X``, which it reads first (slot order ``s``, ``X``, ``Y``): the
    two buffers collapse into one kernel parameter owned by ``X``."""
    X = fl.from_numpy(arr, ("dense",), name="X")
    Y = fl.zeros(len(arr), name="Y")
    Y.element.val = X.element.val
    s = fl.Scalar(name="s")
    i = fl.indices("i")
    return fl.forall(i, fl.multi(fl.increment(s[()], X[i]),
                                 fl.store(Y[i], 2.0 * X[i])))


@pytest.mark.parametrize("executor", EXECUTORS)
def test_an_output_sharing_an_inputs_array_is_isolated(executor):
    """An output aliased to an earlier input counts as writing the
    shared array: two datasets on one array are rejected, and on
    separate arrays every executor leaves the written array as the
    serial one does (the processes transport carries it back)."""
    template = in_place_program(np.arange(8.0))
    kernel = fl.compile_kernel(template, cache=False)
    assert kernel.artifact.alias_groups
    first = program_tensors(in_place_program(np.arange(8.0)))
    second = program_tensors(in_place_program(np.arange(8.0)))
    for slot in (named(second, "X"), named(second, "Y")):
        second[slot].element.val = first[named(first, "X")].element.val
    with KernelPool(kernel, executor=executor, max_workers=2) as pool:
        with pytest.raises(BindingError, match=(
                r"datasets 0 and 1 share an output buffer \(slot %d, "
                r"tensor 'Y'\)" % named(second, "Y"))):
            pool.map([first, second])

    def written(executor):
        datasets = [program_tensors(in_place_program(np.arange(8.0) + d))
                    for d in range(3)]
        with KernelPool(kernel, executor=executor, max_workers=2) as pool:
            pool.map(datasets)
        return [tensors[named(tensors, "Y")].to_numpy().tolist()
                for tensors in datasets]

    assert written(executor) == written("serial")


def test_batch_execution_error_survives_pickling():
    import pickle

    error = BatchExecutionError(3, ValueError("boom"))
    clone = pickle.loads(pickle.dumps(error))
    assert clone.index == 3
    assert "ValueError" in str(clone)
    assert "boom" in str(clone)


@pytest.mark.parametrize("kwargs,match", [
    ({"executor": "fibers"}, "unknown executor"),
    ({"on_failure": "degrade"},
     r"unknown on_failure policy 'degrade' \(choose from raise, skip\)"),
], ids=["executor", "on_failure"])
def test_unknown_executor_rejected(kwargs, match):
    template = dot_program(*make_pair(0))
    kernel = fl.compile_kernel(template)
    with pytest.raises(ValueError, match=match):
        KernelPool(kernel, **kwargs)


@pytest.mark.parametrize("kwargs", [
    {"deadline_s": -1.0}, {"deadline_s": float("nan")},
    {"deadline_s": float("inf")}, {"max_retries": -1},
    {"max_retries": 1.5}, {"max_retries": True},
], ids=lambda kwargs: "%s=%r" % next(iter(kwargs.items())))
def test_bad_deadline_or_retry_budget_rejected(kwargs):
    """A negative or NaN watchdog deadline would read every busy
    worker as stalled and kill healthy ones; the pool and the one-call
    API refuse it, and any retry budget but an int >= 0, up front."""
    template = dot_program(*make_pair(0))
    kernel = fl.compile_kernel(template)
    name = next(iter(kwargs))
    with pytest.raises(ValueError, match=name):
        KernelPool(kernel, executor="processes", **kwargs)
    with pytest.raises(ValueError, match=name):
        run_batch(template, dot_datasets(1), **kwargs)


def test_zero_deadline_turns_the_watchdog_off():
    """0 is a valid deadline (watchdog off), as is a retry budget of
    0: a healthy batch runs with no faults."""
    from repro.exec import WorkerPool

    kernel = fl.compile_kernel(dot_program(*make_pair(0)))
    with WorkerPool(max_workers=2) as workers:
        with KernelPool(kernel, executor="processes",
                        worker_pool=workers, deadline_s=0,
                        max_retries=0) as pool:
            result = pool.map(dot_datasets(2))
    assert len(result) == 2
    assert not any(result.faults.values())


def test_a_kernel_new_to_the_pool_runs_with_the_watchdog_off(monkeypatch):
    """The derived watchdog deadline prices each kernel by its own
    measured cost: on a pool that has timed another kernel, a kernel it
    has not timed yet runs unwatched (every wait blocks with no
    timeout), while the timed kernel's next map is watched."""
    from repro.exec import WorkerPool
    from repro.exec import pool as pool_module

    timeouts = []
    wait = pool_module.mp_connection.wait

    def recording_wait(objects, timeout=None):
        timeouts.append(timeout)
        return wait(objects, timeout)

    # The dispatcher's own wait, not every Connection.poll's.
    monkeypatch.setattr(pool_module, "mp_connection",
                        types.SimpleNamespace(wait=recording_wait))

    def sparse_dot(seed):
        a, b = make_pair(seed)
        A = fl.from_numpy(a, ("sparse",), name="A")
        B = fl.from_numpy(b, ("sparse",), name="B")
        C = fl.Scalar(name="C")
        i = fl.indices("i")
        return fl.forall(i, fl.increment(C[()], A[i] * B[i]))

    timed = fl.compile_kernel(dot_program(*make_pair(0)))
    new = fl.compile_kernel(sparse_dot(0))
    with WorkerPool(max_workers=2) as workers:
        with KernelPool(timed, executor="processes",
                        worker_pool=workers) as pool:
            pool.map(dot_datasets(4))
            del timeouts[:]
            pool.map(dot_datasets(4))
            watched = timeouts[:]
        del timeouts[:]
        with KernelPool(new, executor="processes",
                        worker_pool=workers) as pool:
            result = pool.map([program_tensors(sparse_dot(seed))
                               for seed in range(1, 5)])
        estimates = workers.stats()["per_item_s"]
    assert watched and None not in watched
    assert timeouts and set(timeouts) == {None}
    assert len(result) == 4 and not any(result.faults.values())
    assert len(estimates) == 2


def test_pool_reuse_accumulates_stats():
    template = dot_program(*make_pair(0))
    kernel = fl.compile_kernel(template, instrument=True)
    with KernelPool(kernel, executor="threads", max_workers=2) as pool:
        first = pool.map(dot_datasets(4, start_seed=1))
        second = pool.map(dot_datasets(4, start_seed=5))
        stats = pool.stats()
    assert stats["runs"] == 8
    assert stats["ops"] == first.total_ops + second.total_ops
    assert sum(entry["runs"] for entry in stats["workers"].values()) == 8
    with pytest.raises(RuntimeError):
        pool.map(dot_datasets(1))


def test_process_workers_rebuild_spec_once():
    from repro.exec import WorkerPool

    template = dot_program(*make_pair(0))
    kernel = fl.compile_kernel(template, instrument=True)
    # A fresh explicit pool: the shared default pool's workers may
    # have rebuilt this very spec for an earlier test already.
    with WorkerPool(max_workers=2) as workers:
        with KernelPool(kernel, executor="processes",
                        worker_pool=workers) as pool:
            pool.map(dot_datasets(6, start_seed=1))
            pool.map(dot_datasets(6, start_seed=7))
            stats = pool.stats()
    assert stats["runs"] == 12
    # Each worker process re-execs the spec at most once, then serves
    # every later dataset from its artifact cache — and the spec
    # itself crossed the pipe at most once per worker (ship-once).
    assert 1 <= stats["spec_rebuilds"] <= pool.max_workers
    for entry in stats["workers"].values():
        assert entry["spec_rebuilds"] <= 1
    assert 1 <= stats["pool"]["specs_shipped"] <= pool.max_workers


def test_unserializable_kernel_rejected_for_processes():
    """Custom looplet tensors pin compile-time buffers; the processes
    executor must refuse them loudly (SpecError), not silently pickle
    stale state."""
    from repro.formats.custom import LoopletTensor
    from repro.looplets import Run
    from repro.ir import Literal

    A = LoopletTensor(8, lambda ctx, pos: Run(Literal(2.0)), name="A")
    b = np.ones(8)
    B = fl.from_numpy(b, ("dense",), name="B")
    C = fl.Scalar(name="C")
    i = fl.indices("i")
    program = fl.forall(i, fl.increment(C[()], A[i] * B[i]))
    dataset = program_tensors(program)
    assert run_batch(program, [dataset],
                     executor="serial")[0].outputs[0] == 16.0
    with pytest.raises(SpecError):
        run_batch(program, [dataset], executor="processes")
