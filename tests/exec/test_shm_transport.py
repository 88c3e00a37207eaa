"""Shared-memory data plane: segments, arena, staging, hygiene.

Two layers of guarantees.  In-process: segments round-trip views,
the arena makes arrays transport-resident, staging dedups per dataset
and writes outputs back, and ``run_chunk`` executes against rebuilt
descriptor args.  End-to-end: dataset payloads cross the process
boundary without pickling tensor data, and no ``/dev/shm`` segment
outlives its owner on success *or* error paths.
"""

import os

import numpy as np
import pytest

import repro.lang as fl
from repro.cin.analyze import program_tensors
from repro.exec import KernelPool, ShmArena, WorkerPool
from repro.exec import shm as shm_mod
from repro.exec import worker as worker_mod
from repro.util.errors import BatchExecutionError

N = 120


def make_pair(seed, n=N):
    """A sparse vector of ``n // 10`` nonzeros and a band of ``n // 6``:
    what is stored grows with ``n``."""
    rng = np.random.default_rng(seed)
    nnz, width = n // 10, n // 6
    a = np.zeros(n)
    support = rng.choice(n, nnz, replace=False)
    a[support] = rng.random(nnz) + 0.1
    b = np.zeros(n)
    lo = int(rng.integers(0, n - width - 10))
    b[lo:lo + width] = rng.random(width) + 0.1
    a[lo] = 1.0
    return a, b


def dot_program(a, b):
    A = fl.from_numpy(a, ("sparse",), name="A")
    B = fl.from_numpy(b, ("band",), name="B")
    C = fl.Scalar(name="C")
    i = fl.indices("i")
    return fl.forall(i, fl.increment(C[()], A[i] * B[i]))


def dot_datasets(count, start_seed=1, n=N):
    return [program_tensors(dot_program(*make_pair(seed, n)))
            for seed in range(start_seed, start_seed + count)]


def named(tensors, name):
    return next(slot for slot, tensor in enumerate(tensors)
                if tensor.name == name)


def shm_entries():
    """This process's transport segments currently named in /dev/shm."""
    prefix = "%s_%d_" % (shm_mod.SHM_PREFIX, os.getpid())
    try:
        names = os.listdir("/dev/shm")
    except OSError:  # pragma: no cover - non-tmpfs platforms
        return set(shm_mod.active_segments())
    return {name for name in names if name.startswith(prefix)}


# -- in-process unit layer -------------------------------------------------


def test_segment_create_attach_view_close():
    before = set(shm_mod.active_segments())
    seg = shm_mod.ShmSegment.create(1024)
    assert seg.name in shm_mod.active_segments()
    view = seg.view(64, np.dtype("float64"), (8,))
    view[:] = np.arange(8.0)
    attached = shm_mod.ShmSegment.attach(seg.name)
    mirror = attached.view(64, np.dtype("float64"), (8,))
    assert np.array_equal(mirror, np.arange(8.0))
    # Writes through the attachment land in the owner's view.
    mirror[0] = 41.0
    assert view[0] == 41.0
    attached.close()  # non-owner close never unlinks
    assert seg.name in shm_entries()
    del view, mirror
    seg.close()
    seg.close()  # idempotent
    assert seg.name not in shm_entries()
    assert set(shm_mod.active_segments()) == before


def test_arena_adoption_and_residency():
    source = np.arange(100.0)
    with ShmArena(min_segment_bytes=1024) as arena:
        adopted = arena.add(source)
        assert np.array_equal(adopted, source)
        assert shm_mod.resident_descriptor(source) is None
        desc = shm_mod.resident_descriptor(adopted)
        assert desc is not None and desc[0] == "shm"
        assert arena.nbytes() >= source.nbytes
        # Already-resident arrays are returned as-is, not re-copied.
        assert arena.add(adopted) is adopted
        resident = adopted
        names = set(arena.segments)
    # Close purges residency and the /dev/shm names.
    assert shm_mod.resident_descriptor(resident) is None
    assert not names & shm_entries()


def test_adopted_tensors_survive_arena_close():
    """Closing an arena unlinks its /dev/shm names immediately, but
    the mapping must outlive any adopted views still in use — numpy
    views do not protect it on their own (``SharedMemory.close``
    unmaps underneath live buffer exports without raising), so a
    plain close here would turn later reads into use-after-free."""
    arena = ShmArena(min_segment_bytes=1024)
    view = arena.add(np.arange(256.0))
    names = set(arena.segments)
    arena.close()
    # Hygiene is immediate: the names are gone from /dev/shm ...
    assert not names & shm_entries()
    assert shm_mod.resident_descriptor(view) is None
    # ... yet the adopted tensor stays readable and writable.
    assert float(view.sum()) == float(np.arange(256.0).sum())
    view[3] = 41.0
    assert view[3] == 41.0


def test_staging_dedups_and_writes_back():
    staging = shm_mod.ShmStaging()
    shared = np.arange(8.0)
    out = np.zeros(4)
    desc_a = staging.stage(shared, dataset=0, writes=False)
    desc_b = staging.stage(shared, dataset=0, writes=False)
    desc_out = staging.stage(out, dataset=0, writes=True)
    assert desc_a == desc_b  # same array staged once per dataset
    name = staging.seal()
    seg = shm_mod.ShmSegment.attach(name)
    assert np.array_equal(
        seg.view(desc_a[1], np.dtype(desc_a[2]), desc_a[3]), shared)
    # Simulate the worker writing the output region.
    seg.view(desc_out[1], np.dtype(desc_out[2]), desc_out[3])[:] = 7.0
    seg.close()
    staging.writeback({0})
    assert np.array_equal(out, np.full(4, 7.0))
    staging.close()
    staging.close()  # idempotent
    assert name not in shm_entries()


def test_writeback_skips_failed_datasets():
    staging = shm_mod.ShmStaging()
    out = np.zeros(3)
    desc = staging.stage(out, dataset=5, writes=True)
    name = staging.seal()
    seg = shm_mod.ShmSegment.attach(name)
    seg.view(desc[1], np.dtype(desc[2]), desc[3])[:] = 9.0
    seg.close()
    staging.writeback(set())  # dataset 5 did not complete
    assert np.array_equal(out, np.zeros(3))
    staging.close()


def test_describe_and_build_args_roundtrip():
    with ShmArena(min_segment_bytes=1024) as arena:
        resident = arena.add(np.arange(16.0))
        staged = np.arange(5.0)
        stream = fl.RunOutput((3,)).kernel_pins()[1]     # coords
        staging = shm_mod.ShmStaging()
        payload = shm_mod.describe_args(
            [resident, staged, stream], staging, dataset=0,
            output_ids={id(stream)})
        assert set(payload) == {"args"}
        kinds = [desc[0] for desc in payload["args"]]
        assert kinds == ["shm", "stg", "stg"]
        name = staging.seal()
        cache = shm_mod.SegmentCache()
        args = shm_mod.build_args(payload, name, cache)
        assert np.array_equal(args[0], resident)
        assert np.array_equal(args[1], staged)
        args[2][:] = [3, 2, 1]
        del args
        staging.writeback({0})
        assert stream.tolist() == [3, 2, 1]
        with pytest.raises(ValueError, match="unknown transport"):
            shm_mod.build_args({"args": [("obj", 0)]}, name, cache)
        cache.release_transient()
        cache.close()
        staging.close()


def test_run_chunk_in_process():
    """Exercise the worker loop without a subprocess: ship-once spec
    caching, progress marks, and the unknown-digest protocol error."""
    template = dot_program(*make_pair(0))
    kernel = fl.compile_kernel(template, instrument=True)
    spec = kernel.to_spec()
    artifact, _, _, _ = worker_mod.artifact_from_spec(spec)
    digest = "test-digest"

    def chunk_for(tensors, index, include_spec):
        staging = shm_mod.ShmStaging()
        args = artifact.bind(tensors)
        payload = shm_mod.describe_args(args, staging, index,
                                        output_ids=set())
        payload["index"] = index
        return staging, {
            "digest": digest,
            "spec": spec if include_spec else None,
            "staging": staging.seal(),
            "datasets": [payload],
        }

    marks = []
    cache = shm_mod.SegmentCache()
    datasets = dot_datasets(2)
    try:
        staging, chunk = chunk_for(datasets[0], 0, include_spec=True)
        reply = worker_mod.run_chunk(chunk, cache, mark=marks.append)
        staging.close()
        assert reply["error"] is None
        assert [r["index"] for r in reply["results"]] == [0]
        assert reply["results"][0]["ops"] > 0
        assert marks == [0, -1]  # in-flight index published, then idle

        # Second chunk under the same digest rides the cached spec.
        staging, chunk = chunk_for(datasets[1], 1, include_spec=False)
        reply = worker_mod.run_chunk(chunk, cache)
        staging.close()
        assert reply["error"] is None
        assert reply["results"][0]["spec_rebuild"] is False

        # Unknown digest with no spec is a pool protocol error,
        # attributed to the chunk's first dataset.
        staging, chunk = chunk_for(datasets[1], 7, include_spec=False)
        chunk["digest"] = "never-shipped"
        reply = worker_mod.run_chunk(chunk, cache)
        staging.close()
        assert reply["results"] == []
        assert reply["error"]["index"] == 7
    finally:
        cache.close()
        worker_mod._SPECS.pop(digest, None)
        worker_mod._SPECS.pop("never-shipped", None)


# -- end-to-end transport layer -------------------------------------------


def warm_map_traffic(count, n=N):
    """The transport counters' growth over the second of two maps of
    ``count`` arena-resident datasets of ``n``-vectors on a two-worker
    pool: the first ships the spec, the second only descriptors."""
    kernel = fl.compile_kernel(dot_program(*make_pair(0, n)))
    with WorkerPool(max_workers=2) as workers:
        with ShmArena() as arena:
            datasets = [fl.share_dataset(tensors, arena)
                        for tensors in dot_datasets(count, n=n)]
            with KernelPool(kernel, executor="processes",
                            worker_pool=workers) as pool:
                pool.map(datasets)
                first = workers.stats()
                pool.map(datasets)
                second = workers.stats()
    return {key: second[key] - first[key]
            for key in ("pickle_bytes", "chunks", "shm_bytes",
                        "specs_shipped")}


def test_transport_does_not_pickle_tensor_data():
    """Acceptance instrumentation: after the spec has shipped, the
    per-batch pipe traffic is control-plane only — tensor payloads
    move through shared memory (``shm_bytes``), not pickle.

    The pool sizes its chunks from the measured cost of earlier ones,
    so the bound is per chunk: a chunk holds at most three of the six
    datasets, and its message is under a quarter of the bytes of their
    vectors stored dense."""
    warm = warm_map_traffic(6)
    assert warm["specs_shipped"] == 0
    assert 2 <= warm["chunks"] <= 6
    assert warm["pickle_bytes"] / warm["chunks"] < 3 * (2 * N * 8) / 4
    assert warm["shm_bytes"] > warm["pickle_bytes"]


def test_pickled_bytes_do_not_grow_with_the_tensors():
    """Each chunk's message names segments, offsets and shapes: storing
    eight times the data ships the same pickled bytes per chunk, but
    for the digits of the segment names' serial numbers (a byte per
    name when the process's count of segments gains a digit).  Two
    datasets on two workers make one chunk each, whatever the
    timing."""
    small, large = warm_map_traffic(2), warm_map_traffic(2, n=8 * N)
    assert small["chunks"] == large["chunks"] == 2
    assert large["shm_bytes"] > 4 * small["shm_bytes"]
    assert abs(large["pickle_bytes"] - small["pickle_bytes"]) \
        <= 16 * large["chunks"]


def test_no_segments_leak_on_success_or_error():
    """After closing every owner, no transport segment from this
    process remains in /dev/shm — success and error paths alike."""
    before = shm_entries()
    before_active = set(shm_mod.active_segments())
    rng = np.random.default_rng(0)

    def dense_dot_program(a, b):
        A = fl.from_numpy(a, ("dense",), name="A")
        B = fl.from_numpy(b, ("dense",), name="B")
        C = fl.Scalar(name="C")
        i = fl.indices("i")
        return fl.forall(i, fl.increment(C[()], A[i] * B[i]))

    template = dense_dot_program(rng.random(8), rng.random(8))
    kernel = fl.compile_kernel(template, opt_level=0)
    datasets = []
    for position in range(5):
        tensors = program_tensors(
            dense_dot_program(rng.random(8), rng.random(8)))
        if position == 3:
            broken = tensors[named(tensors, "A")]
            broken.element.val = broken.element.val[:4]
        datasets.append(tensors)
    with WorkerPool(max_workers=2) as workers:
        with KernelPool(kernel, executor="processes",
                        worker_pool=workers) as pool:
            pool.map(datasets[:3])  # success path
            with pytest.raises(BatchExecutionError):
                pool.map(datasets)  # error path (dataset 3 raises)
        # The pool is still open: only its progress segment may
        # remain beyond the baseline.
        during = shm_entries() - before
        assert len(during) <= 1
    assert shm_entries() == before
    assert set(shm_mod.active_segments()) <= before_active
