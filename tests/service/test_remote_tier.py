"""The remote tier in ``compile_kernel``: read-through, write-behind.

A warm service turns a cold process's compiles into wire fetches; a
cold service learns every kernel the fleet compiles from its pushes,
which carry the entry's files as the pusher's store writes them.
These tests drive real compiles against a real service on an
ephemeral port and watch both sides' counters and files.
"""

import os

import numpy as np
import pytest

import repro.lang as fl
from repro import codegen
from repro.codegen import toolchain
from repro.compiler.kernel import kernel_cache
from repro.service.client import (
    ServiceClient,
    reset_clients,
    reset_service_stats,
    service_stats,
)
from repro.service.server import KernelService
from repro.store import KernelStore, entry_digest, meta_for_artifact
from repro.store.disk import PARTS_HEADER, frame_parts
from repro.util import config

needs_cc = pytest.mark.skipif(not codegen.have_toolchain(),
                              reason="no C compiler on PATH")


@pytest.fixture(autouse=True)
def clean_state():
    kernel_cache().clear()
    reset_clients()
    reset_service_stats()
    config.clear()
    yield
    kernel_cache().clear()
    reset_clients()
    reset_service_stats()
    config.clear()


@pytest.fixture
def service(tmp_path):
    with KernelService(tmp_path / "server_store") as svc:
        yield svc


def dot_program(n=50, seed=0):
    rng = np.random.default_rng(seed)
    A = fl.from_numpy(rng.random(n), ("dense",), name="A")
    B = fl.from_numpy(rng.random(n), ("dense",), name="B")
    C = fl.Scalar(name="C")
    i = fl.indices("i")
    return fl.forall(i, fl.increment(C[()], A[i] * B[i])), C


def test_miss_compiles_and_pushes(service):
    program, C = dot_program()
    kernel = fl.compile_kernel(program, remote=service.url,
                               store=False)
    assert not kernel.from_cache
    stats = service_stats()
    assert stats["remote_misses"] == 1
    assert stats["remote_pushes"] == 1
    # The push filed the entry in the service's store.
    assert service.store.stats()["entries"] == 1
    assert service.stats()["pushes"] == 1


def test_remote_hit_skips_the_compile(service):
    program, C = dot_program()
    fl.compile_kernel(program, remote=service.url, store=False)
    kernel_cache().clear()
    reset_service_stats()

    # A "fresh process": no memory, no disk — just the service.
    program2, C2 = dot_program(seed=1)
    kernel = fl.compile_kernel(program2, remote=service.url,
                               store=False)
    assert kernel.from_cache
    assert service_stats()["remote_hits"] == 1
    assert service.stats()["hits"] == 1
    # And the rebuilt kernel computes the same function.
    kernel.run()
    remote_value = C2.value
    program3, C3 = dot_program(seed=1)  # identical data, fresh compile
    fl.execute(program3, cache=False)
    assert remote_value == C3.value


def test_remote_hit_promotes_into_memory(service):
    program, _ = dot_program()
    fl.compile_kernel(program, remote=service.url, store=False)
    kernel_cache().clear()
    fl.compile_kernel(dot_program(seed=1)[0], remote=service.url,
                      store=False)
    hits_before = service.stats()["hits"]
    kernel = fl.compile_kernel(dot_program(seed=2)[0],
                               remote=service.url, store=False)
    assert kernel.from_cache
    assert service.stats()["hits"] == hits_before  # memory, no wire


def test_remote_hit_writes_behind_into_local_store(service, tmp_path):
    program, _ = dot_program()
    fl.compile_kernel(program, remote=service.url, store=False)
    kernel_cache().clear()

    local = KernelStore(tmp_path / "local_store")
    kernel = fl.compile_kernel(dot_program(seed=1)[0],
                               remote=service.url, store=local)
    assert kernel.from_cache
    assert local.stats()["entries"] == 1
    # Third process: the local disk tier now answers before the wire.
    kernel_cache().clear()
    hits_before = service.stats()["hits"]
    kernel = fl.compile_kernel(dot_program(seed=2)[0],
                               remote=service.url, store=local)
    assert kernel.from_cache
    assert service.stats()["hits"] == hits_before


def test_cache_false_skips_the_remote_tier(service):
    program, _ = dot_program()
    fl.compile_kernel(program, remote=service.url, store=False)
    kernel_cache().clear()
    # cache=False asks for a fresh compile: it may not touch the wire.
    kernel = fl.compile_kernel(dot_program(seed=1)[0], cache=False,
                               remote=service.url, store=False)
    assert not kernel.from_cache
    assert service.stats()["hits"] == 0


def test_remote_false_disables_a_configured_service(service):
    fl.configure(service_url=service.url)
    program, _ = dot_program()
    kernel = fl.compile_kernel(program, remote=False, store=False)
    assert not kernel.from_cache
    assert service.stats()["pushes"] == 0
    assert service_stats()["remote_misses"] == 0


def test_configured_service_url_is_picked_up(service):
    fl.configure(service_url=service.url)
    program, _ = dot_program()
    fl.compile_kernel(program, store=False)
    kernel_cache().clear()
    kernel = fl.compile_kernel(dot_program(seed=1)[0], store=False)
    assert kernel.from_cache
    assert service.stats()["hits"] == 1


def test_batch_engine_reports_remote_hits(service):
    from repro.cin.analyze import program_tensors

    program, _ = dot_program()
    datasets = [program_tensors(dot_program(seed=s)[0])
                for s in (1, 2)]
    kernel = fl.compile_kernel(program, store=False, remote=service.url)
    with fl.KernelPool(kernel, executor="serial") as pool:
        pool.map(datasets)
        stats = pool.stats()
    assert "remote_hits" in stats
    assert stats["remote_hits"] == 0  # serial executor: no workers


@needs_cc
def test_remote_hit_leaves_a_live_so_path(service, tmp_path):
    """A remote-tier hit parks the fetched ``.so`` in the toolchain's
    scratch directory, so the artifact's ``so_path`` names a real file
    for the life of the process — and persisting that artifact later
    writes its sidecar instead of deleting the one already there."""
    opts = dict(backend="c", remote=service.url, store=False)
    fl.compile_kernel(dot_program()[0], **opts)
    kernel_cache().clear()

    kernel = fl.compile_kernel(dot_program(seed=1)[0], **opts)
    assert kernel.from_cache and kernel.effective_backend == "c"
    assert service_stats()["remote_hits"] == 1
    assert os.path.exists(kernel.so_path)

    local = KernelStore(tmp_path / "local_store")
    for _ in range(2):  # the second save must not remove the sidecar
        entry = local.save_artifact(kernel.artifact)
        assert os.path.exists(entry[:-len(".json")] + ".so")

    # A second fetch of the same kernel reuses the parked object.
    kernel_cache().clear()
    again = fl.compile_kernel(dot_program(seed=2)[0], **opts)
    assert again.from_cache and again.so_path == kernel.so_path


def _entry_files(store, digest):
    """``{suffix: bytes}`` of the files of ``store``'s entry
    ``digest``: the record and whichever sidecars it has."""
    stem = store.entry_path_for_digest(digest)[:-len(".json")]
    files = {}
    for suffix in (".json", ".so", ".code"):
        if os.path.exists(stem + suffix):
            with open(stem + suffix, "rb") as handle:
                files[suffix] = handle.read()
    return files


@pytest.mark.parametrize("backend", [
    "python", pytest.param("c", marks=needs_cc)])
def test_a_pushed_entry_is_filed_byte_for_byte(service, tmp_path,
                                               backend):
    """A push carries the entry as the pusher's store writes it: the
    service's record and sidecar files are the pusher's, byte for
    byte, and a fetch serves exactly those bytes."""
    local = KernelStore(tmp_path / "local_store")
    kernel = fl.compile_kernel(dot_program()[0], remote=service.url,
                               store=local, backend=backend)
    assert not kernel.from_cache
    digest = entry_digest(meta_for_artifact(kernel.artifact))
    pushed = _entry_files(local, digest)
    assert set(pushed) == ({".json", ".so"} if backend == "c"
                           else {".json", ".code"})
    assert _entry_files(service.store, digest) == pushed
    status, body, headers = ServiceClient(service.url)._request(
        "/kernels/" + digest)
    assert status == 200
    assert (body, headers[PARTS_HEADER]) == frame_parts(
        pushed[".json"], pushed.get(".so"), pushed.get(".code"))


@needs_cc
def test_a_pushed_so_serves_a_client_with_no_compiler(service,
                                                      monkeypatch):
    """The service builds nothing: the ``.so`` a client fetches is the
    one the pusher compiled, and it runs natively on a client with no
    C compiler."""
    opts = dict(backend="c", remote=service.url, store=False)
    fl.compile_kernel(dot_program()[0], **opts)
    assert service_stats()["remote_pushes"] == 1

    monkeypatch.setattr(toolchain, "compiler_path", lambda: None)
    monkeypatch.setattr(toolchain, "_entries", {})
    kernel_cache().clear()
    program, C = dot_program(seed=1)
    kernel = fl.compile_kernel(program, **opts)
    assert kernel.from_cache and kernel.effective_backend == "c"
    kernel.run()
    expected, C2 = dot_program(seed=1)
    fl.execute(expected, cache=False)
    assert C.value == pytest.approx(C2.value)
