"""The worker resolves a shipped spec through the driver's read-through.

``worker.artifact_from_spec`` and ``compile_kernel`` call the same
:func:`repro.compiler.tiers.read_through`; only ``build`` differs.  So
for one key, against one set of tiers, a worker's ``store_hit`` /
``remote_hit`` flags must say exactly what the driver's
``Kernel.from_cache`` says — and move the same tier counters.
"""

import numpy as np
import pytest

import repro.lang as fl
from repro import codegen
from repro.compiler.kernel import kernel_cache
from repro.exec import worker as worker_mod
from repro.service.client import (
    reset_clients,
    reset_service_stats,
    service_stats,
)
from repro.service.server import KernelService
from repro.store import KernelStore
from repro.util import config
from repro.util.errors import SpecError


@pytest.fixture(autouse=True)
def clean_state():
    def reset():
        kernel_cache().clear()
        worker_mod._MEMO.clear()
        reset_clients()
        reset_service_stats()
        config.clear()

    reset()
    yield
    reset()


def dot_program(seed=0, n=50):
    rng = np.random.default_rng(seed)
    A = fl.from_numpy(rng.random(n), ("dense",), name="A")
    B = fl.from_numpy(rng.random(n), ("dense",), name="B")
    C = fl.Scalar(name="C")
    i = fl.indices("i")
    return fl.forall(i, fl.increment(C[()], A[i] * B[i]))


def test_worker_memo_is_private_and_counts_rebuilds_once():
    spec = fl.compile_kernel(dot_program(), store=False,
                             remote=False).to_spec()
    # The driver's process-wide cache holds this kernel; the worker's
    # memo does not, so fork- and spawn-started workers rebuild alike.
    assert len(kernel_cache()) == 1
    first = worker_mod.artifact_from_spec(spec)
    again = worker_mod.artifact_from_spec(spec)
    assert first[1:] == (False, False, False)
    assert again[1:] == (True, False, False)
    assert again[0] is first[0]
    assert kernel_cache().stats()["hits"] == 0


def test_warm_store_serves_worker_and_driver_alike(tmp_path):
    warm = KernelStore(tmp_path / "warm")
    spec = fl.compile_kernel(dot_program(), store=warm,
                             remote=False).to_spec()
    kernel_cache().clear()
    fl.configure(store_path=warm)

    hits = warm.stats()["hits"]
    driver = fl.compile_kernel(dot_program(seed=1), remote=False)
    assert driver.from_cache
    assert warm.stats()["hits"] == hits + 1

    _, cached, store_hit, remote_hit = worker_mod.artifact_from_spec(spec)
    assert (cached, store_hit, remote_hit) == (False, True, False)
    assert warm.stats()["hits"] == hits + 2
    assert warm.stats()["misses"] == 1  # only the very first compile


@pytest.mark.skipif(not codegen.have_toolchain(),
                    reason="no C compiler on PATH")
def test_warm_service_serves_worker_and_driver_alike(tmp_path):
    # The worker consults the service only for what its shipped spec
    # cannot give it — a prebuilt .so — so the kernel must be native.
    opts = dict(backend="c")
    with KernelService(tmp_path / "served") as service:
        spec = fl.compile_kernel(dot_program(), remote=service.url,
                                 store=False, **opts).to_spec()
        assert spec["c_source"]
        kernel_cache().clear()
        reset_service_stats()
        fl.configure(service_url=service.url)

        driver_store = KernelStore(tmp_path / "driver_empty")
        driver = fl.compile_kernel(dot_program(seed=1),
                                   store=driver_store, **opts)
        assert driver.from_cache
        assert service_stats()["remote_hits"] == 1

        worker_store = KernelStore(tmp_path / "worker_empty")
        fl.configure(store_path=worker_store)
        artifact, cached, store_hit, remote_hit = \
            worker_mod.artifact_from_spec(spec)
        assert (cached, store_hit, remote_hit) == (False, False, True)
        assert service_stats()["remote_hits"] == 2
        assert artifact.effective_backend == "c"
        # Both wrote the fetched entry behind into their local store;
        # neither pushed anything back.
        assert driver_store.stats()["entries"] == 1
        assert worker_store.stats()["entries"] == 1
        assert service_stats()["remote_pushes"] == 0


def test_python_spec_never_costs_the_worker_a_round_trip(tmp_path):
    with KernelService(tmp_path / "served") as service:
        spec = fl.compile_kernel(dot_program(), remote=service.url,
                                 store=False).to_spec()
        reset_service_stats()
        fl.configure(service_url=service.url)
        _, cached, store_hit, remote_hit = \
            worker_mod.artifact_from_spec(spec)
        assert (cached, store_hit, remote_hit) == (False, False, False)
        assert service_stats() == dict.fromkeys(service_stats(), 0)


def test_spec_that_does_not_rebuild_is_a_typed_error():
    spec = fl.compile_kernel(dot_program(), cache=False).to_spec()
    spec["source"] = "def kernel(:\n"
    with pytest.raises(SpecError, match="does not rebuild"):
        worker_mod.artifact_from_spec(spec)
