"""The one-key invariant: a kernel has exactly one identity.

``compile_kernel`` builds a :class:`~repro.compiler.key.KernelKey`
once per compile; every other consumer re-derives it from what it
holds — a live artifact (``KernelKey.of``) or a serialized spec
(``KernelKey.of_spec``).  All three must agree in every form (the
in-process tuple, the store meta, the digest), or a tier files a
kernel where another tier will never look.
"""

import os

import numpy as np
import pytest

import repro.lang as fl
from repro.bench.figures import warm_start_programs
from repro.compiler import kernel as kernel_mod
from repro.compiler.kernel import artifact_cache_key, kernel_cache
from repro.compiler.key import KernelKey
from repro.exec.pool import WorkerPool
from repro.store import KernelStore, meta_for_artifact


@pytest.fixture(autouse=True)
def clean_cache():
    kernel_cache().clear()
    yield
    kernel_cache().clear()


@pytest.fixture
def compile_keys(monkeypatch):
    """Every key ``compile_kernel`` hands to the read-through."""
    seen = []
    read_through = kernel_mod.read_through

    def spy(key, build, **tiers):
        seen.append(key)
        return read_through(key, build, **tiers)

    monkeypatch.setattr(kernel_mod, "read_through", spy)
    return seen


FIGURES = {figure: (make_program, opts)
           for figure, _, make_program, opts in warm_start_programs()}


@pytest.mark.parametrize("backend", ["python", "c"])
@pytest.mark.parametrize("figure", sorted(FIGURES))
def test_compile_key_artifact_key_and_spec_key_agree(
        figure, backend, compile_keys):
    make_program, opts = FIGURES[figure]
    kernel = fl.compile_kernel(make_program(), backend=backend,
                               store=False, remote=False, **opts)
    (compiled,) = compile_keys
    of_artifact = KernelKey.of(kernel.artifact)
    of_spec = KernelKey.of_spec(kernel.to_spec())
    for other in (of_artifact, of_spec):
        assert other.memory == compiled.memory
        assert hash(other.memory) == hash(compiled.memory)
        assert other.meta == compiled.meta
        assert other.digest == compiled.digest
    # The requested backend is an axis of the key even when the C
    # emitter fell back to python for this figure.
    assert compiled.meta["backend"] == backend
    # The public spellings are views of the same key.
    assert artifact_cache_key(kernel.artifact) == compiled.memory
    assert meta_for_artifact(kernel.artifact) == compiled.meta


def test_memory_hit_derives_no_meta_and_no_digest(compile_keys):
    make_program, opts = FIGURES["fig1_dot"]
    fl.compile_kernel(make_program(), store=False, remote=False, **opts)
    hit = fl.compile_kernel(make_program(), store=False, remote=False,
                            **opts)
    assert hit.from_cache
    assert compile_keys[1]._meta is None
    assert compile_keys[1]._digest is None


def test_pool_ship_once_digest_is_the_store_entry_digest(
        tmp_path, monkeypatch):
    store = KernelStore(tmp_path / "store")
    rng = np.random.default_rng(0)
    n = 40

    def tensors():
        return {"A": fl.from_numpy(rng.random(n), ("dense",), name="A"),
                "B": fl.from_numpy(rng.random(n), ("dense",), name="B"),
                "C": fl.Scalar(name="C")}

    bound = tensors()
    i = fl.indices("i")
    kernel = fl.compile_kernel(
        fl.forall(i, fl.increment(bound["C"][()],
                                  bound["A"][i] * bound["B"][i])),
        store=store, remote=False)
    (entry_path,) = [path for path, _ in store.entries()]
    filed_under = os.path.basename(entry_path)[len("k_"):-len(".json")]

    shipped = []
    send_chunk = WorkerPool._send_chunk

    def spy(self, worker, spec, digest, chunk, staging_name):
        shipped.append(digest)
        return send_chunk(self, worker, spec, digest, chunk,
                          staging_name)

    monkeypatch.setattr(WorkerPool, "_send_chunk", spy)
    with WorkerPool(max_workers=1) as workers:
        with fl.KernelPool(kernel, executor="processes",
                           worker_pool=workers) as pool:
            pool.map([tensors() for _ in range(3)])
    assert shipped and set(shipped) == {filed_under}
    assert filed_under == KernelKey.of(kernel.artifact).digest
