"""The public surface: everything README/docs mention must import."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest


def test_lang_namespace_is_complete():
    import repro.lang as fl

    for name in fl.__all__:
        assert getattr(fl, name) is not None, name


def test_readme_quickstart_runs():
    import repro.lang as fl

    a = np.array([0, 1.9, 0, 3.0, 0, 0, 2.7, 0, 5.5, 0, 0])
    b = np.array([0, 0, 0, 3.7, 4.7, 9.2, 1.5, 8.7, 0, 0, 0])
    A = fl.from_numpy(a, ("sparse",), name="A")
    B = fl.from_numpy(b, ("band",), name="B")
    C = fl.Scalar(name="C")
    i = fl.indices("i")
    kernel = fl.compile_kernel(
        fl.forall(i, fl.increment(C[()], A[i] * B[i])))
    kernel.run()
    assert abs(C.value - float(a @ b)) < 1e-12


def test_emitted_code_has_figure_1b_shape():
    """The motivating example's emitted kernel does what the paper's
    Figure 1b shows: binary-search seek into the list, random access
    into the band, no dense scan."""
    import repro.lang as fl

    a = np.zeros(1000)
    a[::7] = 1.0
    b = np.zeros(1000)
    b[300:400] = 2.0
    A = fl.from_numpy(a, ("sparse",), name="A")
    B = fl.from_numpy(b, ("band",), name="B")
    C = fl.Scalar(name="C")
    i = fl.indices("i")
    kernel = fl.compile_kernel(
        fl.forall(i, fl.increment(C[()], A[i] * B[i])))
    source = kernel.source
    # The list is sought with a binary search (the skip-ahead).
    assert "search_ge(" in source
    # The band contributes pointer arithmetic, not a scan: exactly one
    # while loop (the list stepper), zero dense for-loops over i.
    assert source.count("while") == 1
    assert "for i in range(0, 1000)" not in source
    kernel.run()
    assert abs(C.value - float(a @ b)) < 1e-12


def test_data_plane_surface():
    """The warm-pool data plane is part of the public namespace."""
    import repro.lang as fl

    for name in ("WorkerPool", "configure", "default_pool",
                 "ShmArena", "share_dataset", "share_tensor"):
        assert name in fl.__all__
        assert getattr(fl, name) is not None


_BOUNDARY_PROBE = """
import sys

import repro.lang as fl

PACKAGES = ("repro.exec", "repro.store", "repro.chaos", "repro.service",
            "repro.fuzz")


def loaded():
    return sorted({package for package in PACKAGES for module in sys.modules
                   if module == package or module.startswith(package + ".")})


print(loaded())
for name in sys.argv[1:]:
    before = loaded()
    getattr(fl, name)
    print(sorted(set(loaded()) - set(before)))
try:
    fl.chaos
except AttributeError as error:
    print(error)
"""


def test_importing_the_language_loads_no_infrastructure():
    """``import repro.lang`` loads the compile-and-run path only.  Each
    deferred name, touched in this order, then loads exactly its own
    package (what it needs of the others is loaded by then), and the
    chaos engine is not on the surface."""
    import repro.lang as fl

    src = str(Path(fl.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    touched = [("KernelPool", "repro.exec"), ("KernelStore", "repro.store"),
               ("ServiceClient", "repro.service"), ("run_fuzz", "repro.fuzz")]
    out = subprocess.run(
        [sys.executable, "-c", _BOUNDARY_PROBE] + [n for n, _ in touched],
        env=env, capture_output=True, text=True, check=True,
        timeout=120).stdout.splitlines()
    assert out[0] == "[]", out[0]
    for (name, package), line in zip(touched, out[1:]):
        assert line == repr([package]), (name, line)
    assert out[-1] == "module 'repro.lang' has no attribute 'chaos'"
    assert "chaos" not in fl.__all__ and "fault_points" not in fl.__all__


def test_subpackage_imports():
    import repro
    import repro.baselines
    import repro.bench
    import repro.cin
    import repro.compiler
    import repro.exec
    import repro.formats
    import repro.fuzz
    import repro.ir
    import repro.looplets
    import repro.modifiers
    import repro.rewrite
    import repro.store
    import repro.tensors
    import repro.util
    import repro.workloads

    assert repro.__version__


def test_store_exports_resolve_and_carry_no_fingerprint_function():
    import repro.store

    for name in repro.store.__all__:
        assert getattr(repro.store, name) is not None, name
    # The code version is one axis of ``version_axes()``, not an API.
    assert not hasattr(repro.store, "codegen_fingerprint")


# -- the surface perf/ measures through ------------------------------------
# ``perf/workloads.py`` times these names from outside to decompose a
# compile (``compiler.memory_hit_us.*``, ``store.key_meta_us``) and a
# dispatch (``compiler.bind_us.*``, ``run.fn_us.*``); a refactor that
# renames or reshapes one rots the benchmark's decomposition.

def _dot_kernel(values):
    import repro.lang as fl

    a = np.array([0, 1.5, 0, 2.0, 0, 0, 3.0, 0]) * values
    b = np.array([1.0, 2.0, 0, 4.0, 0, 0, 5.0, 0])
    A = fl.from_numpy(a, ("sparse",), name="A")
    B = fl.from_numpy(b, ("sparse",), name="B")
    C = fl.Scalar(name="C")
    i = fl.indices("i")
    program = fl.forall(i, fl.increment(C[()], A[i] * B[i]))
    return fl.compile_kernel(program, cache=False), program, float(a @ b)


def test_perf_dispatch_decomposition_surface():
    """used by perf/: ``resolve_name_overrides`` + ``CompiledKernel
    .bind``/``.fn``/``.validate`` + ``Kernel.artifact``/``.tensors``."""
    from repro.compiler.kernel import resolve_name_overrides
    from repro.util.errors import BindingError

    kernel, _, _ = _dot_kernel(1.0)
    other, _, expected = _dot_kernel(2.0)
    C, A, B = kernel.tensors
    assert kernel.tensors is not kernel.tensors     # a fresh list
    kernel.tensors.clear()
    assert kernel.tensors == [C, A, B]

    A2, B2 = other.tensors[1:]
    tensors = resolve_name_overrides(kernel.tensors, {"A": A2, "B": B2})
    assert tensors == [C, A2, B2] and kernel.tensors == [C, A, B]
    artifact = kernel.artifact
    assert artifact.validate(tensors) is None
    args = artifact.bind(tensors)
    assert isinstance(args, list)
    assert any(arg is A2.element.val for arg in args)
    C.set(0.0)
    artifact.fn(*args)
    assert abs(C.value - expected) < 1e-12
    with pytest.raises(BindingError):
        artifact.validate(tensors[:-1])
    with pytest.raises(BindingError):
        resolve_name_overrides(kernel.tensors, {"nope": A2})


def test_perf_compile_decomposition_surface(tmp_path):
    """used by perf/: ``artifact_cache_key``, ``meta_for_artifact``
    and ``KernelStore.key_meta`` name one kernel the same way."""
    import repro.lang as fl
    from repro.cin.analyze import structural_key
    from repro.compiler.kernel import artifact_cache_key
    from repro.store import KernelStore, meta_for_artifact

    kernel, program, _ = _dot_kernel(1.0)
    artifact = kernel.artifact
    cache = fl.kernel_cache()
    cache.clear()
    try:
        cache.store(artifact_cache_key(artifact), artifact)
        again = fl.compile_kernel(program, store=False, remote=False)
        assert again.from_cache and again.artifact is artifact
    finally:
        cache.clear()

    store = KernelStore(str(tmp_path / "store"))
    meta = meta_for_artifact(artifact)
    assert store.key_meta(
        structural_key(program), instrument=False, name=artifact.name,
        constant_loop_rewrite=True, opt_level=artifact.opt_level,
        backend=artifact.backend) == meta
    store.save_spec(meta, artifact.to_spec(), so_path=artifact.so_path)
    assert store.load_artifact(meta).source == artifact.source


def test_perf_share_dataset_surface():
    """used by perf/: ``share_dataset`` adopts a name -> tensor
    mapping in place and returns it."""
    import repro.lang as fl
    from repro.exec import shm
    from repro.tensors.share import share_dataset

    kernel, _, _ = _dot_kernel(1.0)
    dataset = {tensor.name: tensor for tensor in kernel.tensors}
    arena = fl.ShmArena()
    try:
        assert share_dataset(dataset, arena) is dataset
        assert all(shm.resident_descriptor(array) is not None
                   for tensor in dataset.values()
                   for array in tensor.buffers().values())
    finally:
        arena.close()
