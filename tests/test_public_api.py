"""The public surface: everything README/docs mention must import."""

import numpy as np


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
