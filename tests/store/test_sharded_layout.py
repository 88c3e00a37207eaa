"""The shard-by-digest-prefix store layout.

Entries land under ``<root>/<digest[:2]>/k_<digest>.json`` so a
fleet-scale store never piles tens of thousands of files into one
directory.  A store written by pre-shard code (entries flat in the
root) reads as cold: a cache miss, never a wrong kernel.
``read_parts`` — the read primitive the kernel service serves and
``verify`` checks — is covered here too.
"""

import json
import os

import numpy as np
import pytest

import repro.lang as fl
from repro.compiler.kernel import kernel_cache
from repro.store import KernelStore, entry_digest, using_store
from repro.store.disk import _ENTRY_PREFIX, _SHARD_CHARS


@pytest.fixture(autouse=True)
def clean_cache():
    kernel_cache().clear()
    yield
    kernel_cache().clear()


def dot_program(n=50, seed=0):
    rng = np.random.default_rng(seed)
    a = np.zeros(n)
    a[rng.choice(n, 6, replace=False)] = 1.0
    A = fl.from_numpy(a, ("sparse",), name="A")
    B = fl.from_numpy(rng.random(n), ("dense",), name="B")
    C = fl.Scalar(name="C")
    i = fl.indices("i")
    return fl.forall(i, fl.increment(C[()], A[i] * B[i]))


def store_one(store, seed=0, **opts):
    with using_store(store):
        kernel = fl.compile_kernel(dot_program(seed=seed), **opts)
    return kernel


def sole_entry_path(store):
    paths = [path for path, _, _ in store._entry_files()]
    assert len(paths) == 1, paths
    return paths[0]


def flatten(store, path):
    """Demote one sharded entry to the pre-shard flat layout."""
    flat = os.path.join(store.root, os.path.basename(path))
    os.replace(path, flat)
    so = path[:-len(".json")] + ".so"
    if os.path.exists(so):
        os.replace(so, flat[:-len(".json")] + ".so")
    return flat


def test_entries_land_in_shard_directories(tmp_path):
    store = KernelStore(tmp_path)
    store_one(store)
    path = sole_entry_path(store)
    shard = os.path.basename(os.path.dirname(path))
    name = os.path.basename(path)
    assert len(shard) == _SHARD_CHARS
    assert name.startswith(_ENTRY_PREFIX)
    digest = name[len(_ENTRY_PREFIX):-len(".json")]
    assert digest[:_SHARD_CHARS] == shard


def test_flat_pre_shard_entry_reads_as_cold(tmp_path):
    store = KernelStore(tmp_path)
    store_one(store)
    flat = flatten(store, sole_entry_path(store))

    # A fresh process over the pre-shard store: the flat entry is
    # invisible — one compile, written behind into its shard — and is
    # neither served nor touched.
    kernel_cache().clear()
    fresh = KernelStore(tmp_path)
    kernel = store_one(fresh, seed=1)
    assert not kernel.from_cache
    assert os.path.exists(flat)
    assert os.path.dirname(sole_entry_path(fresh)) != fresh.root


def test_read_parts_round_trip(tmp_path):
    store = KernelStore(tmp_path)
    store_one(store)
    path = sole_entry_path(store)
    digest = os.path.basename(path)[len(_ENTRY_PREFIX):-len(".json")]
    parts = store.read_parts(digest)
    assert parts is not None
    # The record part is the entry file's bytes, exactly as written.
    with open(path, "rb") as handle:
        assert parts.record == handle.read()
    assert json.loads(parts.record) == parts.entry
    assert set(parts.entry) >= {"store_version", "key", "spec"}
    assert entry_digest(parts.entry["key"]) == digest
    # The spec rebuilds into a working kernel, from the code part.
    from repro.compiler.kernel import CompiledKernel
    from repro.store.disk import decode_code

    code = decode_code(parts.code, parts.entry["spec"]["source"])
    assert code is not None
    artifact = CompiledKernel.from_spec(parts.entry["spec"], code=code)
    assert artifact.code is code
    assert parts.so is None  # a python entry has no shared object


def test_read_parts_misses_and_rejects_defects(tmp_path):
    store = KernelStore(tmp_path)
    assert store.read_parts("0" * 40) is None
    store_one(store)
    path = sole_entry_path(store)
    digest = os.path.basename(path)[len(_ENTRY_PREFIX):-len(".json")]
    with open(path, "w") as handle:
        handle.write("{ not json")
    assert store.read_parts(digest) is None
    # The defective entry was quarantined, not left to fail again.
    assert not os.path.exists(path)


def test_read_parts_rejects_digest_mismatch(tmp_path):
    store = KernelStore(tmp_path)
    store_one(store)
    path = sole_entry_path(store)
    digest = os.path.basename(path)[len(_ENTRY_PREFIX):-len(".json")]
    with open(path) as handle:
        entry = json.load(handle)
    entry["key"]["name"] = "tampered"
    with open(path, "w") as handle:
        json.dump(entry, handle)
    assert store.read_parts(digest) is None
