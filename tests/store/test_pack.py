"""AOT kernel packs: write/read/verify/load and staleness handling."""

import json
import zipfile

import numpy as np
import pytest

import repro.lang as fl
from repro.compiler.kernel import kernel_cache
from repro.store import (
    KernelStore,
    meta_for_artifact,
    using_store,
)
from repro.store.pack import (
    PackError,
    load_pack,
    read_pack,
    verify_pack,
    write_pack,
)
from repro.util import config


@pytest.fixture(autouse=True)
def clean_state():
    kernel_cache().clear()
    config.clear("store_path", "store_max_bytes")
    yield
    kernel_cache().clear()
    config.clear("store_path", "store_max_bytes")


def dot_program(n=50, seed=0):
    rng = np.random.default_rng(seed)
    A = fl.from_numpy(rng.random(n), ("dense",), name="A")
    B = fl.from_numpy(rng.random(n), ("dense",), name="B")
    C = fl.Scalar(name="C")
    i = fl.indices("i")
    return fl.forall(i, fl.increment(C[()], A[i] * B[i])), C


def pack_entry(opts=None, n=50):
    kernel = fl.compile_kernel(dot_program(n=n)[0], cache=False,
                               **(opts or {}))
    return {"key": meta_for_artifact(kernel.artifact),
            "spec": kernel.artifact.to_spec(),
            "figure": "test", "label": "dot n=%d opts=%r" % (n, opts)}


def test_pack_roundtrip_and_verify(tmp_path):
    path = str(tmp_path / "kernels.flpack")
    entries = [pack_entry(), pack_entry({"instrument": True}),
               pack_entry(n=70)]
    summary = write_pack(path, entries, note="unit test")
    assert summary["count"] == 3
    manifest, decoded = read_pack(path)
    assert manifest["note"] == "unit test"
    assert manifest["count"] == 3
    assert {entry["digest"] for entry in decoded} == \
        {item["digest"] for item in manifest["entries"]}
    report = verify_pack(path)
    assert report["ok"]
    assert report["rebuilt"] == 3
    assert report["stale"] == []


def test_pack_deduplicates_by_digest(tmp_path):
    path = str(tmp_path / "kernels.flpack")
    summary = write_pack(path, [pack_entry(), pack_entry()])
    assert summary["count"] == 1


def test_load_pack_into_store_and_memory(tmp_path):
    path = str(tmp_path / "kernels.flpack")
    write_pack(path, [pack_entry(), pack_entry(n=70)])
    store = KernelStore(tmp_path / "store")
    summary = load_pack(path, store=store)
    assert summary["loaded"] == 2 and summary["errors"] == 0
    assert store.stats()["entries"] == 2
    # Memory promotion: the very first compile of this process hits.
    kernel = fl.compile_kernel(dot_program()[0], cache="memory")
    assert kernel.from_cache
    kernel.run()
    # And a fresh "process" (cleared memory) hits the store.
    kernel_cache().clear()
    with using_store(store):
        assert fl.compile_kernel(dot_program()[0]).from_cache


def test_load_pack_skips_stale_entries(tmp_path):
    path = str(tmp_path / "kernels.flpack")
    entry = pack_entry()
    entry["key"] = dict(entry["key"], registry_version=-1)
    write_pack(path, [entry, pack_entry(n=70)])
    store = KernelStore(tmp_path / "store")
    summary = load_pack(path, store=store, memory=False)
    assert summary["loaded"] == 1
    assert summary["stale"] == 1
    assert store.stats()["entries"] == 1
    report = verify_pack(path)
    assert report["ok"] and len(report["stale"]) == 1


def test_tampered_pack_fails_digest_check(tmp_path):
    path = str(tmp_path / "kernels.flpack")
    write_pack(path, [pack_entry()])
    with zipfile.ZipFile(path) as archive:
        manifest = json.loads(archive.read("manifest.json"))
        digest = manifest["entries"][0]["digest"]
        payload = json.loads(archive.read("specs/%s.json" % digest))
    payload["key"]["opt_level"] = 0
    tampered = str(tmp_path / "tampered.flpack")
    with zipfile.ZipFile(tampered, "w") as archive:
        archive.writestr("manifest.json", json.dumps(manifest))
        archive.writestr("specs/%s.json" % digest,
                         json.dumps(payload))
    with pytest.raises(PackError, match="digest"):
        read_pack(tampered)


def test_not_a_pack(tmp_path):
    path = str(tmp_path / "nonsense.flpack")
    with open(path, "w") as handle:
        handle.write("not a zip")
    with pytest.raises(PackError, match="not a pack"):
        read_pack(path)


def test_fl_load_pack_export(tmp_path):
    path = str(tmp_path / "kernels.flpack")
    write_pack(path, [pack_entry()])
    summary = fl.load_pack(path)
    assert summary["loaded"] == 1
    assert fl.compile_kernel(dot_program()[0],
                             cache="memory").from_cache
