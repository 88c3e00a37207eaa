"""Layered (diff) kernel packs: write against a base, verify, load.

``write_pack(base=...)`` defers every digest the base pack already
carries, so a nightly pack ships only what changed since the release
pack.  ``verify_pack(base=...)`` resolves the deferred digests (a
missing one is an error); ``load_pack(base=...)`` loads base first,
then the diff.  Layering is transitive: a diff-of-a-diff defers
against the whole chain.
"""

import numpy as np
import pytest

import repro.lang as fl
from repro.compiler.kernel import kernel_cache
from repro.store import (
    KernelStore,
    meta_for_artifact,
    read_pack,
    using_store,
)
from repro.store.pack import load_pack, verify_pack, write_pack
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
    return fl.forall(i, fl.increment(C[()], A[i] * B[i]))


def pack_entry(n=50, opts=None):
    kernel = fl.compile_kernel(dot_program(n=n), cache=False,
                               **(opts or {}))
    return {"key": meta_for_artifact(kernel.artifact),
            "spec": kernel.artifact.to_spec(),
            "figure": "test", "label": "dot n=%d" % n}


def test_diff_pack_defers_base_digests(tmp_path):
    base = str(tmp_path / "base.flpack")
    diff = str(tmp_path / "diff.flpack")
    shared = pack_entry(n=50)
    write_pack(base, [shared, pack_entry(n=60)])
    fresh = pack_entry(n=70)
    summary = write_pack(diff, [shared, fresh], base=base)
    # The shared entry shipped as a deferred digest, not a payload.
    assert summary["count"] == 1
    assert summary["deferred"] == 1
    manifest, decoded = read_pack(diff)
    assert manifest["base"] == "base.flpack"
    assert len(manifest["base_digests"]) == 1
    assert len(decoded) == 1


def test_diff_pack_verify_layered(tmp_path):
    base = str(tmp_path / "base.flpack")
    diff = str(tmp_path / "diff.flpack")
    shared = pack_entry(n=50)
    write_pack(base, [shared])
    write_pack(diff, [shared, pack_entry(n=70)], base=base)
    # With the base on hand every deferred digest resolves.
    report = verify_pack(diff, base=base)
    assert report["ok"]
    assert report["deferred"] == 1
    assert report["unresolved"] == []
    # Without it, the deferral is reported but not fatal.
    alone = verify_pack(diff)
    assert alone["ok"]
    assert len(alone["unresolved"]) == 1


def test_diff_pack_verify_missing_base_digest_fails(tmp_path):
    base = str(tmp_path / "base.flpack")
    other = str(tmp_path / "other.flpack")
    diff = str(tmp_path / "diff.flpack")
    shared = pack_entry(n=50)
    write_pack(base, [shared])
    write_pack(other, [pack_entry(n=60)])
    write_pack(diff, [shared, pack_entry(n=70)], base=base)
    # Verified against the WRONG base: the deferred digest is missing.
    report = verify_pack(diff, base=other)
    assert not report["ok"]
    assert report["errors"]


def test_diff_pack_load_layers_base_first(tmp_path):
    base = str(tmp_path / "base.flpack")
    diff = str(tmp_path / "diff.flpack")
    shared = pack_entry(n=50)
    write_pack(base, [shared, pack_entry(n=60)])
    write_pack(diff, [shared, pack_entry(n=70)], base=base)
    store = KernelStore(tmp_path / "store")
    summary = load_pack(diff, store=store, memory=False, base=base)
    # Base (2 entries) + the diff's one fresh entry.
    assert summary["loaded"] == 3
    assert summary["errors"] == 0
    assert store.stats()["entries"] == 3
    # Every kernel — shared and fresh — warm-starts off the store.
    kernel_cache().clear()
    with using_store(store):
        for n in (50, 60, 70):
            assert fl.compile_kernel(dot_program(n=n)).from_cache, n


def test_diff_of_diff_is_transitive(tmp_path):
    v1 = str(tmp_path / "v1.flpack")
    v2 = str(tmp_path / "v2.flpack")
    v3 = str(tmp_path / "v3.flpack")
    a, b, c = pack_entry(n=50), pack_entry(n=60), pack_entry(n=70)
    write_pack(v1, [a])
    write_pack(v2, [a, b], base=v1)
    # v3 against v2 must also defer what v2 itself deferred to v1.
    summary = write_pack(v3, [a, b, c], base=v2)
    assert summary["count"] == 1
    assert summary["deferred"] == 2


def test_diff_pack_with_no_overlap_is_a_full_pack(tmp_path):
    base = str(tmp_path / "base.flpack")
    diff = str(tmp_path / "diff.flpack")
    write_pack(base, [pack_entry(n=50)])
    summary = write_pack(diff, [pack_entry(n=60)], base=base)
    assert summary["count"] == 1
    assert summary["deferred"] == 0
    report = verify_pack(diff)
    assert report["ok"] and report["deferred"] == 0
