"""The persistent on-disk kernel store: tiers, eviction, corruption.

Covers the disk tier's contract one property at a time: read-through /
write-behind layering under the memory LRU, the ``cache=`` escape
hatches, version-mismatch invalidation (op registry bumps), quarantine
on corruption, LRU eviction by size budget, and the persisted
cross-process statistics counters.
"""

import json
import os

import numpy as np
import pytest

import repro.lang as fl
from repro.compiler.kernel import kernel_cache
from repro.ir import ops as ops_mod
from repro.store import (
    KernelStore,
    active_store,
    entry_digest,
    meta_for_artifact,
    using_store,
)
from repro.util import config


@pytest.fixture(autouse=True)
def clean_state():
    kernel_cache().clear()
    config.clear("store_path", "store_max_bytes")
    yield
    kernel_cache().clear()
    config.clear("store_path", "store_max_bytes")


def dot_program(n=60, seed=0, fmt="sparse"):
    rng = np.random.default_rng(seed)
    a = np.zeros(n)
    a[rng.choice(n, max(3, n // 8), replace=False)] = 1.0
    A = fl.from_numpy(a, (fmt,), name="A")
    B = fl.from_numpy(rng.random(n), ("dense",), name="B")
    C = fl.Scalar(name="C")
    i = fl.indices("i")
    return fl.forall(i, fl.increment(C[()], A[i] * B[i])), C, a


def test_write_behind_then_read_through(tmp_path):
    store = KernelStore(tmp_path)
    with using_store(store):
        program, C, a = dot_program()
        kernel = fl.compile_kernel(program)
        kernel.run()
        expected = C.value
    stats = store.stats()
    assert stats == {**stats, "writes": 1, "misses": 1, "hits": 0}
    assert stats["entries"] == 1

    # A fresh "process": memory cache cleared, same store.
    kernel_cache().clear()
    with using_store(store):
        program2, C2, _ = dot_program(seed=1)
        kernel2 = fl.compile_kernel(program2)
        assert kernel2.from_cache  # disk hit, zero compiles
        kernel2.run()
    assert store.stats()["hits"] == 1
    # The rebuilt kernel computes the same function.
    program3, C3, _ = dot_program()
    fl.execute(program3, cache=False)
    assert C3.value == pytest.approx(expected)


def test_disk_hit_promotes_into_memory(tmp_path):
    store = KernelStore(tmp_path)
    with using_store(store):
        fl.compile_kernel(dot_program()[0])
        kernel_cache().clear()
        fl.compile_kernel(dot_program(seed=1)[0])   # disk hit
        before = store.stats()["hits"]
        fl.compile_kernel(dot_program(seed=2)[0])   # memory hit now
        assert store.stats()["hits"] == before
    assert kernel_cache().stats()["hits"] == 1


def test_memory_only_compile_skips_a_configured_store(tmp_path):
    store = KernelStore(tmp_path)
    with using_store(store):
        first = fl.compile_kernel(dot_program()[0], cache=True,
                                  store=False, remote=False)
        again = fl.compile_kernel(dot_program(seed=1)[0], cache=True,
                                  store=False, remote=False)
    assert not first.from_cache and again.from_cache
    assert kernel_cache().stats()["hits"] == 1
    stats = store.stats()
    assert stats["writes"] == 0 and stats["entries"] == 0
    assert stats["hits"] + stats["misses"] == 0


def test_cache_false_touches_nothing(tmp_path):
    store = KernelStore(tmp_path)
    with using_store(store):
        fl.compile_kernel(dot_program()[0], cache=False)
    assert store.stats()["writes"] == 0
    assert len(kernel_cache()) == 0


@pytest.mark.parametrize("cache", ["memory", "disk", 1, "both"])
def test_cache_is_true_or_false(cache):
    with pytest.raises(ValueError, match="cache must be True or False") \
            as caught:
        fl.compile_kernel(dot_program()[0], cache=cache)
    assert "store=False" in str(caught.value)
    assert "remote=False" in str(caught.value)
    assert len(kernel_cache()) == 0


def test_registry_version_bump_invalidates(tmp_path):
    store = KernelStore(tmp_path)
    with using_store(store):
        kernel = fl.compile_kernel(dot_program()[0])
        meta = meta_for_artifact(kernel.artifact)
        assert store.load_spec(meta) is not None
        # A late op registration changes the runtime namespace kernels
        # exec against: every stored entry must read as a miss.
        ops_mod.register_op(ops_mod.Op("store_test_noop",
                                       lambda x: x))
        stale_meta = meta_for_artifact(kernel.artifact)
        assert stale_meta != meta
        assert store.load_spec(stale_meta) is None
        kernel_cache().clear()
        recompiled = fl.compile_kernel(dot_program()[0])
        assert not recompiled.from_cache  # disk could not serve it
    assert store.stats()["entries"] == 2  # old + recompiled


def test_corrupt_entry_quarantined_and_recompiled(tmp_path):
    store = KernelStore(tmp_path)
    with using_store(store):
        kernel = fl.compile_kernel(dot_program()[0])
        meta = meta_for_artifact(kernel.artifact)
        path = store._entry_path(meta)
        with open(path, "w") as handle:
            handle.write('{"truncated')
        kernel_cache().clear()
        recompiled = fl.compile_kernel(dot_program()[0])
        assert not recompiled.from_cache
    stats = store.stats()
    assert stats["quarantined"] == 1
    # The entry moved aside together with its .code sidecar.
    assert stats["quarantine_files"] == 2
    assert sorted(name.split(".")[1] for name
                  in os.listdir(store.quarantine_dir)) == ["code", "json"]
    # The recompile healed the store: the entry is back and loadable.
    assert store.load_spec(meta) is not None


def test_key_mismatch_is_corruption(tmp_path):
    """An entry whose recorded key does not hash to its filename is
    quarantined, not served (digest-collision and tamper defense)."""
    store = KernelStore(tmp_path)
    kernel = fl.compile_kernel(dot_program()[0], cache=False)
    store.save_artifact(kernel.artifact)
    meta = meta_for_artifact(kernel.artifact)
    path = store._entry_path(meta)
    with open(path) as handle:
        entry = json.load(handle)
    entry["key"]["opt_level"] = 0  # no longer matches the digest
    with open(path, "w") as handle:
        json.dump(entry, handle)
    assert store.load_spec(meta) is None
    assert store.stats()["quarantined"] == 1


def _truncate(path, record):
    with open(path, "w") as handle:
        handle.write(json.dumps(record)[:20])


def _other_store_version(path, record):
    with open(path, "w") as handle:
        json.dump(dict(record, store_version=-1), handle)


def _foreign_key(path, record):
    with open(path, "w") as handle:
        json.dump(dict(record, key=dict(record["key"], name="other")),
                  handle)


def _wrong_shape(path, record):
    with open(path, "w") as handle:
        json.dump([record], handle)  # valid JSON, not a record


def _unreadable(path, record):
    os.remove(path)
    os.mkdir(path)  # open() raises IsADirectoryError (root-proof)


COUNTED = ("hits", "misses")

RECORD_KINDS = {
    # kind: (save, look up -> payload or None, miss counter, hit counter)
    "entry": (lambda store, meta: store.save_spec(meta, {"body": 1}),
              lambda store, meta: store.load_spec(meta),
              "misses", "hits"),
    "read_parts": (lambda store, meta: store.save_spec(meta, {"body": 1}),
                   lambda store, meta:
                   store.read_parts(entry_digest(meta)),
                   None, None),
}


@pytest.mark.parametrize("kind", sorted(RECORD_KINDS))
@pytest.mark.parametrize("defect", [_truncate, _other_store_version,
                                    _foreign_key, _wrong_shape,
                                    _unreadable])
def test_every_defect_of_every_record_kind_is_a_quarantined_miss(
        tmp_path, kind, defect):
    """Entries and the service's raw entry read share one reader:
    whatever is wrong with a record, it is moved aside (never deleted,
    never served), counted once, and reads as a miss."""
    save, lookup, misses, hits = RECORD_KINDS[kind]
    store = KernelStore(tmp_path)
    meta = {"name": kind, "structural_digest": "0" * 40}
    path = save(store, meta)
    assert lookup(store, meta) is not None  # intact: a (counted) hit
    with open(path) as handle:
        record = json.load(handle)
    defect(path, record)

    assert lookup(store, meta) is None
    assert not os.path.exists(path)
    assert len(os.listdir(store.quarantine_dir)) == 1
    assert lookup(store, meta) is None  # now simply absent
    stats = store.stats()
    assert stats["quarantined"] == 1
    counted = {name: stats[name] for name in COUNTED}
    expected = dict.fromkeys(COUNTED, 0)
    if misses:
        expected.update({misses: 2, hits: 1})
    assert counted == expected


def _code_missing(path):
    os.remove(path)


def _code_truncated(path):
    with open(path, "rb") as handle:
        data = handle.read()
    with open(path, "wb") as handle:
        handle.write(data[:len(data) // 2])


def _code_foreign_magic(path):
    with open(path, "r+b") as handle:
        magic = handle.read(4)
        handle.seek(0)
        handle.write(bytes([magic[0] ^ 0xFF]) + magic[1:])


def _code_other_source(path):
    with open(path, "r+b") as handle:
        handle.seek(4)  # the source hash follows the magic
        byte = handle.read(1)
        handle.seek(4)
        handle.write(bytes([byte[0] ^ 0xFF]))


def _code_garbage_marshal(path):
    with open(path, "rb") as handle:
        header = handle.read(4 + 32)
    with open(path, "wb") as handle:
        handle.write(header + b"\xfe garbage, not marshal data")


def _code_not_a_code_object(path):
    import marshal

    with open(path, "rb") as handle:
        header = handle.read(4 + 32)
    with open(path, "wb") as handle:
        handle.write(header + marshal.dumps(("a", "tuple")))


@pytest.mark.parametrize("defect", [
    _code_missing, _code_truncated, _code_foreign_magic,
    _code_other_source, _code_garbage_marshal, _code_not_a_code_object])
def test_every_defect_of_a_code_sidecar_compiles_the_source(tmp_path,
                                                            defect):
    """The ``.code`` rows of the defect matrix: a python entry whose
    sidecar is missing or does not verify against this interpreter and
    the entry's source is served from its source — never quarantined,
    never a miss — and the sidecar is rewritten valid."""
    from repro.store.disk import _load_code

    store = KernelStore(tmp_path)
    program, C, a = dot_program()
    kernel = fl.compile_kernel(program, cache=False)
    path = store.save_artifact(kernel.artifact)
    code_path = path[:-len(".json")] + ".code"
    assert _load_code(code_path, kernel.source) is not None
    defect(code_path)
    assert _load_code(code_path, kernel.source) is None

    with using_store(store):
        program2, C2, _ = dot_program()
        served = fl.compile_kernel(program2)
    assert served.from_cache and served.source == kernel.source
    served.run()
    kernel.run()
    assert C2.value == C.value
    assert os.path.exists(path)
    assert _load_code(code_path, kernel.source) is not None
    stats = store.stats()
    assert (stats["hits"], stats["misses"], stats["quarantined"]) == \
        (1, 0, 0)
    assert not os.path.exists(store.quarantine_dir)


def test_code_sidecar_goes_where_its_entry_goes(tmp_path):
    """Eviction deletes, quarantine moves and ``clear`` deletes an
    entry's ``.code`` together with the entry; sizes count it."""
    kernel = fl.compile_kernel(dot_program()[0], cache=False)
    artifact = kernel.artifact
    spec = artifact.to_spec()
    store = KernelStore(tmp_path)
    paths = []
    for position in range(2):
        meta = dict(meta_for_artifact(artifact),
                    structural_digest="%040d" % position)
        paths.append(store.save_spec(meta, spec, code=artifact.code))
        os.utime(paths[-1], (1_000_000 + position,) * 2)
    codes = [path[:-len(".json")] + ".code" for path in paths]
    assert all(os.path.exists(code) for code in codes)
    stats = store.stats()
    assert stats["bytes"] == sum(os.path.getsize(p) for p in paths + codes)

    store.max_bytes = stats["bytes"] - 1          # room for one entry
    store._evict_locked(keep=paths[1])
    assert not os.path.exists(paths[0]) and not os.path.exists(codes[0])
    assert os.path.exists(codes[1])

    store._quarantine(paths[1])
    assert not os.path.exists(codes[1])
    assert len(os.listdir(store.quarantine_dir)) == 2

    path = store.save_spec(meta_for_artifact(artifact), spec,
                           code=artifact.code)
    store.clear()
    assert not os.path.exists(path[:-len(".json")] + ".code")


def test_c_entries_keep_no_code_sidecar(tmp_path):
    from repro import codegen

    if not codegen.have_toolchain():
        pytest.skip("no C toolchain")
    kernel = fl.compile_kernel(dot_program()[0], cache=False,
                               backend="c")
    assert kernel.effective_backend == "c"
    path = KernelStore(tmp_path).save_artifact(kernel.artifact)
    assert os.path.exists(path[:-len(".json")] + ".so")
    assert not os.path.exists(path[:-len(".json")] + ".code")


def test_unrebuildable_spec_quarantined(tmp_path):
    """A stored spec whose source no longer execs is quarantined by
    load_artifact and the already-counted hit is taken back."""
    store = KernelStore(tmp_path)
    kernel = fl.compile_kernel(dot_program()[0], cache=False)
    store.save_artifact(kernel.artifact)
    meta = meta_for_artifact(kernel.artifact)
    path = store._entry_path(meta)
    with open(path) as handle:
        entry = json.load(handle)
    entry["spec"]["source"] = "def kernel(:\n"  # SyntaxError on exec
    with open(path, "w") as handle:
        json.dump(entry, handle)
    assert store.load_artifact(meta) is None
    stats = store.stats()
    assert stats["quarantined"] == 1
    assert stats["hits"] == 0


def test_lru_eviction_by_size_budget(tmp_path):
    kernel = fl.compile_kernel(dot_program()[0], cache=False)
    spec = kernel.artifact.to_spec()
    entry_bytes = len(json.dumps(spec))
    store = KernelStore(tmp_path, max_bytes=3 * entry_bytes)
    metas = []
    for position in range(5):
        meta = dict(meta_for_artifact(kernel.artifact))
        meta["structural_digest"] = "%040d" % position
        store.save_spec(meta, spec)
        os.utime(store._entry_path(meta),
                 (1_000_000 + position, 1_000_000 + position))
        metas.append(meta)
    # Budget holds ~2 full entries after the wrapper overhead; the
    # oldest-mtime entries are gone, the newest survive.
    stats = store.stats()
    assert stats["evictions"] >= 2
    assert stats["bytes"] <= 3 * entry_bytes
    assert store.load_spec(metas[-1]) is not None
    assert store.load_spec(metas[0]) is None


def test_hits_touch_mtime_for_lru(tmp_path):
    kernel = fl.compile_kernel(dot_program()[0], cache=False)
    spec = kernel.artifact.to_spec()
    meta_a = dict(meta_for_artifact(kernel.artifact))
    meta_a["structural_digest"] = "a" * 40
    meta_b = dict(meta_a, structural_digest="b" * 40)
    store = KernelStore(tmp_path)
    store.save_spec(meta_a, spec)
    store.save_spec(meta_b, spec)
    os.utime(store._entry_path(meta_a), (1_000_000, 1_000_000))
    os.utime(store._entry_path(meta_b), (2_000_000, 2_000_000))
    assert store.load_spec(meta_a) is not None  # touches a's mtime
    entries = store._entry_files()
    assert entries[0][0] == store._entry_path(meta_b)  # b now oldest


def test_key_of_json_roundtripped_spec_matches_key_of_artifact():
    from repro.compiler.key import KernelKey

    kernel = fl.compile_kernel(dot_program()[0], cache=False,
                               instrument=True, opt_level=0)
    artifact = kernel.artifact
    spec = json.loads(json.dumps(artifact.to_spec()))
    assert KernelKey.of_spec(spec).meta == meta_for_artifact(artifact)
    assert KernelKey.of_spec(spec).digest == \
        entry_digest(meta_for_artifact(artifact))


def test_distinct_compile_flags_distinct_entries(tmp_path):
    store = KernelStore(tmp_path)
    with using_store(store):
        fl.compile_kernel(dot_program()[0])
        fl.compile_kernel(dot_program()[0], instrument=True)
        fl.compile_kernel(dot_program()[0], opt_level=0)
        fl.compile_kernel(dot_program()[0], constant_loop_rewrite=False)
    assert store.stats()["entries"] == 4


def test_env_var_configures_store(tmp_path, monkeypatch):
    monkeypatch.setenv("FL_KERNEL_STORE", str(tmp_path))
    monkeypatch.setenv("FL_KERNEL_STORE_MAX_BYTES", "123456")
    store = active_store()
    assert store is not None
    assert store.root == str(tmp_path)
    assert store.max_bytes == 123456
    # fl.configure(store_path=None) beats the environment ...
    fl.configure(store_path=None)
    assert active_store() is None
    # ... until the override is cleared.
    config.clear("store_path", "store_max_bytes")
    assert active_store() is not None


def test_stats_shape(tmp_path):
    stats = KernelStore(tmp_path).stats()
    for key in ("hits", "misses", "writes", "evictions", "quarantined",
                "entries", "bytes", "max_bytes", "hit_rate", "root"):
        assert key in stats
    assert stats["hit_rate"] == 0.0


def test_clear_resets_everything(tmp_path):
    store = KernelStore(tmp_path)
    kernel = fl.compile_kernel(dot_program()[0], cache=False)
    store.save_artifact(kernel.artifact)
    store.load_spec(meta_for_artifact(kernel.artifact))
    store.clear()
    stats = store.stats()
    assert stats["entries"] == 0
    assert stats["hits"] == 0 and stats["writes"] == 0


def test_readonly_store_serves_hits_and_drops_writes(tmp_path):
    """A prewarmed store on an unwritable mount must keep serving hits
    and silently drop writes/counters — never crash a compile.

    Simulated by replacing the lock file and stats file with
    directories (open() fails with IsADirectoryError even for root,
    which chmod-based read-only checks would not)."""
    store = KernelStore(tmp_path)
    with using_store(store):
        fl.compile_kernel(dot_program()[0])  # warm one entry
    store.stats()  # the flush point: stats.json now exists
    os.remove(store._lock_path)
    os.remove(store._stats_path)
    os.mkdir(store._lock_path)      # open(.lock, "a+") now raises
    os.mkdir(store._stats_path + ".tmp.%d" % os.getpid())
    kernel_cache().clear()
    with using_store(store):
        hit = fl.compile_kernel(dot_program(seed=1)[0])
        assert hit.from_cache  # the hit still lands, unlocked
        # A structurally new kernel compiles fine; the counter
        # updates are dropped, not raised.
        fresh = fl.compile_kernel(dot_program(n=90, seed=2)[0])
        assert not fresh.from_cache
    assert store.stats()["hits"] == 0  # counters were unwritable


def test_unwritable_entries_degrade_to_read_only_tier(tmp_path,
                                                      monkeypatch):
    """When the entry rename itself fails (truly read-only mount,
    disk full), save_spec returns None and the compile succeeds."""
    import repro.store.disk as disk_mod

    store = KernelStore(tmp_path)
    kernel = fl.compile_kernel(dot_program()[0], cache=False)

    def refuse(src, dst):
        raise PermissionError("read-only file system")

    monkeypatch.setattr(disk_mod.os, "replace", refuse)
    assert store.save_artifact(kernel.artifact) is None
    with using_store(store):
        compiled = fl.compile_kernel(dot_program(seed=3)[0])
        assert not compiled.from_cache
    monkeypatch.undo()
    assert store.stats()["entries"] == 0


def test_uncreatable_store_root_degrades_to_no_tier(tmp_path):
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("file, not dir")
    store = KernelStore(blocker / "store")
    with using_store(store):
        kernel = fl.compile_kernel(dot_program()[0])
        assert not kernel.from_cache
    assert store.stats()["entries"] == 0


class TestCodeFingerprint:
    """The code version behind every persisted key is the package's
    source tree, observed the only way that is honest for a
    per-process memo: fresh interpreters over a copied tree."""

    AXES = ("import json; from repro.compiler.key import version_axes; "
            "print(json.dumps(version_axes()))")

    #: A ``("vbl",) x ("sparse",)`` dot: the lowerer reaches
    #: ``SparseVBLLevel.unfurl`` through the tensor, never an import.
    VBL_DOT = """
import json
import numpy as np
import repro.lang as fl
a = np.zeros(40)
a[3:9] = 1.0
a[20:22] = 2.0
A = fl.from_numpy(a, ("vbl",), name="A")
B = fl.from_numpy(np.arange(40.0) % 3, ("sparse",), name="B")
C = fl.Scalar(name="C")
i = fl.indices("i")
kernel = fl.compile_kernel(fl.forall(i, fl.increment(C[()], A[i] * B[i])))
kernel.run()
print(json.dumps({"from_cache": kernel.from_cache,
                  "source": kernel.source, "value": float(C.value)}))
"""

    @staticmethod
    def _copy(tmp_path):
        import shutil

        import repro

        root = tmp_path / "tree"
        shutil.copytree(os.path.dirname(repro.__file__), root / "repro",
                        ignore=shutil.ignore_patterns("__pycache__"))
        return root

    @staticmethod
    def _fresh(root, code, **env):
        import subprocess
        import sys

        env = dict(os.environ, PYTHONPATH=str(root),
                   PYTHONDONTWRITEBYTECODE="1", **env)
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout)

    def test_every_layer_is_in_the_key(self, tmp_path):
        """Formats and modifiers (reached through tensors), the
        optimizer, the C emitter and the store itself: an edit to any
        one file moves the version axes, and nothing else does."""
        root = self._copy(tmp_path)
        seen = [self._fresh(root, self.AXES)]
        assert self._fresh(root, self.AXES) == seen[0]
        assert len(seen[0]["code_fingerprint"]) == 16
        for relative in ("formats/vbl.py", "modifiers/__init__.py",
                         "ir/optimize.py", "codegen/c_emit.py",
                         "store/disk.py"):
            with open(root / "repro" / relative, "a") as handle:
                handle.write("# edited\n")
            axes = self._fresh(root, self.AXES)
            assert axes not in seen, relative
            assert axes == self._fresh(root, self.AXES)
            seen.append(axes)

    def test_a_new_module_is_covered_by_living_in_the_package(
            self, tmp_path):
        root = self._copy(tmp_path)
        before = self._fresh(root, self.AXES)
        (root / "repro" / "formats" / "brand_new.py").write_text(
            "LEVELS = ()\n")
        assert self._fresh(root, self.AXES) != before

    def test_format_edit_is_a_miss_not_a_stale_hit(self, tmp_path):
        """The regression the import crawl let through: it never saw
        ``formats/vbl.py``, so a fresh process was served the kernel
        the *old* unfurl emitted (``from_cache=True``, old source)."""
        root = self._copy(tmp_path)
        store = str(tmp_path / "store")
        cold = self._fresh(root, self.VBL_DOT, FL_KERNEL_STORE=store)
        warm = self._fresh(root, self.VBL_DOT, FL_KERNEL_STORE=store)
        assert (cold["from_cache"], warm["from_cache"]) == (False, True)
        assert "b_limit" not in warm["source"]

        vbl = root / "repro" / "formats" / "vbl.py"
        text = vbl.read_text()
        assert 'ctx.assign("b_stop"' in text
        vbl.write_text(text.replace('ctx.assign("b_stop"',
                                    'ctx.assign("b_limit"'))
        edited = self._fresh(root, self.VBL_DOT, FL_KERNEL_STORE=store)
        assert not edited["from_cache"]
        assert "b_limit" in edited["source"]
        assert edited["value"] == cold["value"]

    def test_spawned_worker_agrees_with_its_parent(self):
        """Ship-once ids are digests: a ``spawn``-started worker (a
        fresh import of the same tree) must derive the parent's."""
        import multiprocessing

        from repro.compiler.key import code_fingerprint

        with multiprocessing.get_context("spawn").Pool(1) as pool:
            assert pool.apply(code_fingerprint) == code_fingerprint()
