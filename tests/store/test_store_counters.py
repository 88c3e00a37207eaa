"""The store's persisted counters: buffered per process, flushed in
batches.

A lookup adds to this process's pending deltas; ``stats.json`` is
rewritten by ``stats()``, by ``clear()`` (which drops them), once
``FLUSH_EVENTS`` events have built up, at interpreter exit, and when a
pool worker shuts down.  Whatever the flush point, the counts a reader
sees after every process is done are exact.
"""

import json
import multiprocessing as mp
import os
import subprocess
import sys

import numpy as np
import pytest

import repro
import repro.lang as fl
import repro.store.disk as disk_mod
from repro.compiler.kernel import kernel_cache
from repro.compiler.key import KernelKey
from repro.compiler.tiers import read_through
from repro.exec import pool as pool_mod
from repro.exec import worker as worker_mod
from repro.store import KernelStore, meta_for_artifact
from repro.util import config


@pytest.fixture(autouse=True)
def clean_state():
    def reset():
        kernel_cache().clear()
        worker_mod._MEMO.clear()
        config.clear("store_path", "store_max_bytes")

    reset()
    yield
    reset()


def dot_program(seed=0, n=40):
    rng = np.random.default_rng(seed)
    A = fl.from_numpy(rng.random(n), ("dense",), name="A")
    B = fl.from_numpy(rng.random(n), ("dense",), name="B")
    C = fl.Scalar(name="C")
    i = fl.indices("i")
    return fl.forall(i, fl.increment(C[()], A[i] * B[i])), C


def warm_store(root):
    """A store holding one kernel, its counters flushed; returns
    ``(store, meta)``."""
    store = KernelStore(root)
    kernel = fl.compile_kernel(dot_program()[0], store=store,
                               remote=False)
    store.stats()
    return store, meta_for_artifact(kernel.artifact)


def persisted(store):
    """``stats.json`` as it is on disk right now (no flush)."""
    with open(store._stats_path) as handle:
        return json.load(handle)


def child_env():
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        repro.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def test_a_lookup_is_pending_until_a_flush(tmp_path):
    store, meta = warm_store(tmp_path)
    assert store.load_spec(meta) is not None
    assert persisted(store)["hits"] == 0
    assert store.stats()["hits"] == 1
    assert persisted(store)["hits"] == 1


def test_a_batch_of_events_flushes_without_stats(tmp_path):
    store, meta = warm_store(tmp_path)
    for _ in range(disk_mod.FLUSH_EVENTS):
        store.load_spec(meta)
    assert persisted(store)["hits"] == disk_mod.FLUSH_EVENTS


def test_an_entry_gone_before_the_open_is_a_plain_miss(tmp_path,
                                                       monkeypatch):
    """An entry evicted between an existence check and the open is a
    miss, not corruption: nothing is quarantined."""
    store = KernelStore(tmp_path)
    kernel = fl.compile_kernel(dot_program()[0], store=False,
                               remote=False)
    monkeypatch.setattr(disk_mod.os.path, "exists", lambda path: True)
    assert store.load_spec(meta_for_artifact(kernel.artifact)) is None
    monkeypatch.undo()
    stats = store.stats()
    assert stats["quarantined"] == 0
    assert stats["misses"] == 1
    assert stats["quarantine_files"] == 0


def test_hits_in_a_subprocess_show_after_it_exits(tmp_path):
    store, meta = warm_store(tmp_path)
    before = store.stats()["hits"]
    script = (
        "import json, sys\n"
        "from repro.store import KernelStore\n"
        "store = KernelStore(sys.argv[1])\n"
        "meta = json.loads(sys.argv[2])\n"
        "assert all(store.load_spec(meta) is not None for _ in range(3))\n")
    subprocess.run([sys.executable, "-c", script, store.root,
                    json.dumps(meta)], check=True, env=child_env(),
                   timeout=120)
    assert store.stats()["hits"] == before + 3


def test_pool_workers_hits_are_counted_after_close(tmp_path,
                                                   monkeypatch):
    """Workers warm-start off ``FL_KERNEL_STORE`` and exit without
    ``atexit``: their shutdown flush is what counts their hits."""
    monkeypatch.setenv("FL_KERNEL_STORE", str(tmp_path))
    store, _ = warm_store(tmp_path)
    before = store.stats()["hits"]
    program, _ = dot_program(seed=1)
    kernel = fl.compile_kernel(program)
    # A size the shared pool does not have: the KernelPool owns (and
    # closes) a private pool whose workers start after the setenv.
    workers = 1 if pool_mod.default_pool().max_workers != 1 else 2
    datasets = [{"A": fl.from_numpy(np.full(40, float(k)), ("dense",)),
                 "C": fl.Scalar()} for k in range(4)]
    with fl.KernelPool(kernel, executor="processes",
                       max_workers=workers) as pool:
        pool.map(datasets)
        served = pool.stats()["store_hits"]
    assert served >= 1
    assert store.stats()["hits"] == before + served


def test_clear_drops_pending_deltas(tmp_path):
    store, meta = warm_store(tmp_path)
    store.load_spec(meta)
    store.load_spec({**meta, "name": "absent"})
    store.clear()
    stats = store.stats()
    assert (stats["hits"], stats["misses"], stats["writes"]) == (0, 0, 0)


def test_a_failed_flush_counts_an_io_error_and_never_raises(tmp_path):
    store, meta = warm_store(tmp_path)
    store.load_spec(meta)
    # The tmp sibling of stats.json is a directory: the rewrite fails
    # even for root, which a chmod would not make it.
    os.mkdir(store._stats_path + ".tmp.%d" % os.getpid())
    stats = store.stats()
    assert stats["io_errors"] == 1
    assert stats["hits"] == 0  # the pending hit was dropped


@pytest.mark.skipif("fork" not in mp.get_all_start_methods(),
                    reason="needs the fork start method")
def test_a_forked_child_does_not_flush_its_parents_deltas(tmp_path):
    store, meta = warm_store(tmp_path)
    store.load_spec(meta)  # pending in this process
    child = mp.get_context("fork").Process(
        target=disk_mod.flush_counters)
    child.start()
    child.join(timeout=60)
    assert child.exitcode == 0
    assert store.stats()["hits"] == 1


def test_a_disk_hit_keeps_the_requested_structural_key(tmp_path):
    store, _ = warm_store(tmp_path)
    artifact = fl.compile_kernel(dot_program(seed=2)[0], store=False,
                                 remote=False).artifact
    key = KernelKey.of(artifact)
    served, tier = read_through(key, lambda: None, store=store,
                                remote=False)
    assert tier == "disk"
    assert served.structural_key is key.memory[0]

