"""Store degradation: a damaged or unwritable disk tier must cost
performance, never correctness.

Three failure families: a corrupt ``stats.json`` (killed writer,
garbage, wrong JSON shape) reads as reset counters with
``stats_resets`` bumped; write failures (read-only root) degrade the
store to memory-only behind a warn-once log and an ``io_errors``
counter; chaos-injected read faults (flaky IO, corrupt entries)
degrade to a miss + quarantine and the kernel recompiles
bit-identically.
"""

import json
import logging
import os

import numpy as np
import pytest

import repro.lang as fl
from repro import chaos
from repro.compiler.kernel import kernel_cache
from repro.store import KernelStore, using_store
from repro.util import config


@pytest.fixture(autouse=True)
def clean_state():
    kernel_cache().clear()
    config.clear("store_path", "store_max_bytes")
    yield
    kernel_cache().clear()
    config.clear("store_path", "store_max_bytes")


def dot_program(n=60, seed=0):
    rng = np.random.default_rng(seed)
    a = np.zeros(n)
    a[rng.choice(n, max(3, n // 8), replace=False)] = 1.0
    b = rng.random(n)
    A = fl.from_numpy(a, ("sparse",), name="A")
    B = fl.from_numpy(b, ("dense",), name="B")
    C = fl.Scalar(name="C")
    i = fl.indices("i")
    return fl.forall(i, fl.increment(C[()], A[i] * B[i])), C, float(a @ b)


CORRUPT_STATS = [
    ("binary", b"\x00\xff\x9cnot json at all\x81"),
    ("json-list", b"[1, 2, 3]"),
    ("half-written", b'{"hits": 4, "miss'),
    ("wrong-types", b'{"hits": "many", "writes": {"a": 1}}'),
]


@pytest.mark.parametrize(
    "payload", [p for _, p in CORRUPT_STATS],
    ids=[name for name, _ in CORRUPT_STATS])
def test_corrupt_stats_json_resets_instead_of_crashing(tmp_path,
                                                       payload):
    """Any corrupt stats.json reads as zeroed counters with
    stats_resets=1; the next counter update persists the reset and
    counting resumes."""
    store = KernelStore(tmp_path)
    with using_store(store):
        program, C, expected = dot_program()
        fl.compile_kernel(program).run()
        assert C.value == pytest.approx(expected)
    assert store.stats()["writes"] == 1

    stats_path = os.path.join(str(tmp_path), "stats.json")
    with open(stats_path, "wb") as handle:
        handle.write(payload)

    stats = store.stats()
    assert stats["stats_resets"] == 1
    assert stats["writes"] == 0
    assert stats["entries"] == 1  # the entry itself is untouched

    kernel_cache().clear()
    with using_store(store):
        program, C, expected = dot_program()
        fl.compile_kernel(program).run()
        assert C.value == pytest.approx(expected)
    store.stats()  # the flush point: the hit reaches stats.json
    persisted = json.load(open(stats_path))
    assert persisted["stats_resets"] == 1
    assert persisted["hits"] == 1


def test_stats_json_with_retired_counters_still_reads(tmp_path):
    """A stats.json written when the store kept tuning records reads as
    the counters it shares with today's, with no reset; the retired
    ``tuning_*`` keys are dropped at the next flush."""
    store = KernelStore(tmp_path)
    stats_path = os.path.join(str(tmp_path), "stats.json")
    with open(stats_path, "w") as handle:
        json.dump({"hits": 3, "misses": 2, "writes": 2, "tuning_hits": 4,
                   "tuning_misses": 1, "tuning_writes": 1}, handle)

    stats = store.stats()
    assert (stats["hits"], stats["misses"], stats["writes"]) == (3, 2, 2)
    assert stats["stats_resets"] == 0
    assert not any(name.startswith("tuning") for name in stats)

    store._bump(hits=1)
    store.stats()
    persisted = json.load(open(stats_path))
    assert persisted["hits"] == 4
    assert not any(name.startswith("tuning") for name in persisted)


def test_unwritable_root_degrades_to_memory_only(tmp_path,
                                                 monkeypatch, caplog):
    """Every write failure is absorbed: compiles succeed, io_errors
    counts them, and exactly one warning is logged."""
    store = KernelStore(tmp_path)

    def read_only(src, dst):
        raise OSError(30, "Read-only file system", dst)

    monkeypatch.setattr(os, "replace", read_only)
    with caplog.at_level(logging.WARNING, logger="repro.store"):
        with using_store(store):
            program, C, expected = dot_program()
            fl.compile_kernel(program).run()
            assert C.value == pytest.approx(expected)
    stats = store.stats()
    assert stats["io_errors"] >= 2  # miss bump + entry write, at least
    assert stats["entries"] == 0  # nothing landed on disk
    warnings = [record for record in caplog.records
                if "degraded" in record.getMessage()]
    assert len(warnings) == 1, "the degradation warning must fire once"


@pytest.mark.parametrize("fault", ["store_read_error",
                                   "store_corrupt_entry"])
def test_chaos_read_faults_degrade_to_quarantined_miss(tmp_path,
                                                       fault):
    """A flaky or corrupted entry read becomes a quarantine + miss —
    the kernel recompiles from source, bit-identically, and the store
    refills on the next write."""
    store = KernelStore(tmp_path)
    with using_store(store):
        program, C, expected = dot_program()
        fl.compile_kernel(program).run()
    assert store.stats()["entries"] == 1

    kernel_cache().clear()
    with using_store(store):
        with chaos.chaos(fault, nth=1):
            program, C, expected = dot_program()
            fl.compile_kernel(program).run()  # must not raise
            assert C.value == pytest.approx(expected)
    stats = store.stats()
    assert stats["quarantined"] == 1
    assert stats["misses"] >= 2  # first-ever compile, then the fault
    assert stats["entries"] == 1  # rewritten behind the recompile

    kernel_cache().clear()
    with using_store(store):  # fault disarmed: reads hit again
        program, C, expected = dot_program()
        fl.compile_kernel(program).run()
        assert C.value == pytest.approx(expected)
    assert store.stats()["hits"] >= 1
