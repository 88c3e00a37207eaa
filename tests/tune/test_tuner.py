"""The autotuner engine end to end: search, verify, persist, apply.

The contract under test: every persisted winner was proven
bit-identical to the reference interpreter before it could compete; a
version-axis bump makes old winners read as misses; a row answers only
compiles at the ``opt_level``/backend it was measured at, and rewrites
protocols only; and a fresh process with ``tune="apply"`` compiles the
tuned variant with zero search and zero extra compiles (two disk
reads).
"""

import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro.lang as fl
from repro import codegen
from repro.compiler.kernel import kernel_cache
from repro.fuzz import injected_bug
from repro.ir import ops as ops_mod
from repro.store import KernelStore, using_store
from repro.tune import (
    clear_tuning_memo,
    extract_protocols,
    lookup_schedule,
    tune_program,
    tuning_key_meta,
)
from repro.util import config

SRC = str(Path(__file__).resolve().parents[2] / "src")
_CONFIG = ("store_path", "store_max_bytes", "opt_level", "backend")


@pytest.fixture(autouse=True)
def clean_state(monkeypatch):
    for name in ("FL_KERNEL_TUNE", "FL_KERNEL_STORE",
                 "FL_KERNEL_OPT_LEVEL", "FL_KERNEL_BACKEND"):
        monkeypatch.delenv(name, raising=False)
    kernel_cache().clear()
    config.clear(*_CONFIG)
    clear_tuning_memo()
    yield
    kernel_cache().clear()
    config.clear(*_CONFIG)
    clear_tuning_memo()


def dot_case(n=80, seed=0):
    rng = np.random.default_rng(seed)
    a = np.zeros(n)
    a[rng.choice(n, 8, replace=False)] = rng.random(8) + 0.1
    b = np.zeros(n)
    b[10:60] = rng.random(50) + 0.1
    A = fl.from_numpy(a, ("sparse",), name="A")
    B = fl.from_numpy(b, ("band",), name="B")
    C = fl.Scalar(name="C")
    i = fl.indices("i")
    program = fl.forall(i, fl.increment(C[()], A[i] * B[i]))
    return program, C, float(np.dot(a, b))


def run_search(store, **kwargs):
    kwargs.setdefault("repeats", 1)
    kwargs.setdefault("warmup", 0)
    return tune_program(lambda: dot_case()[0], label="dot",
                        store=store, **kwargs)


def test_search_verifies_persists_and_apply_hits(tmp_path):
    store = KernelStore(tmp_path)
    result = run_search(store)
    assert result["schedule"] is not None
    assert list(result["schedule"]) == ["protocols"]
    assert result["verified"] == result["measured"] - result["errors"]
    assert result["verified"] >= 2
    assert result["rejected"] == 0
    assert result["persisted"] and os.path.exists(result["persisted"])
    stats = store.stats()
    assert stats["tunings"] == 1
    assert stats["tuning_writes"] == 1

    # A fresh-looking process: cold kernel cache, cold memo.
    kernel_cache().clear()
    clear_tuning_memo()
    program, C, expected = dot_case()
    with using_store(store):
        assert lookup_schedule(program, 2, "python") == result["schedule"]
        kernel = fl.compile_kernel(program, tune="apply")
        assert kernel.tuned
        # The search filed the winner under this store, so applying it
        # is a cache hit, not a recompile.
        assert kernel.from_cache
        kernel.run()
        assert C.value == pytest.approx(expected)
        # tune="off" (the default) leaves the program as written.
        assert not fl.compile_kernel(program, tune="off").tuned
    assert store.stats()["tuning_hits"] >= 1


def test_search_stores_only_its_winner(tmp_path):
    # Candidates compile uncached; the winner alone is filed.
    store = KernelStore(tmp_path)
    result = run_search(store)
    assert result["measured"] >= 2
    stats = store.stats()
    assert (stats["entries"], stats["tunings"]) == (1, 1)
    assert stats["writes"] == 1


def _write_record(store, program, schedule, opt_level=2,
                  backend="python"):
    store.save_tuning(tuning_key_meta(program, opt_level, backend),
                      {"label": "hand-written", "schedule": schedule})


@pytest.mark.parametrize("extra", [{"opt_level": 7}, {"opt_level": True},
                                   {"backend": "fortran"}],
                         ids=["level-7", "level-true", "backend-fortran"])
def test_apply_reads_only_protocols_from_a_record(tmp_path, extra):
    # A record keyed under the current layout that also names a level
    # or backend (valid or not) must neither raise nor steer the
    # compile: its protocols apply, the rest is ignored.
    store = KernelStore(tmp_path)
    program, C, expected = dot_case()
    protocols = extract_protocols(program)
    protocols[1] = ["gallop"]
    _write_record(store, program, dict(protocols=protocols, **extra))
    with using_store(store):
        kernel = fl.compile_kernel(program, tune="apply")
    assert kernel.tuned
    assert extract_protocols(kernel.program) == protocols
    assert (kernel.opt_level, kernel.backend) == (2, "python")
    kernel.run()
    assert C.value == pytest.approx(expected)


def test_malformed_protocols_read_as_a_logged_miss(tmp_path, caplog):
    store = KernelStore(tmp_path)
    program, _, _ = dot_case()
    _write_record(store, program, {"protocols": [[], ["sprint"], [None]],
                                   "opt_level": 7})
    with using_store(store), caplog.at_level(logging.WARNING,
                                             logger="repro.tune"):
        kernel = fl.compile_kernel(program, tune="apply")
    assert not kernel.tuned
    assert kernel.program is program
    assert "does not fit" in caplog.text


@pytest.mark.parametrize("axis, searched, other", [
    ("opt_level", 1, 2),
    pytest.param("backend", "c", "python", marks=pytest.mark.skipif(
        not codegen.have_toolchain(), reason="needs a C toolchain")),
])
def test_rows_are_per_configuration(tmp_path, axis, searched, other):
    # A search run under one configuration answers compiles at that
    # configuration only; any other compile is a miss at the caller's.
    store = KernelStore(tmp_path)
    fl.configure(**{axis: searched})
    assert run_search(store)["persisted"]
    config.clear(axis)
    program, _, _ = dot_case()
    with using_store(store):
        miss = fl.compile_kernel(program, tune="apply", **{axis: other})
        assert not miss.tuned and getattr(miss, axis) == other
        hit = fl.compile_kernel(program, tune="apply",
                                **{axis: searched})
        assert hit.tuned and getattr(hit, axis) == searched


def test_registry_bump_invalidates_winner(tmp_path):
    store = KernelStore(tmp_path)
    result = run_search(store)
    assert result["persisted"]
    program, _, _ = dot_case()
    version_before = ops_mod.registry_version()
    try:
        with using_store(store):
            assert lookup_schedule(program, 2, "python") is not None
            misses_before = store.stats()["tuning_misses"]
            # A late op registration changes the runtime namespace
            # kernels exec against; a winner measured under the old
            # registry must read as a miss, exactly like a stored
            # kernel entry would.
            ops_mod.register_op(ops_mod.Op("tune_test_noop",
                                           lambda x: x))
            kernel_cache().clear()
            clear_tuning_memo()
            assert lookup_schedule(program, 2, "python") is None
            assert store.stats()["tuning_misses"] > misses_before
            kernel = fl.compile_kernel(program, tune="apply")
            assert not kernel.tuned  # the program as written
    finally:
        # Leave the registry exactly as found (content and version):
        # later tests key stores by registry_version, and a subprocess
        # imports the pristine registry.
        ops_mod._REGISTRY.pop("tune_test_noop", None)
        ops_mod._REGISTRY_VERSION = version_before
        kernel_cache().clear()
        clear_tuning_memo()


def test_divergent_candidates_are_never_persisted(tmp_path):
    # vector-slice-short breaks opt_level-2 dense loops; budget=1
    # keeps only the baseline candidate (dense/dense at the default
    # level 2), so every measured candidate diverges and nothing may
    # be persisted, no matter how fast the wrong answer was.
    store = KernelStore(tmp_path)

    def make_program():
        a = np.arange(1.0, 13.0)
        b = np.arange(2.0, 14.0)
        A = fl.from_numpy(a, ("dense",), name="A")
        B = fl.from_numpy(b, ("dense",), name="B")
        C = fl.Scalar(name="C")
        i = fl.indices("i")
        return fl.forall(i, fl.increment(C[()], A[i] * B[i]))

    with injected_bug("vector-slice-short"):
        result = tune_program(make_program, label="buggy dot",
                              budget=1, repeats=1, warmup=0,
                              store=store)
    assert result["measured"] == 1
    assert result["rejected"] == 1
    assert result["verified"] == 0
    assert result["schedule"] is None
    assert result["persisted"] is None
    stats = store.stats()
    assert (stats["tunings"], stats["tuning_writes"]) == (0, 0)
    # Candidates compile uncached: the wrong kernel left no entry.
    assert stats["entries"] == 0

    # The same search on the healthy tree persists a verified winner.
    healthy = tune_program(make_program, label="healthy dot",
                           budget=1, repeats=1, warmup=0, store=store)
    assert healthy["rejected"] == 0
    assert healthy["persisted"]


def test_unverifiable_program_is_skipped_not_persisted(
        tmp_path, monkeypatch):
    # A program the reference interpreter cannot execute: no candidate
    # can ever be verified, so the search must skip honestly, not crash
    # and not persist.
    store = KernelStore(tmp_path)
    from repro.fuzz import conform

    def no_reference(program):
        raise AttributeError("interpreter cannot run this program")

    monkeypatch.setattr(conform, "reference_outputs", no_reference)
    result = tune_program(lambda: dot_case()[0], label="broken",
                          store=store, repeats=1, warmup=0)
    assert result["unverifiable"]
    assert result["schedule"] is None
    assert result["persisted"] is None
    assert store.stats()["tunings"] == 0


def test_fig10_append_output_is_verified(tmp_path):
    # The interpreter gives an append output a dense result, so the
    # RLE alpha blend is searched and verified like any other figure.
    from repro.bench import figures
    from repro.bench.kernels import alpha_blend_program

    img_b, img_c = figures.fig10_image_pair("digit", seed=1)
    result = tune_program(
        lambda: alpha_blend_program(img_b, img_c, figures.FIG10_ALPHA,
                                    figures.FIG10_BETA, "rle")[0],
        label="fig10", budget=1, repeats=1, warmup=0,
        store=KernelStore(tmp_path))
    assert "unverifiable" not in result
    assert result["verified"] == 1 and result["rejected"] == 0
    assert result["persisted"]


_PROGRAM_SNIPPET = (
    "import numpy as np\n"
    "import repro.lang as fl\n"
    "rng = np.random.default_rng(0)\n"
    "a = np.zeros(80)\n"
    "a[rng.choice(80, 8, replace=False)] = rng.random(8) + 0.1\n"
    "b = np.zeros(80)\n"
    "b[10:60] = rng.random(50) + 0.1\n"
    "def make_program():\n"
    "    A = fl.from_numpy(a, ('sparse',), name='A')\n"
    "    B = fl.from_numpy(b, ('band',), name='B')\n"
    "    C = fl.Scalar(name='C')\n"
    "    i = fl.indices('i')\n"
    "    prog = fl.forall(i, fl.increment(C[()], A[i] * B[i]))\n"
    "    return prog, C\n")


def _run_probe(script, store_path, tune=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["FL_KERNEL_STORE"] = str(store_path)
    if tune is not None:
        env["FL_KERNEL_TUNE"] = tune
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_fresh_process_applies_with_zero_search_and_zero_compiles(
        tmp_path):
    # Search in one process, apply in a genuinely fresh second one.
    # (Both subprocesses, so both see the pristine op registry — the
    # surrounding suite legitimately bumps it in-process, which is
    # exactly the invalidation axis and must not leak in here.)
    search = _PROGRAM_SNIPPET + (
        "import json\n"
        "from repro.store import KernelStore, using_store\n"
        "from repro.tune import tune_program\n"
        "import os\n"
        "store = KernelStore(os.environ['FL_KERNEL_STORE'])\n"
        "result = tune_program(lambda: make_program()[0],\n"
        "                      repeats=1, warmup=0, store=store)\n"
        "print(json.dumps({'persisted': bool(result['persisted']),\n"
        "                  'stats': store.stats()}))\n")
    searched = _run_probe(search, tmp_path)
    assert searched["persisted"]
    writes_before = searched["stats"]["writes"]

    apply = _PROGRAM_SNIPPET + (
        "import json\n"
        "from repro.store import active_store\n"
        "program, C = make_program()\n"
        "kernel = fl.compile_kernel(program)\n"
        "kernel.run()\n"
        "print(json.dumps({'tuned': kernel.tuned,\n"
        "                  'from_cache': kernel.from_cache,\n"
        "                  'value': C.value,\n"
        "                  'stats': active_store().stats()}))\n")
    report = _run_probe(apply, tmp_path, tune="apply")
    assert report["tuned"] is True
    assert report["from_cache"] is True  # zero compiles: artifact hit
    assert report["value"] == pytest.approx(dot_case()[2])
    # Zero search: the fresh process wrote nothing, read everything.
    assert report["stats"]["writes"] == writes_before
    assert report["stats"]["tuning_writes"] == 1
    assert report["stats"]["tuning_hits"] >= 1


def test_cli_tunes_a_figure_and_emits_markdown(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.tune",
         "--figures", "fig1_dot", "--budget", "4", "--repeats", "1",
         "--warmup", "0", "--store", str(tmp_path), "--markdown"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "| fig1_dot |" in proc.stdout
    assert "tuned 1 program(s)" in proc.stdout
    store = KernelStore(tmp_path)
    assert store.stats()["tunings"] == 1
    assert list(store.tunings())
