"""``python -m repro.store``: warm / verify / ls / stats / gc.

The CLI is what CI's staged pipeline drives, so every subcommand is
exercised in-process through ``main(argv)`` — including the hit-rate
gate's exit codes, which is what turns a silent cold-compile fallback
into a red build.
"""

import json
import os
import shutil

import numpy as np
import pytest

import repro.compiler.key as key_mod
import repro.lang as fl
from repro.compiler.kernel import kernel_cache
from repro.fuzz import corpus as corpus_mod
from repro.fuzz.conform import ORACLE_COMPILE_OPTS
from repro.store import (
    KernelStore,
    entry_digest,
    meta_for_artifact,
    using_store,
)
from repro.store.__main__ import main
from repro.util import config


@pytest.fixture(autouse=True)
def clean_state():
    kernel_cache().clear()
    config.clear("store_path", "store_max_bytes")
    yield
    kernel_cache().clear()
    config.clear("store_path", "store_max_bytes")


@pytest.fixture()
def mini_corpus(tmp_path):
    """A one-entry corpus dir (cheap to compile under every oracle's
    options)."""
    source = corpus_mod.corpus_entries()[0]
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    shutil.copy(source, corpus_dir)
    return str(corpus_dir)


def test_warm_verify_ls_stats(tmp_path, mini_corpus, capsys):
    store_dir = str(tmp_path / "store")
    assert main(["warm", "--store", store_dir, "--no-figures",
                 "--corpus", mini_corpus, "--quiet"]) == 0
    # One case under each of the conformance oracles' compiles.
    count = len(ORACLE_COMPILE_OPTS)
    assert "compiled %d entries" % count in capsys.readouterr().out

    assert main(["verify", "--store", store_dir]) == 0
    out = capsys.readouterr().out
    assert "%d entries, %d rebuilt, 0 stale" % (count, count) in out
    assert "PASS" in out

    assert main(["ls", "--store", store_dir]) == 0
    assert "%d entries (0 stale)" % count in capsys.readouterr().out

    # No lookups yet: the gate must fail loudly, not pass vacuously.
    assert main(["stats", "--store", store_dir,
                 "--min-hit-rate", "0.5"]) == 1
    assert "no lookups" in capsys.readouterr().out

    # Consume the warmed store: the corpus case compiles as pure hits.
    spec = corpus_mod.load_entry(
        corpus_mod.corpus_entries(mini_corpus)[0])["spec"]
    from repro.fuzz.gen import build_case

    with using_store(KernelStore(store_dir)):
        for opts in ORACLE_COMPILE_OPTS:
            kernel_cache().clear()
            case = build_case(spec)
            kernel = fl.compile_kernel(case.program, **opts)
            assert kernel.from_cache
    assert main(["stats", "--store", store_dir,
                 "--min-hit-rate", "1.0"]) == 0
    assert "PASS" in capsys.readouterr().out

    # Markdown mode renders the summary table CI appends to
    # $GITHUB_STEP_SUMMARY.
    assert main(["stats", "--store", store_dir, "--markdown"]) == 0
    out = capsys.readouterr().out
    assert "| hit_rate | 100.0% |" in out


def test_warm_files_a_fuzz_campaign_without_lookups(tmp_path, capsys):
    """`warm` files specs and looks nothing up: the store's hit and
    miss counters stay at zero."""
    store_dir = str(tmp_path / "store")
    assert main(["warm", "--store", store_dir, "--no-figures",
                 "--no-corpus", "--fuzz-campaign", "0:3:quick",
                 "--quiet"]) == 0
    stats = KernelStore(store_dir).stats()
    assert stats["entries"] > 0
    assert "compiled %d entries" % stats["entries"] in \
        capsys.readouterr().out
    assert stats["hits"] + stats["misses"] == 0


def dot_kernel(n):
    a = np.zeros(n)
    a[::7] = 1.0
    A = fl.from_numpy(a, ("sparse",), name="A")
    C = fl.Scalar(name="C")
    i = fl.indices("i")
    return fl.compile_kernel(fl.forall(i, fl.increment(C[()], A[i])),
                             cache=False)


def test_verify_reads_every_entry_stale_after_a_code_edit(
        tmp_path, monkeypatch, capsys):
    """Another code fingerprint (any source edit) turns every entry
    stale: none is rebuilt, and stale is not a failure."""
    store = KernelStore(tmp_path)
    for n in (30, 40):
        store.save_artifact(dot_kernel(n).artifact)
    monkeypatch.setattr(key_mod, "code_fingerprint", lambda: "f" * 16)
    assert main(["verify", "--store", str(tmp_path)]) == 0
    assert "2 entries, 0 rebuilt, 2 stale" in capsys.readouterr().out


def test_verify_fails_on_an_entry_that_does_not_rebuild(tmp_path,
                                                        capsys):
    """A spec whose source no longer ``exec``s is an ERROR line and
    exit 1; an entry whose key does not hash to its address is
    quarantined and also an ERROR."""
    store = KernelStore(tmp_path)
    good = dot_kernel(30).artifact
    store.save_artifact(good)
    broken = dot_kernel(40).artifact
    spec = dict(broken.to_spec(), source="this is not python (")
    broken_digest = entry_digest(meta_for_artifact(broken))
    store.save_spec(meta_for_artifact(broken), spec)
    tampered = dot_kernel(50).artifact
    path = store.save_artifact(tampered)
    with open(path) as handle:
        record = json.load(handle)
    record["key"]["opt_level"] = 0
    with open(path, "w") as handle:
        json.dump(record, handle)

    assert main(["verify", "--store", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "3 entries, 1 rebuilt, 0 stale" in out
    assert "ERROR %s: spec does not rebuild" % broken_digest in out
    assert "unreadable entry (quarantined)" in out
    assert out.count("ERROR") == 2 and "FAIL" in out
    assert not os.path.exists(path)
    assert store.stats()["quarantined"] == 1


def test_stats_gate_fails_below_floor(tmp_path):
    store = KernelStore(tmp_path)
    store._bump(hits=1, misses=3)
    assert main(["stats", "--store", str(tmp_path),
                 "--min-hit-rate", "0.5"]) == 1
    assert main(["stats", "--store", str(tmp_path),
                 "--min-hit-rate", "0.2"]) == 0


def test_stale_entries_are_counted_listed_and_collected(tmp_path,
                                                        capsys):
    """An entry recorded under another code fingerprint is unreachable
    by this code: stats and ls report it apart, ``gc --stale`` deletes
    it with its sidecars and leaves the current entry alone."""
    from repro.store import meta_for_artifact

    a = np.zeros(30)
    a[::7] = 1.0
    A = fl.from_numpy(a, ("sparse",), name="A")
    C = fl.Scalar(name="C")
    i = fl.indices("i")
    artifact = fl.compile_kernel(fl.forall(i, fl.increment(C[()], A[i])),
                                 cache=False).artifact
    store = KernelStore(tmp_path)
    current = meta_for_artifact(artifact)
    store.save_artifact(artifact)
    foreign = dict(current, code_fingerprint="0" * 16)
    stale_path = store.save_spec(foreign, artifact.to_spec(),
                                 code=artifact.code)
    stale_code = stale_path[:-len(".json")] + ".code"
    assert os.path.exists(stale_code)

    stats = store.stats()
    assert (stats["entries"], stats["stale_entries"]) == (2, 1)
    assert 0 < stats["stale_bytes"] < stats["bytes"]
    assert main(["ls", "--store", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "2 entries (1 stale)" in out and out.count("[stale]") == 1

    assert main(["gc", "--store", str(tmp_path), "--stale"]) == 0
    assert "removed 1 stale entry" in capsys.readouterr().out
    assert not os.path.exists(stale_path)
    assert not os.path.exists(stale_code)
    stats = store.stats()
    assert (stats["entries"], stats["stale_entries"]) == (1, 0)
    assert store.load_artifact(current) is not None


def test_warm_compiles_figures_and_corpus_by_default(
        tmp_path, mini_corpus, monkeypatch, capsys):
    """`warm` compiles the figure registry and the corpus straight into
    the store; the figure set is monkeypatched down to one kernel so
    the test stays fast."""
    import repro.bench.figures as figures

    def one_program():
        a = np.arange(40, dtype=float)
        A = fl.from_numpy(a, ("dense",), name="A")
        C = fl.Scalar(name="C")
        i = fl.indices("i")
        return fl.forall(i, fl.increment(C[()], A[i]))

    monkeypatch.setattr(
        figures, "warm_start_programs",
        lambda: [("fig_test", "one", one_program, {})])
    monkeypatch.setattr(corpus_mod, "DEFAULT_CORPUS_DIR", mini_corpus)
    store_dir = str(tmp_path / "store")
    assert main(["warm", "--store", store_dir, "--quiet"]) == 0
    expected = 1 + len(ORACLE_COMPILE_OPTS)
    assert "compiled %d entries" % expected in capsys.readouterr().out
    assert KernelStore(store_dir).stats()["entries"] == expected
