"""``python -m repro.store``: pack / warm / verify / ls / stats.

The CLI is what CI's staged pipeline drives, so every subcommand is
exercised in-process through ``main(argv)`` — including the hit-rate
gate's exit codes, which is what turns a silent cold-compile fallback
into a red build.
"""

import shutil

import numpy as np
import pytest

import repro.lang as fl
from repro.compiler.kernel import kernel_cache
from repro.fuzz import corpus as corpus_mod
from repro.fuzz.conform import ORACLE_COMPILE_OPTS
from repro.store import KernelStore, using_store
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


def test_pack_verify_ls_warm_stats(tmp_path, mini_corpus, capsys):
    pack_path = str(tmp_path / "kernels.flpack")
    assert main(["pack", "--out", pack_path, "--no-figures",
                 "--corpus", mini_corpus, "--quiet"]) == 0
    out = capsys.readouterr().out
    # One case under each of the conformance oracles' compiles.
    count = len(ORACLE_COMPILE_OPTS)
    assert "packed %d kernel(s)" % count in out

    assert main(["verify", pack_path]) == 0
    assert "PASS" in capsys.readouterr().out

    assert main(["ls", "--pack", pack_path]) == 0
    out = capsys.readouterr().out
    assert "%d entries" % count in out and "fuzz_corpus" in out

    store_dir = str(tmp_path / "store")
    assert main(["warm", "--store", store_dir, "--pack",
                 pack_path]) == 0
    assert "%d loaded" % count in capsys.readouterr().out

    assert main(["ls", "--store", store_dir]) == 0
    assert "%d entries" % count in capsys.readouterr().out

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


def test_stats_gate_fails_below_floor(tmp_path):
    store = KernelStore(tmp_path)
    store._bump(hits=1, misses=3)
    assert main(["stats", "--store", str(tmp_path),
                 "--min-hit-rate", "0.5"]) == 1
    assert main(["stats", "--store", str(tmp_path),
                 "--min-hit-rate", "0.2"]) == 0


def test_warm_without_pack_compiles_directly(tmp_path, mini_corpus,
                                             monkeypatch, capsys):
    """`warm` with no pack compiles the registry straight into the
    store; the figure set is monkeypatched down to one kernel so the
    test stays fast."""
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
