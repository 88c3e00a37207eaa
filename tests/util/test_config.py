"""The unified configuration resolver: one precedence rule, proven.

The package-wide contract is ``per-call kwarg > fl.configure(...) >
FL_* env > default``.  These tests prove it layer by layer for the
resolver itself, then end-to-end for the three axes a compile reads
from every layer — store, backend and service URL — driving real
``compile_kernel`` / ``active_store`` / ``active_client`` calls, not
just ``resolve``.
"""

import numpy as np
import pytest

import repro.lang as fl
from repro.compiler.kernel import kernel_cache
from repro.service.client import active_client, reset_clients
from repro.store import active_store
from repro.util import config


def dot_program(n=60, seed=0):
    rng = np.random.default_rng(seed)
    a = np.zeros(n)
    a[rng.choice(n, max(3, n // 8), replace=False)] = 1.0
    A = fl.from_numpy(a, ("sparse",), name="A")
    B = fl.from_numpy(rng.random(n), ("dense",), name="B")
    C = fl.Scalar(name="C")
    i = fl.indices("i")
    return fl.forall(i, fl.increment(C[()], A[i] * B[i])), C, a


@pytest.fixture(autouse=True)
def clean_state(monkeypatch):
    for option in config.OPTIONS.values():
        monkeypatch.delenv(option.env, raising=False)
    config.clear()
    kernel_cache().clear()
    reset_clients()
    yield
    config.clear()
    kernel_cache().clear()
    reset_clients()


# -- the resolver ----------------------------------------------------------


def test_default_layer():
    assert config.resolve("backend") == "python"
    assert config.resolve("opt_level") == 2
    assert config.resolve("store_path") is None
    assert config.resolve("service_url") is None
    assert config.source("backend") == "default"


def test_env_beats_default(monkeypatch):
    monkeypatch.setenv("FL_KERNEL_BACKEND", "c")
    monkeypatch.setenv("FL_KERNEL_OPT_LEVEL", "0")
    assert config.resolve("backend") == "c"
    assert config.resolve("opt_level") == 0
    assert config.source("backend") == "env"


def test_empty_env_reads_as_unset(monkeypatch):
    monkeypatch.setenv("FL_KERNEL_BACKEND", "")
    monkeypatch.setenv("FL_KERNEL_STORE", "")
    assert config.resolve("backend") == "python"
    assert config.resolve("store_path") is None
    assert config.source("backend") == "default"


def test_configure_beats_env(monkeypatch):
    monkeypatch.setenv("FL_KERNEL_BACKEND", "c")
    fl.configure(backend="python")
    assert config.resolve("backend") == "python"
    assert config.source("backend") == "configure"


def test_kwarg_beats_configure(monkeypatch):
    monkeypatch.setenv("FL_KERNEL_BACKEND", "python")
    fl.configure(backend="python")
    assert config.resolve("backend", override="c") == "c"


def test_unset_drops_the_configure_layer(monkeypatch):
    monkeypatch.setenv("FL_KERNEL_BACKEND", "c")
    fl.configure(backend="python")
    assert config.resolve("backend") == "python"
    fl.configure(backend=config.UNSET)
    assert config.resolve("backend") == "c"


def test_none_is_a_value_not_unset(monkeypatch):
    monkeypatch.setenv("FL_KERNEL_STORE", "/tmp/somewhere")
    fl.configure(store_path=None)
    # Explicit None disables the store even with the env set ...
    assert config.resolve("store_path") is None
    assert config.source("store_path") == "configure"
    # ... and only UNSET restores env-driven behavior.
    config.configure(store_path=config.UNSET)
    assert config.resolve("store_path") == "/tmp/somewhere"


def test_unknown_option_rejected():
    with pytest.raises(ValueError, match="unknown configuration"):
        fl.configure(no_such_option=1)
    with pytest.raises(ValueError, match="unknown configuration"):
        config.resolve("no_such_option")
    # The autotuner's winners-table mode went with the autotuner.
    with pytest.raises(ValueError, match="unknown configuration"):
        fl.configure(tune="apply")


def test_removed_pool_options_are_unknown():
    # The watchdog deadline and retry budget are KernelPool arguments
    # and the chunk target and backoff are constants in exec/pool.py,
    # not config options.
    with pytest.raises(ValueError, match="unknown configuration"):
        fl.configure(pool_deadline_s=1)
    assert len(config.OPTIONS) == 10


def test_choices_validated():
    with pytest.raises(ValueError, match="backend must be"):
        fl.configure(backend="rust")
    with pytest.raises(ValueError, match="opt_level must be"):
        fl.configure(opt_level=7)


def test_env_values_parsed(monkeypatch):
    monkeypatch.setenv("FL_KERNEL_OPT_LEVEL", "0")
    monkeypatch.setenv("FL_SERVICE_TIMEOUT_S", "0.25")
    monkeypatch.setenv("FL_SERVICE_RETRIES", "3")
    assert config.resolve("opt_level") == 0
    assert config.resolve("service_timeout_s") == 0.25
    assert config.resolve("service_retries") == 3


def test_runtime_config_reports_every_option():
    snapshot = fl.runtime_config()
    assert set(snapshot) == set(config.OPTIONS)
    assert snapshot["backend"] == "python"
    # The compiler's default level is the option table's default.
    assert fl.runtime_config(detailed=True)["opt_level"] == {
        "value": 2, "source": "default", "env": "FL_KERNEL_OPT_LEVEL"}


def test_runtime_config_detailed_names_the_layer(monkeypatch):
    monkeypatch.setenv("FL_KERNEL_OPT_LEVEL", "0")
    fl.configure(backend="c")
    detailed = fl.runtime_config(detailed=True)
    assert detailed["backend"] == {
        "value": "c", "source": "configure",
        "env": "FL_KERNEL_BACKEND"}
    assert detailed["opt_level"]["source"] == "env"
    assert detailed["service_url"]["source"] == "default"


def test_snapshot_restore_roundtrip():
    fl.configure(backend="c", opt_level=0)
    before = config.snapshot()
    fl.configure(backend="python", opt_level=config.UNSET)
    config.restore(before)
    assert config.resolve("backend") == "c"
    assert config.resolve("opt_level") == 0


# -- end-to-end: the three named axes --------------------------------------


def test_store_precedence_end_to_end(tmp_path, monkeypatch):
    env_dir = tmp_path / "env_store"
    cfg_dir = tmp_path / "cfg_store"
    call_dir = tmp_path / "call_store"
    monkeypatch.setenv("FL_KERNEL_STORE", str(env_dir))
    assert active_store().root == str(env_dir)
    fl.configure(store_path=str(cfg_dir))
    assert active_store().root == str(cfg_dir)
    # The per-call kwarg wins over both: the entry lands in call_dir.
    fl.compile_kernel(dot_program()[0], store=str(call_dir))
    assert fl.KernelStore(str(call_dir)).stats()["entries"] == 1
    assert fl.KernelStore(str(cfg_dir)).stats()["entries"] == 0


def test_backend_precedence_end_to_end(monkeypatch):
    monkeypatch.setenv("FL_KERNEL_BACKEND", "c")
    fl.configure(backend="python")
    kernel = fl.compile_kernel(dot_program()[0], cache=False)
    assert kernel.backend == "python"  # configure beat the env
    kernel = fl.compile_kernel(dot_program()[0], cache=False,
                               backend="c")
    assert kernel.backend == "c"  # the kwarg beat configure


def test_backend_override_resolves_and_validates(monkeypatch):
    monkeypatch.setenv("FL_KERNEL_BACKEND", "c")
    assert config.resolve("backend", override=None) == "c"
    assert fl.compile_kernel(dot_program()[0],
                             cache=False).backend == "c"  # env alone
    fl.configure(backend="python")
    assert config.resolve("backend", override=None) == "python"
    assert config.resolve("backend", override="c") == "c"  # kwarg wins
    with pytest.raises(ValueError, match="backend must be one of"):
        config.resolve("backend", override="rust")


def test_service_url_precedence_end_to_end(monkeypatch):
    monkeypatch.setenv("FL_SERVICE_URL", "http://env:1")
    assert active_client().url == "http://env:1"
    fl.configure(service_url="http://cfg:2")
    assert active_client().url == "http://cfg:2"
    assert active_client("http://call:3/").url == "http://call:3"
    # remote=False disables the tier outright, all layers set.
    assert active_client(False) is None
