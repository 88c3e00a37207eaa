"""The remote tier's connection: one kept alive per process and thread.

A warm fetch should pay a round trip, not a TCP handshake and a
server thread.  These tests count the connections the service
accepts: N fetches ride one; a connection the server closed for being
idle is re-opened at once, without a retry's backoff sleep; a forked
child opens its own rather than writing to its parent's socket; and
``KernelService.close()`` ends the open ones (the degrade test in
``test_service_degradation.py`` relies on it).
"""

import cProfile
import os
import pstats
import time

import numpy as np
import pytest

import repro.lang as fl
from repro.compiler.kernel import kernel_cache
from repro.service import KernelService
from repro.service import client as client_mod
from repro.service import server as server_mod
from repro.service.client import ServiceClient, reset_clients
from repro.store import meta_for_artifact
from repro.util import config


@pytest.fixture(autouse=True)
def clean_state():
    kernel_cache().clear()
    reset_clients()
    config.clear()
    yield
    kernel_cache().clear()
    reset_clients()
    config.clear()


@pytest.fixture
def accepted(monkeypatch):
    """The number of connections the service has accepted so far."""
    count = [0]
    setup = server_mod._Handler.setup

    def counting(handler):
        count[0] += 1
        setup(handler)

    monkeypatch.setattr(server_mod._Handler, "setup", counting)
    return count


def dot_program(n=40, seed=0):
    rng = np.random.default_rng(seed)
    A = fl.from_numpy(rng.random(n), ("dense",), name="A")
    B = fl.from_numpy(rng.random(n), ("dense",), name="B")
    C = fl.Scalar(name="C")
    i = fl.indices("i")
    return fl.forall(i, fl.increment(C[()], A[i] * B[i])), C


@pytest.fixture
def served(tmp_path):
    """``(service, meta)``: a running service holding one kernel."""
    kernel = fl.compile_kernel(dot_program()[0], cache=False)
    with KernelService(tmp_path / "store") as service:
        service.store.save_artifact(kernel.artifact)
        yield service, meta_for_artifact(kernel.artifact)


def test_fetches_share_one_connection(served, accepted):
    service, meta = served
    client = ServiceClient(service.url)
    for _ in range(20):
        assert client.fetch(meta) is not None
    assert client.healthz()["ok"] is True
    assert accepted[0] == 1
    assert len(service.connections) == 1


def test_compiles_through_the_tier_share_one_connection(served,
                                                        accepted):
    service, _ = served
    for seed in range(5):
        kernel_cache().clear()
        program, _ = dot_program(seed=seed)
        kernel = fl.compile_kernel(program, remote=service.url,
                                   store=False)
        assert kernel.from_cache
    assert accepted[0] == 1


@pytest.mark.parametrize("retries", [0, 1])
def test_idle_close_reconnects_without_a_backoff(served, accepted,
                                                 monkeypatch, retries):
    """The reconnect is neither a retry (a budget of 0 still lands)
    nor a backoff (a budget of 1 never sleeps)."""
    service, meta = served
    monkeypatch.setattr(server_mod._Handler, "timeout", 0.2)
    client = ServiceClient(service.url, retries=retries)
    assert client.fetch(meta) is not None
    deadline = time.monotonic() + 5.0
    while service.connections and time.monotonic() < deadline:
        time.sleep(0.05)          # the server drops the idle connection
    assert not service.connections
    sleeps = []
    monkeypatch.setattr(client_mod.time, "sleep", sleeps.append)
    assert client.fetch(meta) is not None
    assert sleeps == []
    assert accepted[0] == 2


def test_forked_child_opens_its_own_connection(served, accepted):
    if not hasattr(os, "fork"):
        pytest.skip("no fork on this platform")
    service, meta = served
    client = ServiceClient(service.url)
    assert client.fetch(meta) is not None
    parent_conn = client._local.conn
    parent_sock = parent_conn.sock
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:  # pragma: no cover - the child reports through the pipe
        ok = False
        try:
            ok = (client.fetch(meta) is not None
                  and client._local.conn is not parent_conn)
        finally:
            os.write(write_end, b"1" if ok else b"0")
            os._exit(0)
    os.close(write_end)
    os.waitpid(pid, 0)
    assert os.read(read_end, 1) == b"1"
    os.close(read_end)
    # The parent's connection is untouched and still serves.
    assert client.fetch(meta) is not None
    assert client._local.conn is parent_conn
    assert parent_conn.sock is parent_sock
    assert accepted[0] == 2


def test_a_refused_push_closes_its_connection(served, accepted):
    """The server may not have read a refused body: it says
    ``Connection: close``, and the next request opens a new one."""
    service, meta = served
    client = ServiceClient(service.url, retries=0)
    status, _ = client._request("/compile", data=b"{ not json")
    assert status == 400
    assert client._local.conn.sock is None     # closed as announced
    assert client.fetch(meta) is not None
    assert accepted[0] == 2


def test_close_ends_kept_alive_connections(tmp_path):
    kernel = fl.compile_kernel(dot_program()[0], cache=False)
    service = KernelService(tmp_path / "store").start()
    service.store.save_artifact(kernel.artifact)
    meta = meta_for_artifact(kernel.artifact)
    client = ServiceClient(service.url, retries=0)
    assert client.fetch(meta) is not None
    service.close()
    assert client.fetch(meta) is None
    assert not client.available()        # degraded, not served


def test_a_remote_python_hit_compiles_its_source(served):
    """Code objects never cross the wire: the service's store keeps a
    ``.code`` sidecar, the fetch carries only the spec."""
    service, meta = served
    entry = service.store._entry_path(meta)
    assert os.path.exists(entry[:-len(".json")] + ".code")
    client = ServiceClient(service.url)
    spec, so = client.fetch(meta)
    assert so is None and "code" not in spec
    program, _ = dot_program(seed=3)
    profile = cProfile.Profile()
    profile.enable()
    kernel = fl.compile_kernel(program, remote=service.url, store=False)
    profile.disable()
    assert kernel.from_cache
    compiles = sum(
        row[1] for (_, _, name), row in pstats.Stats(profile).stats.items()
        if name == "<built-in method builtins.compile>")
    assert compiles == 1
