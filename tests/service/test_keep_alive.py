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
import json
import os
import pstats
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import repro.lang as fl
from repro.compiler.kernel import kernel_cache
from repro.service import client as client_mod
from repro.service import server as server_mod
from repro.service.client import ServiceClient, reset_clients
from repro.service.server import KernelService
from repro.store import disk as disk_mod
from repro.store import entry_digest, meta_for_artifact
from repro.store.disk import PARTS_HEADER
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
    status, _, _ = client._request("/kernels/" + entry_digest(meta),
                                   data=b"{ not json")
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


def test_a_fleet_that_starts_together_is_queued_not_refused(
        served, accepted, monkeypatch):
    """32 clients fetch at once, none with a retry to spare, while
    every read is slow: the listen backlog queues each connection
    until the server accepts it, and every fetch is served."""
    service, meta = served
    read_parts = service.store.read_parts

    def slow(digest):
        time.sleep(0.05)
        return read_parts(digest)

    monkeypatch.setattr(service.store, "read_parts", slow)
    start = threading.Barrier(32, timeout=30)

    def fetch(_):
        client = ServiceClient(service.url, retries=0)
        start.wait()
        return client.fetch(meta)

    with ThreadPoolExecutor(32) as pool:
        fetched = list(pool.map(fetch, range(32)))
    assert all(entry is not None for entry in fetched)
    assert accepted[0] == 32


def _client_compiles(thunk):
    """``thunk()``'s result and how many times it called
    ``builtins.compile`` on this thread."""
    profile = cProfile.Profile()
    profile.enable()
    result = thunk()
    profile.disable()
    return result, sum(
        row[1] for (_, _, name), row in pstats.Stats(profile).stats.items()
        if name == "<built-in method builtins.compile>")


def test_a_remote_python_hit_compiles_only_what_no_store_kept(
        served, monkeypatch):
    """The reply carries the served store's bytes: the record file as
    written and the ``.code`` sidecar, so a remote python hit compiles
    nothing while the service's store keeps a current code object.
    With none stored the server compiles once (never runs it) and
    writes the sidecar; a code part foreign to the client's
    interpreter costs the client one compile."""
    service, meta = served
    entry = service.store._entry_path(meta)
    code_path = entry[:-len(".json")] + ".code"
    errors = client_mod.service_stats()["remote_errors"]
    client = ServiceClient(service.url)
    status, body, headers = client._request(
        "/kernels/" + entry_digest(meta))
    record = int(headers[PARTS_HEADER].split(",")[0])
    with open(entry, "rb") as handle:
        assert status == 200 and body[:record] == handle.read()
    with open(code_path, "rb") as handle:
        stored_code = handle.read()
    assert body.endswith(stored_code)

    server_compiles = []
    real_compile = disk_mod.compile_source
    monkeypatch.setattr(disk_mod, "compile_source", lambda source: (
        server_compiles.append(source), real_compile(source))[1])

    def remote_hit(seed):
        kernel_cache().clear()
        program, _ = dot_program(seed=seed)
        kernel, compiles = _client_compiles(lambda: fl.compile_kernel(
            program, remote=service.url, store=False))
        assert kernel.from_cache
        return compiles

    assert remote_hit(3) == 0 and server_compiles == []

    os.remove(code_path)                   # no code object stored
    assert remote_hit(4) == 0 and len(server_compiles) == 1
    with open(entry) as handle:
        source = json.load(handle)["spec"]["source"]
    assert disk_mod._load_code(code_path, source) is not None

    # A service on another interpreter: its sidecar's magic is foreign
    # here, so the code part is dropped and the source compiles.
    read_parts = service.store.read_parts

    def foreign(digest):
        parts = read_parts(digest)
        return parts._replace(code=b"\0\0\0\0" + parts.code[4:])

    monkeypatch.setattr(service.store, "read_parts", foreign)
    assert remote_hit(5) == 1 and len(server_compiles) == 1
    assert client_mod.service_stats()["remote_errors"] == errors
