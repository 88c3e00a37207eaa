"""The kernel service's HTTP surface: routes, pushes, stats schema.

Drives a real :class:`~repro.service.server.KernelService` on an ephemeral
port through raw ``urllib`` requests — the same wire a fleet client
uses — and checks each route's contract: entry serving with the
recorded key, digest validation, a push filed at once (or refused)
without running anything it carries, and the ``stats.json``-schema
counters.
"""

import json
import os
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

import repro
import repro.lang as fl
from repro.compiler.kernel import kernel_cache
from repro.service.client import ServiceClient
from repro.service.server import KernelService
from repro.store import disk as disk_mod
from repro.store import entry_digest, meta_for_artifact
from repro.store.disk import (
    PARTS_HEADER,
    decode_code,
    encode_record,
    frame_parts,
)
from repro.util import config


@pytest.fixture(autouse=True)
def clean_state():
    kernel_cache().clear()
    config.clear("store_path", "store_max_bytes")
    yield
    kernel_cache().clear()
    config.clear("store_path", "store_max_bytes")


@pytest.fixture
def service(tmp_path):
    with KernelService(tmp_path / "store") as svc:
        yield svc


def dot_program(n=50, seed=0):
    rng = np.random.default_rng(seed)
    A = fl.from_numpy(rng.random(n), ("dense",), name="A")
    B = fl.from_numpy(rng.random(n), ("dense",), name="B")
    C = fl.Scalar(name="C")
    i = fl.indices("i")
    return fl.forall(i, fl.increment(C[()], A[i] * B[i]))


def seed_entry(service, n=50):
    """Compile one kernel straight into the service's store; returns
    ``(digest, meta, spec)``."""
    kernel = fl.compile_kernel(dot_program(n=n), cache=False)
    meta = meta_for_artifact(kernel.artifact)
    spec = kernel.artifact.to_spec()
    service.store.save_spec(meta, spec)
    return entry_digest(meta), meta, spec


def get(service, path):
    try:
        with urllib.request.urlopen(service.url + path,
                                    timeout=5) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


def post(service, path, data, headers=None):
    request = urllib.request.Request(service.url + path, data=data,
                                     headers=headers or {})
    try:
        with urllib.request.urlopen(request, timeout=5) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


def test_healthz(service):
    status, body = get(service, "/healthz")
    payload = json.loads(body)
    assert status == 200
    assert payload["ok"] is True
    assert payload["store"] == service.store.root


def test_unknown_routes_404(service):
    assert get(service, "/nope")[0] == 404
    assert post(service, "/nope", b"{}")[0] == 404


def test_get_kernel_serves_entry_with_recorded_key(service):
    """The reply is the stored bytes: the record file as written (with
    its recorded key), then the ``.so`` and ``.code`` sidecars, framed
    by the parts header."""
    digest, meta, spec = seed_entry(service)
    with urllib.request.urlopen(service.url + "/kernels/" + digest,
                                timeout=5) as response:
        status, body = response.status, response.read()
        parts = response.headers[PARTS_HEADER]
    record, so, code = (int(length) for length in parts.split(","))
    assert status == 200 and record + so + code == len(body)
    path = service.store.entry_path_for_digest(digest)
    with open(path, "rb") as handle:
        assert body[:record] == handle.read()
    payload = json.loads(body[:record])
    assert payload["key"] == meta
    assert payload["spec"]["name"] == spec["name"]
    assert so == 0  # a python entry has no shared object
    # The entry was stored without a code object: the first read
    # compiled one, wrote it beside the entry and served its bytes.
    with open(path[:-len(".json")] + ".code", "rb") as handle:
        assert body[record + so:] == handle.read()
    assert decode_code(body[record + so:], spec["source"]) is not None


def test_get_kernel_miss_and_malformed(service):
    assert get(service, "/kernels/" + "0" * 40)[0] == 404
    assert get(service, "/kernels/not-a-digest")[0] == 400
    assert get(service, "/kernels/" + "Z" * 40)[0] == 400
    stats = service.stats()
    assert stats["misses"] == 1  # malformed digests are not misses
    assert stats["hits"] == 0


def push(service, meta, spec, record=None, so=None, code=None):
    """POST one entry's framed parts to ``/kernels/<digest of meta>``;
    returns ``(status, reply payload)``."""
    body, parts = frame_parts(
        encode_record(meta, spec) if record is None else record, so, code)
    status, reply = post(service, "/kernels/" + entry_digest(meta), body,
                         {PARTS_HEADER: parts})
    return status, json.loads(reply)


def test_a_push_is_stored_at_once_and_a_repush_is_not(service):
    kernel = fl.compile_kernel(dot_program(n=60), cache=False)
    meta = meta_for_artifact(kernel.artifact)
    spec = kernel.artifact.to_spec()
    status, reply = push(service, meta, spec)
    assert status == 201
    assert reply == {"digest": entry_digest(meta), "stored": True}
    # Filed before the reply.
    assert service.store.stats()["entries"] == 1
    status, reply = push(service, meta, spec)
    assert status == 200 and reply["stored"] is False
    assert service.stats()["pushes"] == 2
    # The stored entry is now servable.
    assert get(service, "/kernels/" + reply["digest"])[0] == 200


def _framed(record):
    body, parts = frame_parts(record)
    return body, {PARTS_HEADER: parts}


def test_a_garbage_push_is_refused(service):
    _, meta, spec = seed_entry(service)
    digest = entry_digest(dict(meta, name="another"))
    record = encode_record(meta, spec)
    for path, body, headers in [
            ("/kernels/" + digest, record, None),          # no header
            ("/kernels/" + digest, b"{ not json",
             {PARTS_HEADER: "10,0,0"}),
            ("/kernels/not-a-digest", *_framed(record)),
            # The recorded key does not hash to the address.
            ("/kernels/" + digest, *_framed(record)),
            # The JSON body of the old compile queue.
            ("/kernels/" + digest,
             json.dumps({"key": meta, "spec": spec}).encode(), None)]:
        assert post(service, path, body, headers)[0] == 400, path
    assert service.store.stats()["entries"] == 1
    assert service.stats()["push_rejected"] == 5


def test_a_spec_whose_source_does_not_compile_is_refused(service):
    kernel = fl.compile_kernel(dot_program(n=70), cache=False)
    spec = dict(kernel.artifact.to_spec())
    spec["source"] = "this is not python ("
    status, reply = push(service, meta_for_artifact(kernel.artifact), spec)
    assert status == 400 and "error" in reply
    assert service.store.stats()["entries"] == 0
    assert service.stats()["push_rejected"] == 1


def test_a_pushed_spec_is_stored_and_never_run(service, tmp_path):
    """The service compiles a pushed source to check it and never
    executes it: a module-level statement that writes a file is stored
    with the entry, and the file never appears."""
    sentinel = tmp_path / "ran"
    kernel = fl.compile_kernel(dot_program(n=80), cache=False)
    meta = meta_for_artifact(kernel.artifact)
    spec = dict(kernel.artifact.to_spec())
    spec["source"] = ("open(%r, 'w').write('ran')\n" % str(sentinel)
                      + spec["source"])
    assert ServiceClient(service.url).push(meta, spec)
    assert service.store.load_spec(meta) == spec
    assert get(service, "/kernels/" + entry_digest(meta))[0] == 200
    assert not sentinel.exists()


def test_a_push_keeps_only_the_sidecars_that_check_out(service):
    """A ``.code`` part that does not decode for the spec's source, and
    a ``.so`` part beside a spec with no C source, are not filed."""
    kernel = fl.compile_kernel(dot_program(n=90), cache=False)
    meta = meta_for_artifact(kernel.artifact)
    status, _ = push(service, meta, kernel.artifact.to_spec(),
                     so=b"not an ELF", code=b"not a code object")
    assert status == 201
    path = service.store.entry_path_for_digest(entry_digest(meta))
    for suffix in (".so", ".code"):
        assert not os.path.exists(path[:-len(".json")] + suffix)


def test_concurrent_pushes_of_one_entry_file_it_once(service,
                                                     monkeypatch):
    """Pushes of one entry race on the store's lock: exactly one files
    it, and the store writes it once.  A slow source check holds every
    push past the unlocked "already stored?" test, so the locked write
    decides."""
    monkeypatch.setattr(disk_mod, "compile_source",
                        lambda source: time.sleep(0.02))
    kernel = fl.compile_kernel(dot_program(n=100), cache=False)
    meta = meta_for_artifact(kernel.artifact)
    record = encode_record(meta, kernel.artifact.to_spec())
    barrier = threading.Barrier(16)
    filed = []

    def pusher():
        barrier.wait(timeout=30)
        filed.append(service.store.file_parts(entry_digest(meta), record))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=pusher)
                   for _ in range(barrier.parties)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert sorted(filed) == [False] * (barrier.parties - 1) + [True]
    stats = service.store.stats()
    assert (stats["entries"], stats["writes"]) == (1, 1)


def test_stats_schema(service):
    digest, _, _ = seed_entry(service)
    get(service, "/kernels/" + digest)
    get(service, "/kernels/" + "0" * 40)
    stats = json.loads(get(service, "/stats")[1])
    assert stats["hits"] == 1
    assert stats["misses"] == 1
    assert stats["hit_rate"] == 0.5
    # The same shape stats.json consumers already parse, plus the push
    # counters and the backing store's own counters.
    assert (stats["pushes"], stats["push_rejected"]) == (0, 0)
    assert stats["store"]["entries"] == 1


def test_cli_first_line_ends_with_the_url(tmp_path):
    """``python -m repro.service --port 0`` names the address it bound
    as the last token of its first stdout line — what a caller that
    starts the service on an ephemeral port reads it from."""
    src = os.path.dirname(os.path.dirname(
        os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep
               + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.service",
         "--store", str(tmp_path / "store"), "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        env=env)
    try:
        line = proc.stdout.readline()
        assert line.startswith("serving kernel store "), line
        url = line.split()[-1]
        with urllib.request.urlopen(url + "/healthz",
                                    timeout=10) as response:
            assert json.loads(response.read())["ok"] is True
    finally:
        proc.terminate()
        proc.wait(timeout=10)
        proc.stdout.close()
