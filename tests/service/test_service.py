"""The kernel service's HTTP surface: routes, queue, stats schema.

Drives a real :class:`~repro.service.KernelService` on an ephemeral
port through raw ``urllib`` requests — the same wire a fleet client
uses — and checks each route's contract: entry serving with the
recorded key, digest validation, the async compile queue's dedup, and
the ``stats.json``-schema counters.
"""

import json
import os
import subprocess
import sys
import urllib.error
import urllib.request

import numpy as np
import pytest

import repro
import repro.lang as fl
from repro.compiler.kernel import kernel_cache
from repro.service import KernelService
from repro.service.server import PARTS_HEADER
from repro.store import entry_digest, meta_for_artifact
from repro.store.disk import decode_code
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


def post(service, path, payload):
    request = urllib.request.Request(
        service.url + path,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"})
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
    assert post(service, "/nope", {})[0] == 404


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


def test_post_compile_queues_and_dedups(service):
    kernel = fl.compile_kernel(dot_program(n=60), cache=False)
    entry = {"key": meta_for_artifact(kernel.artifact),
             "spec": kernel.artifact.to_spec()}
    status, body = post(service, "/compile", entry)
    first = json.loads(body)
    assert status == 202
    assert first["queued"] is True
    assert first["digest"] == entry_digest(entry["key"])
    service.queue.join()
    # The queue rebuilt and stored the entry; a re-push dedups.
    assert service.store.stats()["entries"] == 1
    status, body = post(service, "/compile", entry)
    assert status == 202
    assert json.loads(body)["queued"] is False
    counters = service.queue.counters()
    assert counters["compiled"] == 1
    assert counters["deduped"] == 1
    assert counters["errors"] == 0
    # The stored entry is now servable.
    assert get(service, "/kernels/" + first["digest"])[0] == 200


def test_post_compile_rejects_garbage(service):
    assert post(service, "/compile", {"nope": 1})[0] == 400
    assert post(service, "/compile", {"key": {}, "spec": "text"})[0] \
        == 400
    request = urllib.request.Request(
        service.url + "/compile", data=b"{ not json",
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=5) as response:
            status = response.status
    except urllib.error.HTTPError as exc:
        status = exc.code
    assert status == 400
    assert service.queue.counters()["queued"] == 0


def test_queue_rejects_specs_that_do_not_rebuild(service):
    kernel = fl.compile_kernel(dot_program(n=70), cache=False)
    spec = dict(kernel.artifact.to_spec())
    spec["source"] = "this is not python ("
    status, _ = post(service, "/compile",
                     {"key": meta_for_artifact(kernel.artifact),
                      "spec": spec})
    assert status == 202  # accepted for the queue ...
    service.queue.join()
    # ... but rejected at rebuild: never stored, counted as an error.
    assert service.store.stats()["entries"] == 0
    assert service.queue.counters()["errors"] == 1


def test_stats_schema(service):
    digest, _, _ = seed_entry(service)
    get(service, "/kernels/" + digest)
    get(service, "/kernels/" + "0" * 40)
    stats = json.loads(get(service, "/stats")[1])
    assert stats["hits"] == 1
    assert stats["misses"] == 1
    assert stats["hit_rate"] == 0.5
    # The same shape stats.json consumers already parse, plus the
    # queue and the backing store's own counters.
    for key in ("pushes", "queue_depth",
                "queue_queued", "queue_deduped", "queue_compiled",
                "queue_errors"):
        assert key in stats, key
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
