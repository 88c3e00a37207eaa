"""Every defect of a framed entry degrades, none raises.

An entry crosses the wire in both directions as the store holds it:
the record file, then the ``.so`` and ``.code`` sidecars, framed by
the parts header.  A ``GET /kernels`` reply whose framing or record is
wrong — the header missing or malformed, lengths that do not frame
the body, a truncated record, a record under another key, a reply in
the older JSON form — is a miss counted in ``remote_errors``, and the
compile builds locally; a push with the same defect is refused
(``400``, ``push_rejected``), files nothing, and counts
``remote_errors`` on the pusher.  A sidecar part that does not load —
a garbage ``.so``, a ``.code`` part with foreign magic or another
source's hash — is dropped without an error: the spec's source
compiles, as for a defective sidecar on disk.
"""

import cProfile
import hashlib
import json
import pstats

import numpy as np
import pytest

import repro.lang as fl
from repro import codegen
from repro.codegen import toolchain
from repro.compiler.kernel import kernel_cache
from repro.service.client import (
    ServiceClient,
    reset_clients,
    reset_service_stats,
    service_stats,
)
from repro.service.server import KernelService
from repro.store import entry_digest, meta_for_artifact
from repro.store.disk import PARTS_HEADER
from repro.util import config

needs_cc = pytest.mark.skipif(
    not codegen.have_toolchain(), reason="no C compiler on PATH")

#: The C entry's options.
C_OPTS = dict(backend="c")


@pytest.fixture(autouse=True)
def clean_state():
    kernel_cache().clear()
    reset_clients()
    reset_service_stats()
    config.clear()
    yield
    kernel_cache().clear()
    reset_clients()
    reset_service_stats()
    config.clear()


def dot_program(n=50, seed=0):
    rng = np.random.default_rng(seed)
    A = fl.from_numpy(rng.random(n), ("dense",), name="A")
    B = fl.from_numpy(rng.random(n), ("dense",), name="B")
    C = fl.Scalar(name="C")
    i = fl.indices("i")
    return fl.forall(i, fl.increment(C[()], A[i] * B[i])), C


@pytest.fixture
def service(tmp_path):
    with KernelService(tmp_path / "store") as svc:
        yield svc


def _tampered(body, headers, tamper):
    """``(body, headers)`` of one framed entry passed through
    ``tamper(record, so, code) -> (body, parts header or None)``."""
    record, so, _ = (int(n) for n in headers[PARTS_HEADER].split(","))
    body, parts = tamper(body[:record], body[record:record + so],
                         body[record + so:])
    return body, {} if parts is None else {PARTS_HEADER: parts}


def serve(service, monkeypatch, tamper, direction="fetch", **opts):
    """Pass every framed entry crossing the wire in ``direction``
    through ``tamper`` (:func:`_tampered`): a ``"fetch"`` sees the dot
    kernel compiled with ``opts``, stored in ``service`` here; a
    ``"push"`` is the one a compile's miss sends."""
    if direction == "fetch":
        kernel = fl.compile_kernel(dot_program()[0], cache=False, **opts)
        service.store.save_artifact(kernel.artifact)
    real_request = ServiceClient._request

    def tampered(self, path, data=None, headers=None):
        if direction == "push" and data is not None:
            data, headers = _tampered(data, headers, tamper)
        status, body, reply = real_request(self, path, data, headers)
        if direction == "fetch" and data is None and status == 200 \
                and path.startswith("/kernels/"):
            body, reply = _tampered(body, reply, tamper)
        return status, body, reply

    monkeypatch.setattr(ServiceClient, "_request", tampered)
    kernel_cache().clear()


def remote_compile(service, **opts):
    """A compile the service can serve, its ``builtins.compile``
    calls on this thread, and whether it computes the right value."""
    program, C = dot_program(seed=1)
    profile = cProfile.Profile()
    profile.enable()
    kernel = fl.compile_kernel(program, remote=service.url, store=False,
                               **opts)
    profile.disable()
    kernel.run()
    expected, C2 = dot_program(seed=1)
    fl.execute(expected, cache=False, **opts)
    compiles = sum(
        row[1] for (_, _, name), row in pstats.Stats(profile).stats.items()
        if name == "<built-in method builtins.compile>")
    return kernel, compiles, C.value == C2.value


def frame(record, so, code):
    return record + so + code, "%d,%d,%d" % (len(record), len(so),
                                             len(code))


def _foreign_key(record, so, code):
    payload = json.loads(record)
    payload["key"] = dict(payload["key"], registry_version=-999)
    return frame(json.dumps(payload).encode(), so, code)


def _older_json_form(record, so, code):
    # What a service before the framed reply answered: the record with
    # the .so as base64 (none here), and no parts header.
    return json.dumps(dict(json.loads(record), so=None)).encode(), None


CORRUPT = {
    "parts_header_missing": lambda r, s, c: (r + s + c, None),
    "parts_header_not_numbers": lambda r, s, c: (r + s + c, "a,b,c"),
    "parts_header_two_lengths": lambda r, s, c: (
        r + s + c, "%d,%d" % (len(r), len(s) + len(c))),
    "parts_header_negative_length": lambda r, s, c: (
        r + s + c, "%d,-1,%d" % (len(r) + 1, len(s) + len(c))),
    "lengths_short_of_body": lambda r, s, c: (
        r + s + c, "%d,%d,%d" % (len(r), len(s), len(c) - 1)),
    "lengths_past_body": lambda r, s, c: (
        r + s + c[:-1], "%d,%d,%d" % (len(r), len(s), len(c))),
    "record_truncated": lambda r, s, c: frame(r[:len(r) // 2], s, c),
    "record_key_is_not_meta": _foreign_key,
    "older_json_form": _older_json_form,
}


@pytest.mark.parametrize("direction", ["fetch", "push"])
@pytest.mark.parametrize("defect", sorted(CORRUPT))
def test_a_corrupt_frame_is_counted_and_never_stored(
        service, monkeypatch, defect, direction):
    """Either way the compile builds locally and one error is counted:
    a corrupt reply is a miss (the push that follows finds the entry
    stored), and a push after a plain miss is refused unfiled."""
    serve(service, monkeypatch, CORRUPT[defect], direction)
    kernel, _, correct = remote_compile(service)
    assert not kernel.from_cache and correct
    stats = service_stats()
    assert (stats["remote_hits"], stats["remote_errors"],
            stats["remote_misses"]) == (0, 1, 1)
    refused = direction == "push"
    assert service.stats()["push_rejected"] == refused
    assert service.store.stats()["entries"] == (0 if refused else 1)


def _code_magic(record, so, code):
    return frame(record, so, b"\0\0\0\0" + code[4:])


def _code_of_another_source(record, so, code):
    other = hashlib.sha256(b"another kernel's source").digest()
    return frame(record, so, code[:4] + other + code[4 + len(other):])


@pytest.mark.parametrize("tamper", [_code_magic, _code_of_another_source],
                         ids=["foreign_magic", "another_source"])
def test_a_defective_code_part_compiles_the_source(service, monkeypatch,
                                                   tamper):
    serve(service, monkeypatch, tamper)
    kernel, compiles, correct = remote_compile(service)
    assert kernel.from_cache and correct and compiles == 1
    stats = service_stats()
    assert (stats["remote_hits"], stats["remote_errors"]) == (1, 0)


def test_an_intact_reply_compiles_nothing(service, monkeypatch):
    serve(service, monkeypatch, frame)
    kernel, compiles, correct = remote_compile(service)
    assert kernel.from_cache and correct and compiles == 0


@needs_cc
def test_a_garbage_so_part_recompiles_the_c_source(service, monkeypatch):
    serve(service, monkeypatch,
          lambda record, so, code: frame(record, b"not an ELF", code),
          **C_OPTS)
    # Forget this process's built objects: the fetched bytes must be
    # tried, fail to load, and leave the C source to compile again.
    monkeypatch.setattr(toolchain, "_entries", {})
    kernel, _, correct = remote_compile(service, **C_OPTS)
    assert kernel.from_cache and correct
    assert kernel.effective_backend == "c"
    stats = service_stats()
    assert (stats["remote_hits"], stats["remote_errors"]) == (1, 0)


def test_an_older_client_reads_a_framed_reply_as_corrupt(service):
    """A client from before the framed reply parses the body as JSON:
    the sidecar bytes after the record make that fail, which it
    counts as a corrupt entry and a miss."""
    kernel = fl.compile_kernel(dot_program()[0], cache=False)
    service.store.save_artifact(kernel.artifact)
    digest = entry_digest(meta_for_artifact(kernel.artifact))
    status, body, headers = ServiceClient(service.url)._request(
        "/kernels/" + digest)
    assert status == 200 and headers[PARTS_HEADER].split(",")[2] != "0"
    with pytest.raises(ValueError):
        json.loads(body)
