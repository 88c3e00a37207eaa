"""The kernel service's server half: a store behind four routes.

Deliberately boring infrastructure: stdlib ``ThreadingHTTPServer``
(one thread per connection, fine for a cache whose responses are
small bodies) and the existing :class:`~repro.store.disk.KernelStore`
as the only state.  Everything durable — atomicity, locking,
quarantine, eviction, the persisted counters — is the store's
problem, already solved; the service is a wire adapter over it.

Routes::

    GET  /healthz            {"ok": true, ...}
    GET  /stats              hit/miss/push counters (stats.json schema)
    GET  /kernels/<digest>   one entry: record, .so, .code bytes
    POST /kernels/<digest>   file one pushed entry, in the same framing

An entry crosses the wire in both directions as the store holds it:
the record file's bytes, then its ``.so`` and ``.code`` sidecars,
their lengths in one header (framed by :mod:`repro.store.disk`) — no
re-encoding.  ``GET`` serves what :meth:`~repro.store.disk.KernelStore.
read_parts` read and verified; the record carries the entry's key, and the key every
version axis, so the client compares it against the key it derived
locally and rejects entries compiled under other code, exactly like
the disk store does.  ``POST`` hands the parts to
:meth:`~repro.store.disk.KernelStore.file_parts`, which checks them
with readers that run nothing — the recorded key must hash to the
digest in the URL, the spec's source must compile — and files the
record verbatim.  The service rebuilds nothing and executes nothing
it is sent, so it needs no C toolchain.

Connections are HTTP/1.1 keep-alive: a client's fetches share one TCP
connection and one handler thread.  Responses go out with Nagle's
algorithm off (``TCP_NODELAY``) — otherwise the small body written
after the headers waits for the client's delayed ACK, about 40 ms per
request.  A connection idle for :data:`IDLE_TIMEOUT_S` is closed, and
:meth:`KernelService.close` ends every open one.

The process loads no numpy, no compiler and no C toolchain.  Only
``/stats`` loads more: counting stale entries reads the op registry's
version, and with it :mod:`repro.ir` and numpy.
"""

import json
import logging
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.compiler.key import STORE_VERSION
from repro.store.disk import (
    PARTS_HEADER,
    KernelStore,
    frame_parts,
    split_parts,
)

_log = logging.getLogger("repro.service")

#: Largest push body ``POST /kernels`` accepts (an entry is tens of
#: kilobytes; anything near this is garbage or abuse).
MAX_BODY_BYTES = 32 * 1024 * 1024

#: Seconds a kept-alive connection may sit idle before the server
#: closes it (the client re-opens one on its next request).
IDLE_TIMEOUT_S = 60.0


def _is_digest(text):
    return (len(text) == 40
            and all(c in "0123456789abcdef" for c in text))


class _Handler(BaseHTTPRequestHandler):
    """One request against the service's store (``self.server.service``)."""

    server_version = "fl-kernel-service/1"
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    timeout = IDLE_TIMEOUT_S

    def setup(self):
        super().setup()
        self.server.service.connections.add(self.connection)

    def finish(self):
        self.server.service.connections.discard(self.connection)
        super().finish()

    def log_message(self, fmt, *args):  # route to logging, not stderr
        _log.debug("%s " + fmt, self.address_string(), *args)

    def _send(self, status, body, content_type, headers=()):
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in headers:
            self.send_header(name, value)
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, status, payload):
        self._send(status, json.dumps(payload, sort_keys=True).encode(),
                   "application/json")

    def do_GET(self):
        service = self.server.service
        path = self.path.split("?", 1)[0]
        if path == "/healthz":
            self._send_json(200, {"ok": True,
                                  "store": service.store.root,
                                  "store_version": STORE_VERSION})
            return
        if path == "/stats":
            self._send_json(200, service.stats())
            return
        if path.startswith("/kernels/"):
            self._get_kernel(service, path[len("/kernels/"):])
            return
        self._send_json(404, {"error": "unknown route %s" % path})

    def _get_kernel(self, service, digest):
        if not _is_digest(digest):
            self._send_json(400, {"error": "malformed digest"})
            return
        parts = service.store.read_parts(digest)
        if parts is None:
            service.bump("misses")
            self._send_json(404, {"error": "unknown kernel",
                                  "digest": digest})
            return
        body, header = frame_parts(parts.record, parts.so, parts.code)
        service.bump("hits")
        self._send(200, body, "application/octet-stream",
                   [(PARTS_HEADER, header)])

    def do_POST(self):
        service = self.server.service
        path = self.path.split("?", 1)[0]
        if not path.startswith("/kernels/"):
            self._send_json(404, {"error": "unknown route %s" % path})
            return
        digest = path[len("/kernels/"):]
        try:
            if not _is_digest(digest):
                raise ValueError("malformed digest")
            length = int(self.headers.get("Content-Length", "0"))
            if not 0 < length <= MAX_BODY_BYTES:
                raise ValueError("bad content length %d" % length)
            stored = service.store.file_parts(digest, *split_parts(
                self.rfile.read(length), self.headers.get(PARTS_HEADER)))
        except (ValueError, TypeError, SyntaxError) as exc:
            # The body may be unread: this connection cannot carry
            # another request.
            self.close_connection = True
            service.bump("push_rejected")
            self._send_json(400, {"error": "rejected entry: %s" % exc})
            return
        service.bump("pushes")
        self._send_json(201 if stored else 200,
                        {"digest": digest, "stored": stored})


class _Server(ThreadingHTTPServer):
    # socketserver's backlog of 5 refuses a fleet that starts together.
    request_queue_size = 128
    daemon_threads = True


class KernelService:
    """One kernel service: a store and an HTTP front.

    ``store`` is a :class:`~repro.store.disk.KernelStore` or a
    directory path.  ``port=0`` binds an ephemeral port —
    read :attr:`url` after construction.  :meth:`start` serves on a
    daemon thread (tests, embedded use); :meth:`serve_forever` serves
    on the calling thread (``python -m repro.service``).
    """

    def __init__(self, store, host="127.0.0.1", port=0):
        self.store = (store if isinstance(store, KernelStore)
                      else KernelStore(store))
        self._counters = {"hits": 0, "misses": 0, "pushes": 0,
                          "push_rejected": 0}
        self._counters_lock = threading.Lock()
        #: The sockets of the open client connections.
        self.connections = set()
        self._httpd = _Server((host, port), _Handler)
        self._httpd.service = self
        self._thread = None

    @property
    def url(self):
        host, port = self._httpd.server_address[:2]
        return "http://%s:%d" % (host, port)

    def bump(self, name):
        with self._counters_lock:
            self._counters[name] += 1

    def stats(self):
        """Service counters in the ``stats.json`` schema — ``hits``/
        ``misses``/``hit_rate`` count wire lookups (not the store's
        local lookups), ``pushes``/``push_rejected`` count pushes
        accepted and refused, and the backing store's own ``stats()``
        sits under ``"store"``."""
        with self._counters_lock:
            out = dict(self._counters)
        lookups = out["hits"] + out["misses"]
        out["hit_rate"] = out["hits"] / lookups if lookups else 0.0
        out["store"] = self.store.stats()
        return out

    def start(self):
        """Serve on a background daemon thread; returns ``self``."""
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="fl-kernel-service", daemon=True)
        self._thread.start()
        return self

    def serve_forever(self):
        self._httpd.serve_forever()

    def close(self):
        """Stop serving: no new connections, and every open keep-alive
        connection is shut down (its handler thread then ends)."""
        self._httpd.shutdown()
        self._httpd.server_close()
        for conn in list(self.connections):
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # already closed by its handler
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info):
        self.close()
