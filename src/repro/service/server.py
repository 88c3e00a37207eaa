"""The kernel service's server half: a store behind four routes.

Deliberately boring infrastructure: stdlib ``ThreadingHTTPServer``
(one thread per connection, fine for a cache whose responses are
small JSON bodies), one background compile-queue thread, and the
existing :class:`~repro.store.disk.KernelStore` as the only state.
Everything durable — atomicity, locking, quarantine, eviction, the
persisted counters — is the store's problem, already solved; the
service is a wire adapter over it.

Routes::

    GET  /healthz            {"ok": true, ...}
    GET  /stats              hit/miss/queue counters (stats.json schema)
    GET  /kernels/<digest>   one entry: {"key", "spec", "so": base64?}
    POST /compile            enqueue a pushed {"key", "spec"} entry
    GET  /packs/<name>       a .flpack artifact from the packs dir

``GET /kernels`` serves the stored entry *with its recorded key* —
the key carries every version axis (spec layout, registry version,
optimizer/codegen fingerprints), so the client compares it against
the key it derived locally and rejects entries compiled under other
code, exactly like the disk store does.  The server never trusts a
pushed entry's digest claim either: ``POST /compile`` re-derives the
digest from the pushed key and verifies the spec rebuilds before the
entry reaches the store.

Connections are HTTP/1.1 keep-alive: a client's fetches share one TCP
connection and one handler thread.  Responses go out with Nagle's
algorithm off (``TCP_NODELAY``) — otherwise the small body written
after the headers waits for the client's delayed ACK, about 40 ms per
request.  A connection idle for :data:`IDLE_TIMEOUT_S` is closed, and
:meth:`KernelService.close` ends every open one.
"""

import base64
import json
import logging
import os
import queue
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.compiler.key import STORE_VERSION, KernelKey, entry_digest
from repro.compiler.tiers import put, rebuild
from repro.store.disk import KernelStore

_log = logging.getLogger("repro.service")

#: Largest request body ``POST /compile`` accepts (a spec is tens of
#: kilobytes; anything near this is garbage or abuse).
MAX_BODY_BYTES = 32 * 1024 * 1024

#: Seconds a kept-alive connection may sit idle before the server
#: closes it (the client re-opens one on its next request).
IDLE_TIMEOUT_S = 60.0


class _CompileQueue:
    """The async compile queue behind ``POST /compile``.

    One daemon worker drains pushed entries: rebuild the spec
    (:func:`~repro.compiler.tiers.rebuild` — which compiles the
    carried C source into a ``.so`` when the toolchain allows), then
    write spec + sidecar into the store.  Submissions are deduplicated at digest level —
    against entries already stored, already queued, and currently
    being compiled — so a thousand workers pushing the same kernel
    cost one compile.
    """

    def __init__(self, store):
        self._store = store
        self._queue = queue.Queue()
        self._lock = threading.Lock()
        self._inflight = set()  # digests queued or compiling
        self._counters = {"queued": 0, "deduped": 0, "compiled": 0,
                          "errors": 0}
        self._thread = threading.Thread(target=self._run,
                                        name="fl-compile-queue",
                                        daemon=True)
        self._thread.start()

    def submit(self, entry):
        """Enqueue one ``{"key", "spec"}`` entry; returns ``(digest,
        queued)`` where ``queued`` is False when dedup dropped it."""
        digest = entry_digest(entry["key"])
        with self._lock:
            if digest in self._inflight:
                self._counters["deduped"] += 1
                return digest, False
            spec_path = self._store.entry_path_for_digest(digest)
            if os.path.exists(spec_path):
                self._counters["deduped"] += 1
                return digest, False
            self._inflight.add(digest)
            self._counters["queued"] += 1
        self._queue.put((digest, entry))
        return digest, True

    def _run(self):
        while True:
            digest, entry = self._queue.get()
            try:
                # Rebuild before storing: a spec that does not rebuild
                # must never be served to the fleet, and rebuilding is
                # also what produces the .so sidecar server-side.
                artifact = rebuild(entry["spec"])
                if artifact is None:
                    raise ValueError("spec does not rebuild")
                put(KernelKey.of_spec(entry["spec"], meta=entry["key"]),
                    artifact, spec=entry["spec"], store=self._store)
                with self._lock:
                    self._counters["compiled"] += 1
            except Exception as exc:
                with self._lock:
                    self._counters["errors"] += 1
                _log.warning("compile queue: pushed entry %s rejected:"
                             " %s: %s", digest[:12],
                             type(exc).__name__, exc)
            finally:
                with self._lock:
                    self._inflight.discard(digest)
                self._queue.task_done()

    def depth(self):
        with self._lock:
            return len(self._inflight)

    def join(self):
        """Block until every submitted entry is processed (tests)."""
        self._queue.join()

    def counters(self):
        with self._lock:
            return dict(self._counters)


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

    def _send_json(self, status, payload):
        body = json.dumps(payload, sort_keys=True).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

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
        if path.startswith("/packs/"):
            self._get_pack(service, path[len("/packs/"):])
            return
        self._send_json(404, {"error": "unknown route %s" % path})

    def _get_kernel(self, service, digest):
        if not _is_digest(digest):
            self._send_json(400, {"error": "malformed digest"})
            return
        entry, so_path = service.store.read_entry(digest)
        if entry is None:
            service.bump("misses")
            self._send_json(404, {"error": "unknown kernel",
                                  "digest": digest})
            return
        payload = dict(entry, so=None)  # the store-verified record
        if so_path is not None:
            try:
                with open(so_path, "rb") as handle:
                    payload["so"] = base64.b64encode(
                        handle.read()).decode("ascii")
            except OSError:
                pass  # sidecar raced eviction: the spec alone rebuilds
        service.bump("hits")
        self._send_json(200, payload)

    def _get_pack(self, service, name):
        if (service.packs_dir is None
                or os.path.basename(name) != name
                or not name.endswith(".flpack")):
            self._send_json(404, {"error": "unknown pack %r" % name})
            return
        path = os.path.join(service.packs_dir, name)
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError:
            self._send_json(404, {"error": "unknown pack %r" % name})
            return
        service.bump("pack_downloads")
        self.send_response(200)
        self.send_header("Content-Type", "application/zip")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def do_POST(self):
        service = self.server.service
        if self.path.split("?", 1)[0] != "/compile":
            self._send_json(404, {"error": "unknown route"})
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
            if not 0 < length <= MAX_BODY_BYTES:
                raise ValueError("bad content length %d" % length)
            entry = json.loads(self.rfile.read(length))
            digest = entry_digest(entry["key"])
            if not isinstance(entry["spec"], dict):
                raise ValueError("spec must be an object")
        except (ValueError, KeyError, TypeError) as exc:
            # The body may be unread: this connection cannot carry
            # another request.
            self.close_connection = True
            self._send_json(400, {"error": "malformed entry: %s" % exc})
            return
        digest, queued = service.queue.submit(
            {"key": entry["key"], "spec": entry["spec"]})
        service.bump("pushes")
        self._send_json(202, {"digest": digest, "queued": queued,
                              "queue_depth": service.queue.depth()})


class KernelService:
    """One kernel service: a store, a compile queue, an HTTP front.

    ``store`` is a :class:`~repro.store.disk.KernelStore` or a
    directory path; ``packs_dir`` (optional) is where ``GET /packs``
    looks for ``.flpack`` files.  ``port=0`` binds an ephemeral port —
    read :attr:`url` after construction.  :meth:`start` serves on a
    daemon thread (tests, embedded use); :meth:`serve_forever` serves
    on the calling thread (``python -m repro.service``).
    """

    def __init__(self, store, host="127.0.0.1", port=0,
                 packs_dir=None):
        self.store = (store if isinstance(store, KernelStore)
                      else KernelStore(store))
        self.packs_dir = packs_dir
        self.queue = _CompileQueue(self.store)
        self._counters = {"hits": 0, "misses": 0, "pushes": 0,
                          "pack_downloads": 0}
        self._counters_lock = threading.Lock()
        #: The sockets of the open client connections.
        self.connections = set()
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
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
        local lookups), plus queue counters and the backing store's
        own ``stats()`` under ``"store"``."""
        with self._counters_lock:
            out = dict(self._counters)
        lookups = out["hits"] + out["misses"]
        out["hit_rate"] = out["hits"] / lookups if lookups else 0.0
        out["queue_depth"] = self.queue.depth()
        out.update({"queue_" + k: v
                    for k, v in self.queue.counters().items()})
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
