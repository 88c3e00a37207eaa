"""The kernel service's client half: the remote read-through tier.

``compile_kernel`` calls :meth:`ServiceClient.fetch` after a local
store miss and :meth:`ServiceClient.push` after a local compile
(write-behind) — both built so the remote tier can only ever *save*
work, never break a compile:

* Requests carry a timeout (``FL_SERVICE_TIMEOUT_S``) and a retry
  budget (``FL_SERVICE_RETRIES``) with exponential backoff; an
  exhausted budget raises
  :class:`~repro.util.errors.ServiceUnreachableError` — transient by
  taxonomy, but the client *catches it itself* and degrades.
* Degrading is warn-once with a cooldown: the first unreachable
  event logs one warning, and for :data:`DOWN_COOLDOWN_S` seconds
  the client skips the wire entirely (each skip counted as
  ``remote_degraded``), so a dead service costs one timeout per
  window — not one per compile.
* A corrupt response — unparseable JSON, a key that does not match
  the requested meta (version-axes check), a bad ``.so`` encoding —
  counts ``remote_errors`` and reads as a miss, mirroring the disk
  store's quarantine-as-miss discipline.
* Requests ride a keep-alive connection: one
  :class:`http.client.HTTPConnection` per client, process and thread,
  so a warm fetch pays a round trip, not a TCP handshake.  A reused
  connection the server has closed (idle timeout, restart) is
  re-opened once, at once — that reconnect is not a retry and sleeps
  no backoff.  A forked child never writes to its parent's socket: it
  opens its own.

Counters accumulate module-wide in the ``faults``-style scheme
(:func:`service_stats`): ``remote_hits`` / ``remote_misses`` /
``remote_pushes`` / ``remote_errors`` / ``remote_degraded``.  The
chaos engine's ``service_unreachable`` fault point injects at the
request boundary, so the whole degrade path is testable without a
real network failure.
"""

import base64
import http.client
import json
import logging
import os
import threading
import time

from repro.compiler.key import entry_digest
from repro.util.errors import ServiceUnreachableError

_log = logging.getLogger("repro.service")

#: Seconds the client stays off the wire after an unreachable event.
#: A module attribute so tests (and unusual deployments) can shrink
#: or stretch the window.
DOWN_COOLDOWN_S = 5.0

#: Base of the exponential retry backoff, seconds.
RETRY_BACKOFF_S = 0.05

_stats_lock = threading.Lock()
_stats = {"remote_hits": 0, "remote_misses": 0, "remote_pushes": 0,
          "remote_errors": 0, "remote_degraded": 0}


def _bump(name, delta=1):
    with _stats_lock:
        _stats[name] += delta


def service_stats():
    """Module-wide client-side counters (``faults``-style): how the
    remote tier has behaved in this process."""
    with _stats_lock:
        return dict(_stats)


def reset_service_stats():
    """Zero the client-side counters (tests, benchmark passes)."""
    with _stats_lock:
        for name in _stats:
            _stats[name] = 0


class ServiceClient:
    """One client against one kernel-service base URL.

    ``timeout_s`` and ``retries`` default through the config resolver
    (``FL_SERVICE_TIMEOUT_S`` / ``FL_SERVICE_RETRIES``).  All methods
    are thread-safe; the degrade state (cooldown window, warn-once
    flag) is per-client, the keep-alive connection per thread.
    """

    def __init__(self, url, timeout_s=None, retries=None):
        from repro.util import config

        self.url = url.rstrip("/")
        scheme, _, rest = self.url.partition("://")
        self._connection_class = {
            "http": http.client.HTTPConnection,
            "https": http.client.HTTPSConnection}.get(scheme)
        self._host, slash, prefix = rest.partition("/")
        self._prefix = slash + prefix
        self.timeout_s = config.resolve("service_timeout_s",
                                        override=timeout_s)
        self.retries = config.resolve("service_retries",
                                      override=retries)
        self._lock = threading.Lock()
        self._down_until = 0.0
        self._warned = False
        self._local = threading.local()

    # -- transport -----------------------------------------------------
    def _request(self, path, data=None):
        """``(status, body_bytes)`` for one request, after the retry
        budget.  HTTP-level errors (404, 400, 500) are *responses*,
        returned as-is; transport-level failures retry and finally
        raise :class:`ServiceUnreachableError`."""
        from repro import chaos as _chaos

        last = None
        for attempt in range(self.retries + 1):
            if attempt:
                time.sleep(RETRY_BACKOFF_S * (2 ** (attempt - 1)))
            try:
                if _chaos.active():
                    _chaos.inject("service_unreachable")
                return self._exchange(path, data)
            except (http.client.HTTPException, OSError) as exc:
                last = exc
        raise ServiceUnreachableError(
            "kernel service %s unreachable after %d attempt(s): %s: %s"
            % (self.url, self.retries + 1, type(last).__name__, last))

    def _exchange(self, path, data):
        """One request over this thread's connection.  When a reused
        connection turns out closed by the server, the request is sent
        once more on a new one, immediately."""
        conn = self._connection()
        reused = conn.sock is not None
        try:
            return self._send(conn, path, data)
        except ConnectionError:
            if not reused:
                raise
        return self._send(self._connection(), path, data)

    def _send(self, conn, path, data):
        """``(status, body)`` of one request on ``conn``; on any
        failure the connection is closed and forgotten."""
        try:
            conn.request("GET" if data is None else "POST",
                         self._prefix + path, body=data,
                         headers={"Content-Type": "application/json"}
                         if data is not None else {})
            response = conn.getresponse()
            return response.status, response.read()
        except BaseException:
            self._local.conn = None
            conn.close()
            raise

    def _connection(self):
        """This process's and thread's connection to the service (a
        forked child's inherited one is dropped, never used)."""
        local = self._local
        conn = getattr(local, "conn", None)
        if conn is None or local.pid != os.getpid():
            if self._connection_class is None:
                # Unreachable, not malformed: the tier degrades.
                raise OSError("kernel service URL %r is not http(s)"
                              % self.url)
            conn = local.conn = self._connection_class(
                self._host, timeout=self.timeout_s)
            local.pid = os.getpid()
        return conn

    # -- degrade bookkeeping -------------------------------------------
    def available(self):
        """Whether the client is willing to touch the wire right now
        (False inside the post-failure cooldown window)."""
        with self._lock:
            return time.monotonic() >= self._down_until

    def _mark_down(self, exc):
        with self._lock:
            self._down_until = time.monotonic() + DOWN_COOLDOWN_S
            first = not self._warned
            self._warned = True
        if first:
            _log.warning(
                "%s; degrading to local tiers for %.1fs per failure "
                "(further failures logged at debug level)",
                exc, DOWN_COOLDOWN_S)
        else:
            _log.debug("%s; degrading to local tiers", exc)

    def _degraded(self):
        _bump("remote_degraded")
        return None

    # -- the tier ------------------------------------------------------
    def fetch(self, meta):
        """The remote entry for store-key ``meta``, as ``(spec,
        so_bytes)`` — or None on miss, corrupt response, or a degraded
        service.  Never raises: the remote tier is an optimization.

        The returned entry's recorded key must equal ``meta`` exactly;
        since the key carries every version axis, this is the same
        staleness rejection the disk store applies.
        """
        if not self.available():
            return self._degraded()
        digest = entry_digest(meta)
        try:
            status, body = self._request("/kernels/" + digest)
        except ServiceUnreachableError as exc:
            _bump("remote_errors")
            self._mark_down(exc)
            return self._degraded()
        if status == 404:
            _bump("remote_misses")
            return None
        try:
            if status != 200:
                raise ValueError("unexpected status %d" % status)
            payload = json.loads(body)
            if payload["key"] != meta:
                raise ValueError(
                    "entry key mismatch for %s (stale or corrupt "
                    "service entry)" % digest[:12])
            spec = payload["spec"]
            if not isinstance(spec, dict):
                raise ValueError("spec must be an object")
            so_bytes = (base64.b64decode(payload["so"])
                        if payload.get("so") else None)
        except (ValueError, KeyError, TypeError) as exc:
            _log.warning("kernel service %s returned a corrupt entry "
                         "for %s (%s); treating as a miss",
                         self.url, digest[:12], exc)
            _bump("remote_errors")
            _bump("remote_misses")
            return None
        _bump("remote_hits")
        return spec, so_bytes

    def push(self, meta, spec):
        """Write-behind one locally compiled entry; returns whether
        the service accepted it.  Never raises."""
        if not self.available():
            self._degraded()
            return False
        body = json.dumps({"key": meta, "spec": spec},
                          sort_keys=True).encode()
        try:
            status, _ = self._request("/compile", data=body)
        except ServiceUnreachableError as exc:
            _bump("remote_errors")
            self._mark_down(exc)
            self._degraded()
            return False
        if status != 202:
            _bump("remote_errors")
            return False
        _bump("remote_pushes")
        return True

    # -- auxiliary routes ----------------------------------------------
    def healthz(self):
        """The service's health payload, or None when unreachable."""
        try:
            status, body = self._request("/healthz")
            return json.loads(body) if status == 200 else None
        except (ServiceUnreachableError, ValueError):
            return None

    def server_stats(self):
        """The service's ``/stats`` payload (raises
        :class:`ServiceUnreachableError` when it cannot answer —
        callers of this route want the truth, not a degrade)."""
        status, body = self._request("/stats")
        if status != 200:
            raise ServiceUnreachableError(
                "kernel service %s /stats returned %d"
                % (self.url, status))
        return json.loads(body)

    def fetch_pack(self, name, dest):
        """Download pack ``name`` to path ``dest``; returns ``dest``
        or None (miss or degraded)."""
        if not self.available():
            return self._degraded()
        try:
            status, body = self._request("/packs/" + name)
        except ServiceUnreachableError as exc:
            _bump("remote_errors")
            self._mark_down(exc)
            return self._degraded()
        if status != 200:
            _bump("remote_misses")
            return None
        with open(dest, "wb") as handle:
            handle.write(body)
        _bump("remote_hits")
        return dest


#: Per-process client memo: one client per base URL, so the degrade
#: cooldown and warn-once state survive across compiles.
_client_memo = {}
_client_memo_lock = threading.Lock()


def active_client(url=None):
    """The :class:`ServiceClient` the compile path should use, or
    None when no remote tier is configured.

    ``url`` is the per-call ``remote=`` value: a base URL wins
    outright, ``False`` disables the remote tier for this call, and
    None resolves ``fl.configure(service_url=...)`` then
    ``FL_SERVICE_URL``.  Clients are memoized per URL so cooldown
    state is shared process-wide.
    """
    from repro.util import config

    if url is False:
        return None
    resolved = config.resolve("service_url", override=url)
    if not resolved:
        return None
    resolved = resolved.rstrip("/")
    with _client_memo_lock:
        client = _client_memo.get(resolved)
        if client is None:
            client = ServiceClient(resolved)
            _client_memo[resolved] = client
        return client


def reset_clients():
    """Drop the client memo (tests: forget cooldown/warn state)."""
    with _client_memo_lock:
        _client_memo.clear()
