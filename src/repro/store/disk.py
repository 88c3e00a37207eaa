"""The persistent on-disk kernel store: compile anywhere, once ever.

The in-memory :class:`~repro.compiler.kernel.KernelCache` amortizes
compilation *within* a process and the batch engine's spec shipping
amortizes it *across workers of one pool*; this module closes the last
gap — across processes and across time.  A :class:`KernelStore` is a
directory of content-addressed entries, each holding one serialized
:meth:`~repro.compiler.kernel.CompiledKernel.to_spec` payload under
the digest of its :class:`~repro.compiler.key.KernelKey` — the six
compile axes plus every version axis that decides whether a cached
kernel is still the kernel the current code would compile.  Identity
lives in :mod:`repro.compiler.key`; this module is only the directory.

Durability discipline (fleets of short-lived processes race on one
store directory):

* **atomic writes** — entries are written to a ``.tmp.<pid>`` sibling
  and ``os.replace``d into place, so a reader never observes a half
  written entry;
* **advisory locking** — mutations (writes, eviction, the persisted
  stats counters) run under an ``fcntl`` lock on ``.lock``; lookups
  read lock-free and rely on the atomic rename;
* **corruption tolerance** — an unreadable or mismatched entry is a
  *miss*: it is moved into ``quarantine/`` (never deleted — it is
  evidence) and the caller recompiles;
* **LRU eviction** — ``max_bytes`` bounds the entry payload; hits
  touch the entry mtime and eviction removes oldest-mtime entries
  first;
* **persisted stats** — ``hits``/``misses``/``writes``/``evictions``/
  ``quarantined`` accumulate in ``stats.json`` across processes, so a
  CI job can assert its warm-start hit rate after the workload exits.
  A process buffers its counts and folds them in batches
  (:func:`flush_counters`): a lookup pays for no bookkeeping write.

Beside an entry ``k_<digest>.json`` live its *sidecars*
(:data:`SIDECARS`): the C kernel's shared object (``.so``) and the
python kernel's module code object (``.code``).  Both are
optimizations the spec alone can redo — a sidecar is evicted,
quarantined, counted and cleared with its entry, and a missing or
defective one costs a compile, never a miss.  The ``.code`` sidecar
follows CPython's ``.pyc`` contract: :data:`importlib.util.
MAGIC_NUMBER`, the sha256 of the spec's ``source``, then the
``marshal``\\ led code object; a header that does not match the
running interpreter and the entry's source reads as absent, and the
load that compiled the source instead rewrites it.

The kernel service serves an entry as the bytes :meth:`KernelStore.
read_parts` returns — the record file as written, then the sidecars —
and its client checks them with the readers the disk tier uses
(:func:`parse_entry`, :func:`decode_code`), so a code object reaches a
kernel from this directory or from a service's, through one check.  A
push is the same bytes the other way: the pusher encodes them as its
own store writes them (:func:`encode_record`, :func:`sidecar_bytes`)
and the service files them verbatim (:meth:`KernelStore.file_parts`)
after checks that run none of them.
That is no new trust: a remote hit runs code the service sent either
way (the fetched source is ``exec``\\ ed, a fetched ``.so`` is
``dlopen``\\ ed), so pointing a client at a service trusts it with
code, as a store directory is trusted.
"""

import atexit
import collections
import hashlib
import importlib.util
import json
import logging
import marshal
import os
import shutil
import threading
import time
import types
from contextlib import contextmanager

from repro.compiler.key import (
    STORE_VERSION,
    KernelKey,
    entry_digest,
    is_current,
)
from repro.compiler.tiers import compile_source, portable_spec, rebuild

_log = logging.getLogger("repro.store")

#: Persisted statistic counters (``stats.json``).  ``stats_resets``
#: counts the times a corrupt stats file (a process killed mid-write)
#: was thrown away and restarted from zero.
COUNTER_NAMES = ("hits", "misses", "writes", "evictions",
                 "quarantined", "stats_resets")

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

#: This process's counter deltas not yet in ``stats.json``, per store
#: root: ``root -> [store, deltas, events, first event time]``.  A
#: root's deltas are folded in by ``stats()``, by ``_bump`` once
#: :data:`FLUSH_EVENTS` events or :data:`FLUSH_SECONDS` seconds have
#: built up, at interpreter exit, and when a pool worker shuts down
#: (multiprocessing children skip ``atexit``).
_pending = {}
_pending_lock = threading.Lock()
FLUSH_EVENTS = 64
FLUSH_SECONDS = 1.0

#: Filename prefix of one store entry.
_ENTRY_PREFIX = "k_"

#: Entries live under two-hex-character shard directories
#: (``<root>/ab/k_ab....json``) so a fleet-scale store never piles
#: tens of thousands of files into one directory (directory-listing
#: and rename costs grow with entry count on most filesystems, and
#: the kernel service lists by digest prefix).  Two hex characters can
#: never collide with the reserved ``quarantine`` directory name.
_SHARD_CHARS = 2

#: The sidecar suffixes an entry may carry (module docstring).
SIDECARS = (".so", ".code")


def _sidecar_path(path, suffix):
    """The ``suffix`` sidecar of one ``.json`` entry path."""
    return path[:-len(".json")] + suffix


def _code_header(source):
    """What a ``.code`` sidecar must start with to be read: the
    interpreter's bytecode magic and the sha256 of ``source``."""
    return (importlib.util.MAGIC_NUMBER
            + hashlib.sha256(source.encode("utf-8")).digest())


def _dump_code(source, code):
    """A ``.code`` sidecar's bytes: the header, then ``code``."""
    return _code_header(source) + marshal.dumps(code)


def sidecar_bytes(spec, so_path=None, code=None):
    """The sidecars of one entry as ``{suffix: bytes}``: the file at
    ``so_path`` (left out when it is gone: the C source recompiles)
    and ``code``, the module code object of ``spec``'s source — what
    a store writes beside the record and a push sends with it."""
    sidecars = {}
    so = None if so_path is None else _read_bytes(so_path)
    if so is not None:
        sidecars[".so"] = so
    if code is not None:
        sidecars[".code"] = _dump_code(spec["source"], code)
    return sidecars


def decode_code(data, source):
    """The code object the ``.code`` sidecar bytes ``data`` hold for
    the python ``source``, or None — no bytes or no source, truncated,
    another interpreter's, another source's, or garbage.  The one
    sidecar reader: the disk tier's and a service fetch's."""
    if not data or not isinstance(source, str):
        return None
    header = _code_header(source)
    if not data.startswith(header):
        return None
    try:
        code = marshal.loads(data[len(header):])
    except (ValueError, EOFError, TypeError):
        return None
    return code if isinstance(code, types.CodeType) else None


def _read_bytes(path):
    """The bytes of the file at ``path``, or None when it cannot be
    read (absent, or removed meanwhile)."""
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError:
        return None


def _load_code(path, source):
    """The code object ``path`` holds for ``source``, or None (absent,
    or :func:`decode_code` rejects it)."""
    return decode_code(_read_bytes(path), source)


def _check_record(raw, digest=None, meta=None):
    """The entry record the bytes ``raw`` hold, verified; raises
    ValueError (or TypeError) for malformed JSON, a missing ``spec``
    payload, another ``store_version``, or a recorded key that is not
    ``meta`` (when given) or does not hash to ``digest``."""
    record = json.loads(raw)
    if not isinstance(record, dict) or "spec" not in record:
        raise ValueError("not a spec record")
    if record.get("store_version") != STORE_VERSION:
        raise ValueError("store version mismatch")
    if (record.get("key") != meta if meta is not None
            else entry_digest(record.get("key")) != digest):
        raise ValueError("recorded key is not the key looked up")
    return record


def encode_record(meta, spec):
    """The bytes of the record filing ``spec`` under ``meta`` — the
    one record encoder: the store writes them, a push sends them."""
    return json.dumps(
        {"store_version": STORE_VERSION, "key": meta, "spec": spec},
        sort_keys=True, separators=(",", ":")).encode("utf-8")


def parse_entry(raw, meta):
    """The spec of the entry record bytes ``raw``, whose recorded key
    must equal ``meta``; raises ValueError (or TypeError) like a
    quarantined read — the check a service fetch applies to a
    record's bytes."""
    return _check_record(raw, meta=meta)["spec"]


#: One stored entry as :meth:`KernelStore.read_parts` serves it:
#: ``record`` is the entry file's bytes as written, ``entry`` the
#: verified record they hold, ``so`` and ``code`` the sidecars' bytes
#: (None when there is none).
EntryParts = collections.namedtuple("EntryParts",
                                    "record entry so code")

#: The header naming a framed entry's three parts, in a kernel
#: service's ``GET /kernels`` reply and a push alike:
#: ``<record>,<so>,<code>`` byte lengths, an absent sidecar 0.
PARTS_HEADER = "X-Entry-Parts"


def frame_parts(record, so=None, code=None):
    """``(body, PARTS_HEADER value)`` of one entry's parts — how an
    entry crosses the wire in either direction."""
    chunks = (record, so or b"", code or b"")
    return b"".join(chunks), ",".join(str(len(chunk)) for chunk in chunks)


def split_parts(body, parts):
    """``(record, so, code)`` of one :func:`frame_parts` ``body``
    (an empty sidecar None); raises ValueError when the header value
    ``parts`` does not frame it."""
    lengths = [int(length) for length in (parts or "").split(",")]
    if (len(lengths) != 3 or min(lengths) < 0
            or sum(lengths) != len(body)):
        raise ValueError("parts %r do not frame a %d-byte body"
                         % (parts, len(body)))
    record, so_end = lengths[0], lengths[0] + lengths[1]
    return body[:record], body[record:so_end] or None, body[so_end:] or None


def _replace_file(path, data):
    """Write ``data`` (text or bytes) to ``path`` atomically (tmp
    sibling + rename): a reader sees the old file or the new one, never
    half of either."""
    tmp = path + ".tmp.%d" % os.getpid()
    with open(tmp, "wb" if isinstance(data, bytes) else "w") as handle:
        handle.write(data)
    os.replace(tmp, path)


def _record_files(directory):
    """The ``k_*.json`` entry paths in ``directory``, in name order
    ([] when it cannot be listed: absent, or evicted empty)."""
    try:
        names = sorted(os.listdir(directory))
    except OSError:
        return []
    return [os.path.join(directory, name) for name in names
            if name.startswith(_ENTRY_PREFIX) and name.endswith(".json")]


def _discard(path):
    """Remove ``path`` if it is there; True when it was."""
    try:
        os.remove(path)
        return True
    except OSError:
        return False


class KernelStore:
    """A concurrency-safe, size-bounded directory of kernel specs.

    ``root`` is created on first use.  ``max_bytes`` bounds the summed
    entry size (None = unbounded); the least recently *used* entries
    are evicted first.  All statistics counters persist in the store
    directory and aggregate across every process that used it.
    """

    def __init__(self, root, max_bytes=None):
        self.root = os.path.abspath(root)
        self.max_bytes = None if max_bytes is None else int(max_bytes)
        try:
            os.makedirs(self.root, exist_ok=True)
        except OSError:
            # Uncreatable root (read-only parent): every lookup will
            # miss and every write will degrade to a no-op, which is
            # the right failure mode for a cache tier configured via
            # environment variable.
            pass
        self._lock_path = os.path.join(self.root, ".lock")
        self._stats_path = os.path.join(self.root, "stats.json")
        self.quarantine_dir = os.path.join(self.root, "quarantine")
        # In-memory (per-process) degradation ledger: IO failures the
        # store absorbed instead of raising.  Logged once, counted
        # always, never an exception — a broken disk tier must leave
        # the in-memory tier fully functional.
        self._io_errors = 0
        self._io_warned = False

    def __repr__(self):
        return "KernelStore(%r, max_bytes=%r)" % (self.root,
                                                  self.max_bytes)

    # -- locking and counters ------------------------------------------
    @contextmanager
    def _lock(self):
        """Advisory exclusive lock over every store mutation.

        Best effort: on a read-only store directory (a prewarmed store
        mounted into a fleet container) the lock file cannot be opened
        for append — readers proceed unlocked rather than crashing,
        since the atomic-rename write protocol keeps entry reads safe
        without it.
        """
        if fcntl is None:  # pragma: no cover - non-POSIX fallback
            yield
            return
        try:
            handle = open(self._lock_path, "a+")
        except OSError:
            yield
            return
        with handle:
            fcntl.flock(handle, fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(handle, fcntl.LOCK_UN)

    def _note_io_error(self, where, exc):
        """Record one absorbed IO failure (warn on the first)."""
        self._io_errors += 1
        if not self._io_warned:
            self._io_warned = True
            _log.warning(
                "kernel store %s degraded (%s: %s); continuing "
                "memory-only — further IO errors counted silently",
                self.root, where, exc)

    def _read_counters(self):
        """The persisted counters, tolerant of a corrupt stats file.

        A ``stats.json`` left half-written by a killed process (or
        holding valid JSON of the wrong shape) must never crash store
        use: it reads as empty stats with ``stats_resets`` bumped, and
        the next flush persists the reset.
        """
        try:
            # Bytes, not text: undecodable garbage must land in the
            # tolerant parse below, not raise out of the read.
            with open(self._stats_path, "rb") as handle:
                raw = handle.read()
        except OSError:
            return dict.fromkeys(COUNTER_NAMES, 0)  # no stats yet
        try:
            counters = json.loads(raw)
            if not isinstance(counters, dict):
                raise ValueError("stats.json is not an object")
            return {name: int(counters.get(name, 0))
                    for name in COUNTER_NAMES}
        except (ValueError, TypeError):
            reset = dict.fromkeys(COUNTER_NAMES, 0)
            reset["stats_resets"] = 1
            return reset

    def _bump(self, **deltas):
        """Add ``deltas`` to the counters: buffered in this process's
        pending table, written by the next flush of this root."""
        now = time.monotonic()
        with _pending_lock:
            pending = _pending.get(self.root)
            if pending is None:
                pending = _pending[self.root] = [self, {}, 0, now]
            counts = pending[1]
            for name, delta in deltas.items():
                counts[name] = counts.get(name, 0) + delta
            pending[2] += 1
            due = (pending[2] >= FLUSH_EVENTS
                   or now - pending[3] >= FLUSH_SECONDS)
        if due:
            self._flush()

    def _flush(self):
        """Fold this process's pending deltas for this root into
        ``stats.json`` in one read-modify-write under the lock.

        Dropped (and counted in ``io_errors``) when the store is
        unwritable: losing counter updates on a read-only mount must
        never break a compile.  A root removed meanwhile (a temporary
        store) takes its counts with it.
        """
        with _pending_lock:
            pending = _pending.pop(self.root, None)
        if pending is None or not os.path.isdir(self.root):
            return
        try:
            with self._lock():
                counters = self._read_counters()
                for name, delta in pending[1].items():
                    counters[name] = counters.get(name, 0) + delta
                _replace_file(self._stats_path, json.dumps(counters))
        except OSError as exc:
            self._note_io_error("stats update", exc)

    # -- keys and paths ------------------------------------------------
    def key_meta(self, structural_key, instrument, name,
                 constant_loop_rewrite, opt_level, backend="python"):
        """:attr:`KernelKey.meta <repro.compiler.key.KernelKey.meta>`
        for one compile configuration (instance-method convenience)."""
        return KernelKey(structural_key, instrument, name,
                         constant_loop_rewrite, opt_level,
                         backend).meta

    def _entry_path(self, meta):
        return self.entry_path_for_digest(entry_digest(meta))

    def entry_path_for_digest(self, digest):
        """The sharded spec path addressing ``digest`` — whether or
        not an entry exists there yet.  The single place the
        shard-by-digest-prefix layout is decided."""
        return os.path.join(self.root, digest[:_SHARD_CHARS],
                            _ENTRY_PREFIX + digest + ".json")

    def _so_path(self, digest):
        """The path of ``digest``'s stored ``.so``, or None (python
        entry, or sidecar lost: the C source recompiles)."""
        so_path = _sidecar_path(self.entry_path_for_digest(digest), ".so")
        return so_path if os.path.exists(so_path) else None

    def _shard_dirs(self):
        """The shard directories that exist right now."""
        dirs = []
        try:
            names = os.listdir(self.root)
        except OSError:
            return []
        for name in names:
            if len(name) != _SHARD_CHARS:
                continue
            if any(c not in "0123456789abcdef" for c in name):
                continue
            path = os.path.join(self.root, name)
            if os.path.isdir(path):
                dirs.append(path)
        return dirs

    def _entry_files(self):
        """(path, size, mtime) of every entry, oldest mtime first.

        ``path`` is always the ``.json`` spec; ``size`` includes its
        sidecars, so eviction accounts an entry's full footprint.
        """
        entries = []
        for directory in self._shard_dirs():
            for path in _record_files(directory):
                try:
                    info = os.stat(path)
                except OSError:
                    continue  # concurrently evicted
                size = info.st_size
                for suffix in SIDECARS:
                    try:
                        size += os.stat(_sidecar_path(path, suffix)).st_size
                    except OSError:
                        pass  # this entry has no such sidecar
                entries.append((path, size, info.st_mtime))
        entries.sort(key=lambda item: (item[2], item[0]))
        return entries

    @staticmethod
    def _discard_entry(path):
        """Remove one entry and its sidecars; True when the entry was
        there (another process may have removed it first)."""
        if not _discard(path):
            return False
        for suffix in SIDECARS:
            _discard(_sidecar_path(path, suffix))
        return True

    # -- reads ---------------------------------------------------------
    def _read_record(self, digest, count=True, meta=None):
        """The verified entry record addressed by ``digest``, as
        ``(bytes as written, record)``, or None — the one read path of
        every persisted entry.

        A missing file is a miss.  Any defect — unreadable file,
        malformed JSON, another ``store_version``, a recorded key that
        is not the address's (tamper and collision defense), a missing
        payload — quarantines the record and reads as a miss, so one
        corrupt file can never poison compiles.  The recorded key must
        equal ``meta`` when the caller passes the key ``digest`` was
        computed from, and hash back to ``digest`` otherwise: the two
        checks accept the same records.  ``count=False`` leaves the
        hit/miss counters alone (a quarantine is always counted).
        """
        path = self.entry_path_for_digest(digest)
        missed = {"misses": 1} if count else {}
        try:
            from repro import chaos as _chaos

            if _chaos.active():
                # Chaos fault points: a flaky read raises OSError, a
                # corrupt record garbles the bytes so JSON parsing
                # rejects them (both the quarantine path below).
                _chaos.inject("store_read_error")
            with open(path, "rb") as handle:
                raw = handle.read()
            if _chaos.active():
                raw = _chaos.mangle("store_corrupt_entry", raw)
            record = _check_record(raw, digest, meta)
        except FileNotFoundError:
            # Never written, or evicted before the open: a plain miss.
            if missed:
                self._bump(**missed)
            return None
        except (OSError, ValueError, TypeError):
            self._quarantine(path)
            self._bump(quarantined=1, **missed)
            return None
        try:
            # LRU touch: recently used entries survive eviction.
            os.utime(path)
        except OSError:
            pass
        if count:
            self._bump(hits=1)
        return raw, record

    def read_parts(self, digest):
        """The stored entry addressed by ``digest`` as verified bytes
        (:data:`EntryParts`), or None on a miss or any defect — the one
        read primitive the kernel service serves and ``verify`` checks.

        The record is verified like :meth:`load_spec` verifies it (with
        no key in hand, by hashing the recorded one).  A python entry
        whose ``.code`` sidecar is absent or does not decode for its
        source gets one: the source is compiled (never run) and the
        sidecar written best effort, the rule :meth:`load_artifact`
        follows.  Deliberately does *not* touch the persisted hit/miss
        counters: the service keeps its own, and a remote fleet's
        traffic must not masquerade as local lookups.
        """
        found = self._read_record(digest, count=False)
        if found is None:
            return None
        record, entry = found
        path = self.entry_path_for_digest(digest)
        code = _read_bytes(_sidecar_path(path, ".code"))
        spec = entry["spec"]
        # A spec with C source runs its .so, not a code object.
        source = (spec.get("source") if isinstance(spec, dict)
                  and not spec.get("c_source") else None)
        if isinstance(source, str) and decode_code(code, source) is None:
            try:
                compiled = compile_source(source)
            except (SyntaxError, ValueError):
                code = None  # the spec does not rebuild anywhere
            else:
                code = self._save_code(path, source, compiled)
        return EntryParts(record, entry,
                          _read_bytes(_sidecar_path(path, ".so")), code)

    def load_spec(self, meta):
        """The stored spec for ``meta``, or None (counts a miss; see
        :meth:`_read_record` for what reads as one)."""
        found = self._read_record(entry_digest(meta), meta=meta)
        return None if found is None else found[1]["spec"]

    def load_artifact(self, meta, structural_key=None):
        """The rebuilt :class:`CompiledKernel` for ``meta``, or None.

        A spec that no longer rebuilds (its carried source fails to
        ``exec``) is quarantined exactly like a corrupt file — and the
        hit already counted for it is taken back.  A python kernel
        ``exec``\\ s its ``.code`` sidecar; when that is absent or
        defective the source is compiled and the sidecar rewritten.
        ``structural_key`` is the caller's frozen key ``meta`` was
        derived from: the artifact takes it instead of freezing the
        stored one again.
        """
        digest = entry_digest(meta)
        found = self._read_record(digest, meta=meta)
        if found is None:
            return None
        path = self.entry_path_for_digest(digest)
        spec = found[1]["spec"]
        source = spec.get("source") if isinstance(spec, dict) else None
        code = _load_code(_sidecar_path(path, ".code"), source)
        artifact = rebuild(spec, so=self._so_path(digest), code=code,
                           structural_key=structural_key)
        if artifact is None:
            self._quarantine(path)
            self._bump(hits=-1, misses=1, quarantined=1)
        elif artifact.code is not None and artifact.code is not code:
            self._save_code(path, source, artifact.code)
        return artifact

    def _save_code(self, path, source, code):
        """Best effort: write ``code``, compiled from ``source``, as
        the ``.code`` sidecar of the entry at ``path`` — unless the
        entry is gone (evicted or cleared meanwhile); returns the
        sidecar's bytes."""
        data = _dump_code(source, code)
        try:
            with self._lock():
                if os.path.exists(path):
                    _replace_file(_sidecar_path(path, ".code"), data)
        except OSError as exc:
            self._note_io_error("code sidecar write", exc)
        return data

    def _quarantine(self, path):
        """Move a defective entry and its sidecars aside (never
        delete: they are the repro for whatever corrupted them)."""
        stamp = "%d.%d" % (os.getpid(), int(time.time() * 1e6))
        for victim in (path,) + tuple(_sidecar_path(path, suffix)
                                      for suffix in SIDECARS):
            try:
                os.makedirs(self.quarantine_dir, exist_ok=True)
                os.replace(victim, os.path.join(
                    self.quarantine_dir,
                    "%s.%s" % (os.path.basename(victim), stamp)))
            except OSError:
                # Another process already moved or evicted it — or,
                # for the sidecar, there never was one.
                pass

    # -- writes --------------------------------------------------------
    def save_artifact(self, artifact):
        """Persist one compiled artifact; returns the entry path.

        Kernels that cannot leave the process (:class:`SpecError`:
        identity-pinned signatures, out-of-protocol buffers) are
        silently skipped — the store is a cache, not a registry.
        """
        spec = portable_spec(artifact)
        if spec is None:
            return None
        return self.save_spec(KernelKey.of(artifact).meta, spec,
                              so_path=artifact.so_path,
                              code=artifact.code)

    def save_spec(self, meta, spec, so_path=None, code=None):
        """Persist one serialized spec under ``meta``; returns the
        entry path.  Atomic (tmp + rename) and evicts LRU entries past
        ``max_bytes`` before releasing the lock.

        ``so_path`` (a compiled shared object) is copied next to the
        entry as its ``.so`` sidecar, and ``code`` (the module code
        object of the spec's python source) is kept as its ``.code``
        sidecar — optimizations, not part of the durable contract: the
        spec alone rebuilds the kernel, so a lost or stale sidecar
        costs one compile, never correctness.
        """
        return self._write_record(entry_digest(meta),
                                  encode_record(meta, spec),
                                  sidecar_bytes(spec, so_path, code))

    def file_parts(self, digest, record, so=None, code=None):
        """File one pushed entry under ``digest`` as it came: the
        record bytes verbatim, with the sidecar parts that check out;
        returns whether it was filed — False when ``digest`` is already
        stored (or the store is unwritable).  Raises ValueError (or
        TypeError, SyntaxError) when ``record`` is not an entry whose
        key hashes to ``digest`` or its spec's source does not compile.

        Nothing it is given runs: the source is compiled, never
        ``exec``\\ ed; the ``.code`` part is kept only when
        :func:`decode_code` accepts it for that source, and the
        ``.so`` only when the spec carries the C source it was built
        from.  The write mirror of :meth:`read_parts`.
        """
        spec = _check_record(record, digest)["spec"]
        path = self.entry_path_for_digest(digest)
        if os.path.exists(path):
            return False
        if not isinstance(spec, dict):
            raise ValueError("spec must be an object")
        compile_source(spec.get("source"))
        sidecars = {}
        if so and spec.get("c_source"):
            sidecars[".so"] = so
        if decode_code(code, spec["source"]) is not None:
            sidecars[".code"] = code
        return bool(self._write_record(digest, record, sidecars,
                                       new_only=True))

    def _write_record(self, digest, payload, sidecars, new_only=False):
        """Persist the record bytes ``payload`` as the entry addressed
        by ``digest``, under the lock, and evict past ``max_bytes`` —
        the one write path of every persisted entry; returns its path,
        None when the store is unwritable, and False when ``new_only``
        finds an entry there already.  The ``sidecars`` (suffix ->
        bytes) are written beside it, and a sidecar it does not name is
        removed: a rewrite must not leave a stale one behind."""
        path = self.entry_path_for_digest(digest)
        try:
            with self._lock():
                if new_only and os.path.exists(path):
                    return False
                os.makedirs(os.path.dirname(path), exist_ok=True)
                for suffix in SIDECARS:
                    target = _sidecar_path(path, suffix)
                    if suffix in sidecars:
                        _replace_file(target, sidecars[suffix])
                    else:
                        _discard(target)
                _replace_file(path, payload)
                evicted = self._evict_locked(keep=path)
        except OSError as exc:
            # An unwritable store (read-only fleet mount, disk full)
            # degrades to a read-only tier: the compile that wanted to
            # write behind still succeeded.
            self._note_io_error("spec write", exc)
            return None
        self._bump(writes=1, evictions=evicted)
        return path

    def _evict_locked(self, keep=None):
        """Drop oldest entries until under ``max_bytes``; returns the
        eviction count.  ``keep`` (the just-written entry) is never
        evicted — a store must be able to hold at least one kernel."""
        if self.max_bytes is None:
            return 0
        entries = self._entry_files()
        total = sum(size for _, size, _ in entries)
        evicted = 0
        for path, size, _ in entries:
            if total <= self.max_bytes:
                break
            if path == keep or not self._discard_entry(path):
                continue
            total -= size
            evicted += 1
        return evicted

    # -- inspection ----------------------------------------------------
    def entries(self):
        """Parsed ``(path, key-meta)`` pairs of every readable entry."""
        return self._list_entries(self._entry_files())

    def digests(self):
        """The digest of every entry file, readable or not — each one
        :meth:`read_parts` can be asked for."""
        return [os.path.basename(path)[len(_ENTRY_PREFIX):-len(".json")]
                for path, _, _ in self._entry_files()]

    @staticmethod
    def _list_entries(files):
        """``(path, key-meta)`` of the readable entries among
        ``files`` (``_entry_files`` rows; unreadable ones are skipped,
        not quarantined: listing is inspection, not lookup)."""
        listed = []
        for path, _, _ in files:
            try:
                with open(path) as handle:
                    record = json.load(handle)
                if "spec" in record:
                    listed.append((path, record["key"]))
            except (OSError, ValueError, KeyError, TypeError):
                continue
        return listed

    def _stale_files(self, files):
        """The rows of ``files`` whose recorded key another code
        version wrote (:func:`~repro.compiler.key.is_current`): no
        lookup by this code can ever reach them."""
        stale = {path for path, meta in self._list_entries(files)
                 if not (isinstance(meta, dict) and is_current(meta))}
        return [row for row in files if row[0] in stale]

    def gc_stale(self):
        """Delete every stale entry with its sidecars (under the store
        lock); returns ``{"removed", "bytes"}``."""
        removed = freed = 0
        with self._lock():
            for path, size, _ in self._stale_files(self._entry_files()):
                if self._discard_entry(path):
                    removed += 1
                    freed += size
        return {"removed": removed, "bytes": freed}

    def clear(self):
        """Drop every entry, the quarantine, and the counters (this
        process's pending deltas included)."""
        with _pending_lock:
            _pending.pop(self.root, None)
        with self._lock():
            for path, _, _ in self._entry_files():
                self._discard_entry(path)
            shutil.rmtree(self.quarantine_dir, ignore_errors=True)
            _discard(self._stats_path)

    def stats(self):
        """Persisted counters plus live occupancy.

        ``hits``/``misses``/... aggregate across every process that
        ever used this store directory, as of each one's last flush
        (this process's pending deltas are flushed first); a process
        killed before a flush loses its unflushed counts, never an
        entry.  ``hit_rate`` is their ratio
        (0.0 before any lookup).  ``entries``/``bytes`` are measured
        from the directory right now, sidecars included;
        ``stale_entries``/``stale_bytes`` are the part of them that
        other code versions wrote (:meth:`gc_stale` removes it).
        """
        self._flush()
        counters = self._read_counters()
        files = self._entry_files()
        stale = self._stale_files(files)
        lookups = counters["hits"] + counters["misses"]
        quarantined = 0
        try:
            quarantined = len(os.listdir(self.quarantine_dir))
        except OSError:
            pass
        counters.update({
            "entries": len(files),
            "bytes": sum(size for _, size, _ in files),
            "stale_entries": len(stale),
            "stale_bytes": sum(size for _, size, _ in stale),
            "max_bytes": self.max_bytes,
            "hit_rate": (counters["hits"] / lookups) if lookups else 0.0,
            "quarantine_files": quarantined,
            # Per-process: IO failures this store object absorbed
            # (degraded writes, dropped counter updates).
            "io_errors": self._io_errors,
            "root": self.root,
        })
        return counters


def flush_counters():
    """Fold every store's pending counter deltas into its
    ``stats.json`` (see :data:`_pending`)."""
    with _pending_lock:
        stores = [pending[0] for pending in _pending.values()]
    for store in stores:
        store._flush()


def _forget_pending():
    """A forked child starts with no pending deltas: its parent's are
    the parent's to flush."""
    global _pending_lock
    _pending.clear()
    _pending_lock = threading.Lock()


atexit.register(flush_counters)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pending)
