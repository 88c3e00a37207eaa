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
load that compiled the source instead rewrites it.  Code objects are
only ever read from this directory — never from a pack or a service
response: the store is trusted (it ``dlopen``\\ s its ``.so`` files),
the wire is not.
"""

import hashlib
import importlib.util
import json
import logging
import marshal
import os
import shutil
import time
import types
from contextlib import contextmanager

from repro.compiler.key import (
    STORE_VERSION,
    KernelKey,
    entry_digest,
    is_current,
)
from repro.compiler.tiers import portable_spec, rebuild

_log = logging.getLogger("repro.store")

#: Persisted statistic counters (``stats.json``).  ``stats_resets``
#: counts the times a corrupt stats file (a process killed mid-write)
#: was thrown away and restarted from zero.
COUNTER_NAMES = ("hits", "misses", "writes", "evictions",
                 "quarantined", "stats_resets",
                 "tuning_hits", "tuning_misses", "tuning_writes")

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

#: Filename prefix of one store entry.
_ENTRY_PREFIX = "k_"

#: Entries live under two-hex-character shard directories
#: (``<root>/ab/k_ab....json``) so a fleet-scale store never piles
#: tens of thousands of files into one directory (directory-listing
#: and rename costs grow with entry count on most filesystems, and
#: the kernel service lists by digest prefix).  Two hex characters can
#: never collide with the reserved ``quarantine``/``tunings``
#: directory names.
_SHARD_CHARS = 2

#: Filename prefix of one tuning record (``tunings/``).
_TUNING_PREFIX = "t_"

#: The two record kinds that share one read path and one write path,
#: as ``(payload field, counter prefix)``: every record on disk is
#: ``{"store_version", "key", <payload field>}`` in a file named by
#: the digest of its key.
_ENTRY = ("spec", "")
_TUNING = ("winner", "tuning_")

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


def _load_code(path, source):
    """The code object ``path`` holds for ``source``, or None — absent,
    truncated, another interpreter's, another source's, or garbage."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
        header = _code_header(source)
        if not data.startswith(header):
            return None
        code = marshal.loads(data[len(header):])
    except (OSError, ValueError, EOFError, TypeError):
        return None
    return code if isinstance(code, types.CodeType) else None


def _replace_file(path, data):
    """Write ``data`` (text or bytes) to ``path`` atomically (tmp
    sibling + rename): a reader sees the old file or the new one, never
    half of either."""
    tmp = path + ".tmp.%d" % os.getpid()
    with open(tmp, "wb" if isinstance(data, bytes) else "w") as handle:
        handle.write(data)
    os.replace(tmp, path)


def _record_files(directory, prefix):
    """The ``<prefix>*.json`` record paths in ``directory``, in name
    order ([] when it cannot be listed: absent, or evicted empty)."""
    try:
        names = sorted(os.listdir(directory))
    except OSError:
        return []
    return [os.path.join(directory, name) for name in names
            if name.startswith(prefix) and name.endswith(".json")]


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
        self.tunings_dir = os.path.join(self.root, "tunings")
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
        the next ``_bump`` persists the reset.
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
        """Atomically increment the persisted counters (under lock).

        Dropped silently when the store is unwritable: losing counter
        updates on a read-only mount must never break a compile.
        """
        try:
            with self._lock():
                counters = self._read_counters()
                for name, delta in deltas.items():
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

    def _record_path(self, kind, digest):
        if kind is _TUNING:
            return os.path.join(self.tunings_dir,
                                _TUNING_PREFIX + digest + ".json")
        return self.entry_path_for_digest(digest)

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
            for path in _record_files(directory, _ENTRY_PREFIX):
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
    def _read_record(self, kind, digest, count=True):
        """The verified ``kind`` record addressed by ``digest``, or
        None — the one read path of every persisted record.

        A missing file is a miss.  Any defect — unreadable file,
        malformed JSON, another ``store_version``, a recorded key that
        does not hash back to ``digest`` (tamper and collision
        defense), a missing payload — quarantines the record and reads
        as a miss, so one corrupt file can never poison compiles.
        ``count=False`` leaves the ``kind``'s hit/miss counters alone
        (a quarantine is always counted).
        """
        field, prefix = kind
        path = self._record_path(kind, digest)
        missed = {prefix + "misses": 1} if count else {}
        if not os.path.exists(path):
            if missed:
                self._bump(**missed)
            return None
        try:
            from repro import chaos as _chaos

            if _chaos.active():
                # Chaos fault points: a flaky read raises OSError, a
                # corrupt record garbles the text so JSON parsing
                # rejects it (both the quarantine path below).
                _chaos.inject("store_read_error")
            with open(path) as handle:
                raw = handle.read()
            if _chaos.active():
                raw = _chaos.mangle("store_corrupt_entry", raw)
            record = json.loads(raw)
            if not isinstance(record, dict) or field not in record:
                raise ValueError("not a %s record" % field)
            if record.get("store_version") != STORE_VERSION:
                raise ValueError("store version mismatch")
            if entry_digest(record.get("key")) != digest:
                raise ValueError("record key does not hash to %s"
                                 % digest)
        except (OSError, ValueError, TypeError):
            self._quarantine(path)
            self._bump(quarantined=1, **missed)
            return None
        try:
            # LRU touch: recently used entries survive eviction
            # (inert on tunings, which are never evicted).
            os.utime(path)
        except OSError:
            pass
        if count:
            self._bump(**{prefix + "hits": 1})
        return record

    def read_entry(self, digest):
        """The raw stored entry addressed by ``digest``, served as
        ``(entry, so_path)`` — the kernel service's lookup primitive.

        ``entry`` is the persisted ``{"store_version", "key", "spec"}``
        payload, verified exactly like :meth:`load_spec` verifies it;
        ``so_path`` is the sidecar's path when one exists, else None.
        Returns ``(None, None)`` on a miss or any defect.  Deliberately
        does *not* touch the persisted hit/miss counters: the service
        keeps its own, and a remote fleet's traffic must not
        masquerade as local lookups.
        """
        entry = self._read_record(_ENTRY, digest, count=False)
        if entry is None:
            return None, None
        return entry, self._so_path(digest)

    def load_spec(self, meta):
        """The stored spec for ``meta``, or None (counts a miss; see
        :meth:`_read_record` for what reads as one)."""
        entry = self._read_record(_ENTRY, entry_digest(meta))
        return None if entry is None else entry["spec"]

    def load_artifact(self, meta):
        """The rebuilt :class:`CompiledKernel` for ``meta``, or None.

        A spec that no longer rebuilds (its carried source fails to
        ``exec``) is quarantined exactly like a corrupt file — and the
        hit already counted for it is taken back.  A python kernel
        ``exec``\\ s its ``.code`` sidecar; when that is absent or
        defective the source is compiled and the sidecar rewritten.
        """
        digest = entry_digest(meta)
        entry = self._read_record(_ENTRY, digest)
        if entry is None:
            return None
        path = self.entry_path_for_digest(digest)
        spec = entry["spec"]
        source = spec.get("source") if isinstance(spec, dict) else None
        code = (_load_code(_sidecar_path(path, ".code"), source)
                if isinstance(source, str) else None)
        artifact = rebuild(spec, so=self._so_path(digest), code=code)
        if artifact is None:
            self._quarantine(path)
            self._bump(hits=-1, misses=1, quarantined=1)
        elif artifact.code is not None and artifact.code is not code:
            self._save_code(path, source, artifact.code)
        return artifact

    def _save_code(self, path, source, code):
        """Best effort: write ``code``, compiled from ``source``, as
        the ``.code`` sidecar of the entry at ``path`` — unless the
        entry is gone (evicted or cleared meanwhile)."""
        try:
            with self._lock():
                if os.path.exists(path):
                    _replace_file(_sidecar_path(path, ".code"),
                                  _dump_code(source, code))
        except OSError as exc:
            self._note_io_error("code sidecar write", exc)

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
        sidecars = {}
        if so_path is not None:
            try:
                with open(so_path, "rb") as handle:
                    sidecars[".so"] = handle.read()
            except OSError:
                pass  # gone: the C source recompiles on load
        if code is not None:
            sidecars[".code"] = _dump_code(spec["source"], code)
        return self._write_record(_ENTRY, meta, spec, sidecars=sidecars)

    def _write_record(self, kind, meta, value, sidecars=None):
        """Persist one ``kind`` record under the lock — the one write
        path of every persisted record; returns its path (None when
        the store is unwritable).  An entry's ``sidecars`` (suffix ->
        bytes) are written beside it, and a sidecar it does not name
        is removed: a rewrite must not leave a stale one behind."""
        field, prefix = kind
        path = self._record_path(kind, entry_digest(meta))
        payload = json.dumps(
            {"store_version": STORE_VERSION, "key": meta, field: value},
            sort_keys=True, separators=(",", ":"))
        try:
            with self._lock():
                os.makedirs(os.path.dirname(path), exist_ok=True)
                if kind is _ENTRY:
                    for suffix in SIDECARS:
                        target = _sidecar_path(path, suffix)
                        if suffix in sidecars:
                            _replace_file(target, sidecars[suffix])
                        else:
                            _discard(target)
                _replace_file(path, payload)
                evicted = (self._evict_locked(keep=path)
                           if kind is _ENTRY else 0)
        except OSError as exc:
            # An unwritable store (read-only fleet mount, disk full)
            # degrades to a read-only tier: the compile that wanted to
            # write behind still succeeded.
            self._note_io_error("%s write" % field, exc)
            return None
        self._bump(**{prefix + "writes": 1, "evictions": evicted})
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

    # -- tunings -------------------------------------------------------
    # The winners table of the schedule autotuner
    # (:mod:`repro.tune`): tiny JSON records under ``tunings/``,
    # addressed by a protocol-erased structural digest plus the same
    # version axes entries invalidate on.  Same durability discipline
    # as entries — atomic tmp+rename writes under the store lock,
    # defects quarantined (never deleted) and read as misses — but no
    # LRU eviction: a tuning record is a few hundred bytes of
    # *measurement*, and rerunning the search it summarizes costs far
    # more than the bytes ever will.

    def save_tuning(self, meta, winner):
        """Persist one tuning winner under ``meta``; returns the
        record path (None when the store is unwritable)."""
        return self._write_record(_TUNING, meta, winner)

    def load_tuning(self, meta):
        """The stored winner record for ``meta``, or None.

        Exactly the entry contract (:meth:`_read_record`): a missing
        record is a miss, and any defect is quarantined and reads as a
        miss.  A version-axis change (op registry, code fingerprint,
        tune layout) lands in a *different* digest, so stale winners
        are simply never found.
        """
        record = self._read_record(_TUNING, entry_digest(meta))
        return None if record is None else record["winner"]

    # -- inspection ----------------------------------------------------
    @staticmethod
    def _list_records(paths, kind):
        """``(path, key-meta, payload)`` of every readable record of
        ``kind`` among ``paths`` (unreadable ones are skipped, not
        quarantined: listing is inspection, not lookup)."""
        field, _ = kind
        listed = []
        for path in paths:
            try:
                with open(path) as handle:
                    record = json.load(handle)
                listed.append((path, record["key"], record[field]))
            except (OSError, ValueError, KeyError, TypeError):
                continue
        return listed

    def tunings(self):
        """Parsed ``(path, key-meta, winner)`` triples of every
        readable tuning record."""
        return self._list_records(
            _record_files(self.tunings_dir, _TUNING_PREFIX), _TUNING)

    def entries(self):
        """Parsed ``(path, key-meta)`` pairs of every readable entry."""
        return self._list_entries(self._entry_files())

    def _list_entries(self, files):
        """``(path, key-meta)`` of the readable entries among
        ``files`` (``_entry_files`` rows)."""
        return [(path, meta) for path, meta, _ in self._list_records(
            [path for path, _, _ in files], _ENTRY)]

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
        """Drop every entry, the quarantine, and the counters."""
        with self._lock():
            for path, _, _ in self._entry_files():
                self._discard_entry(path)
            shutil.rmtree(self.quarantine_dir, ignore_errors=True)
            shutil.rmtree(self.tunings_dir, ignore_errors=True)
            _discard(self._stats_path)

    def stats(self):
        """Persisted counters plus live occupancy.

        ``hits``/``misses``/... aggregate across every process that
        ever used this store directory; ``hit_rate`` is their ratio
        (0.0 before any lookup).  ``entries``/``bytes`` are measured
        from the directory right now, sidecars included;
        ``stale_entries``/``stale_bytes`` are the part of them that
        other code versions wrote (:meth:`gc_stale` removes it).
        """
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
            "tunings": len(_record_files(self.tunings_dir,
                                         _TUNING_PREFIX)),
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
