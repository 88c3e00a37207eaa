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
"""

import json
import logging
import os
import shutil
import time
from contextlib import contextmanager

from repro.compiler.key import STORE_VERSION, KernelKey, entry_digest
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
                tmp = self._stats_path + ".tmp.%d" % os.getpid()
                with open(tmp, "w") as handle:
                    json.dump(counters, handle)
                os.replace(tmp, self._stats_path)
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

    @staticmethod
    def _so_sibling(path):
        """The shared-object sidecar of one ``.json`` entry path."""
        return path[:-len(".json")] + ".so"

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

        ``path`` is always the ``.json`` spec; ``size`` includes the
        ``.so`` sidecar when one exists, so eviction accounts the full
        footprint of a C-backend entry.
        """
        entries = []
        for directory in self._shard_dirs():
            try:
                names = os.listdir(directory)
            except OSError:
                continue
            for name in names:
                if not (name.startswith(_ENTRY_PREFIX)
                        and name.endswith(".json")):
                    continue
                path = os.path.join(directory, name)
                try:
                    info = os.stat(path)
                except OSError:
                    continue  # concurrently evicted
                size = info.st_size
                try:
                    size += os.stat(self._so_sibling(path)).st_size
                except OSError:
                    pass  # python-backend entry: no sidecar
                entries.append((path, size, info.st_mtime))
        entries.sort(key=lambda item: (item[2], item[0]))
        return entries

    def read_entry(self, digest):
        """The raw stored entry addressed by ``digest``, served as
        ``(entry, so_path)`` — the kernel service's lookup primitive.

        ``entry`` is the persisted ``{"store_version", "key", "spec"}``
        payload with the recorded key verified to hash back to
        ``digest`` (a mismatch reads as a miss — tamper and collision
        defense, same as :meth:`load_spec`); ``so_path`` is the
        sidecar's path when one exists, else None.  Returns ``(None,
        None)`` on a miss or any defect.  Deliberately does *not*
        touch the persisted hit/miss counters: the service keeps its
        own, and a remote fleet's traffic must not masquerade as local
        lookups.
        """
        path = self.entry_path_for_digest(digest)
        try:
            with open(path) as handle:
                entry = json.load(handle)
            if entry.get("store_version") != STORE_VERSION:
                raise ValueError("store version mismatch")
            if entry_digest(entry.get("key")) != digest:
                raise ValueError("entry key does not hash to %s"
                                 % digest)
        except OSError:
            return None, None
        except (ValueError, KeyError, TypeError):
            self._quarantine(path)
            self._bump(quarantined=1)
            return None, None
        try:
            os.utime(path)  # LRU touch: served entries stay resident
        except OSError:
            pass
        so_path = self._so_sibling(path)
        if not os.path.exists(so_path):
            so_path = None
        return entry, so_path

    # -- reads ---------------------------------------------------------
    def load_spec(self, meta):
        """The stored spec for ``meta``, or None (counts a miss).

        Any defect — unreadable file, malformed JSON, an entry whose
        recorded key does not match — quarantines the entry and reads
        as a miss, so one corrupt file can never poison compiles.
        """
        path = self._entry_path(meta)
        if not os.path.exists(path):
            self._bump(misses=1)
            return None
        try:
            from repro import chaos as _chaos

            if _chaos.active():
                # Chaos fault points: a flaky read raises OSError (the
                # degrade-to-miss path below), a corrupt entry garbles
                # the text so JSON parsing rejects it (the quarantine
                # path below).
                _chaos.inject("store_read_error")
            with open(path) as handle:
                raw = handle.read()
            if _chaos.active():
                raw = _chaos.mangle("store_corrupt_entry", raw)
            entry = json.loads(raw)
            if entry.get("store_version") != STORE_VERSION:
                raise ValueError("store version mismatch")
            if entry.get("key") != meta:
                raise ValueError("entry key does not match its digest")
            spec = entry["spec"]
        except (OSError, ValueError, KeyError, TypeError):
            self._quarantine(path)
            self._bump(misses=1, quarantined=1)
            return None
        try:
            os.utime(path)  # LRU touch: recently used entries survive
        except OSError:
            pass
        self._bump(hits=1)
        return spec

    def load_artifact(self, meta):
        """The rebuilt :class:`CompiledKernel` for ``meta``, or None.

        A spec that no longer rebuilds (its carried source fails to
        ``exec``) is quarantined exactly like a corrupt file — and the
        hit already counted for it is taken back.
        """
        spec = self.load_spec(meta)
        if spec is None:
            return None
        so_path = self._so_sibling(self._entry_path(meta))
        if not os.path.exists(so_path):
            so_path = None  # python entry, or sidecar lost: recompile
        artifact = rebuild(spec, so=so_path)
        if artifact is None:
            self._quarantine(self._entry_path(meta))
            self._bump(hits=-1, misses=1, quarantined=1)
        return artifact

    def _quarantine(self, path):
        """Move a defective entry aside (never delete: it is the repro
        for whatever corrupted it)."""
        stamp = "%d.%d" % (os.getpid(), int(time.time() * 1e6))
        try:
            os.makedirs(self.quarantine_dir, exist_ok=True)
            target = os.path.join(
                self.quarantine_dir,
                "%s.%s" % (os.path.basename(path), stamp))
            os.replace(path, target)
        except OSError:
            pass  # another process already moved or evicted it
        if path.endswith(".json"):
            sidecar = self._so_sibling(path)
            try:
                os.replace(sidecar, os.path.join(
                    self.quarantine_dir,
                    "%s.%s" % (os.path.basename(sidecar), stamp)))
            except OSError:
                pass  # no sidecar, or already moved

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
                              so_path=artifact.so_path)

    def save_spec(self, meta, spec, so_path=None):
        """Persist one serialized spec under ``meta``; returns the
        entry path.  Atomic (tmp + rename) and evicts LRU entries past
        ``max_bytes`` before releasing the lock.

        ``so_path`` (a compiled shared object) is copied next to the
        entry as a ``.so`` sidecar — an optimization, not part of the
        durable contract: the spec alone rebuilds the kernel (the C
        source recompiles on load), so a lost or stale sidecar costs
        one compile, never correctness.
        """
        path = self._entry_path(meta)
        payload = json.dumps(
            {"store_version": STORE_VERSION, "key": meta,
             "spec": spec},
            sort_keys=True, separators=(",", ":"))
        try:
            with self._lock():
                os.makedirs(os.path.dirname(path), exist_ok=True)
                tmp = path + ".tmp.%d" % os.getpid()
                with open(tmp, "w") as handle:
                    handle.write(payload)
                so_target = self._so_sibling(path)
                if so_path is not None and os.path.exists(so_path):
                    so_tmp = so_target + ".tmp.%d" % os.getpid()
                    shutil.copyfile(so_path, so_tmp)
                    os.replace(so_tmp, so_target)
                else:
                    # A python-backend rewrite of this slot must not
                    # leave a stale sidecar behind.
                    try:
                        os.remove(so_target)
                    except OSError:
                        pass
                os.replace(tmp, path)
                evicted = self._evict_locked(keep=path)
        except OSError as exc:
            # An unwritable store (read-only fleet mount, disk full)
            # degrades to a read-only tier: the compile that wanted to
            # write behind still succeeded.
            self._note_io_error("entry write", exc)
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
            if path == keep:
                continue
            try:
                os.remove(path)
            except OSError:
                continue
            try:
                os.remove(self._so_sibling(path))
            except OSError:
                pass  # no sidecar
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

    def _tuning_path(self, meta):
        return os.path.join(
            self.tunings_dir,
            _TUNING_PREFIX + entry_digest(meta) + ".json")

    def save_tuning(self, meta, winner):
        """Persist one tuning winner under ``meta``; returns the
        record path (None when the store is unwritable)."""
        path = self._tuning_path(meta)
        payload = json.dumps(
            {"store_version": STORE_VERSION, "key": meta,
             "winner": winner},
            sort_keys=True, separators=(",", ":"))
        try:
            with self._lock():
                os.makedirs(self.tunings_dir, exist_ok=True)
                tmp = path + ".tmp.%d" % os.getpid()
                with open(tmp, "w") as handle:
                    handle.write(payload)
                os.replace(tmp, path)
        except OSError as exc:
            self._note_io_error("tuning write", exc)
            return None
        self._bump(tuning_writes=1)
        return path

    def load_tuning(self, meta):
        """The stored winner record for ``meta``, or None.

        Exactly the entry contract: a missing record is a miss, and
        any defect (unreadable file, bad JSON, a record whose key does
        not match its digest) is quarantined and reads as a miss.  A
        version-axis change (op registry, pipeline or codegen
        fingerprint, tune layout) lands in a *different* digest, so
        stale winners are simply never found.
        """
        path = self._tuning_path(meta)
        if not os.path.exists(path):
            self._bump(tuning_misses=1)
            return None
        try:
            from repro import chaos as _chaos

            if _chaos.active():
                _chaos.inject("store_read_error")
            with open(path) as handle:
                raw = handle.read()
            if _chaos.active():
                raw = _chaos.mangle("store_corrupt_entry", raw)
            record = json.loads(raw)
            if record.get("store_version") != STORE_VERSION:
                raise ValueError("store version mismatch")
            if record.get("key") != meta:
                raise ValueError("tuning key does not match its digest")
            winner = record["winner"]
        except (OSError, ValueError, KeyError, TypeError):
            self._quarantine(path)
            self._bump(tuning_misses=1, quarantined=1)
            return None
        self._bump(tuning_hits=1)
        return winner

    def tunings(self):
        """Parsed ``(path, key-meta, winner)`` triples of every
        readable tuning record."""
        listed = []
        try:
            names = sorted(os.listdir(self.tunings_dir))
        except OSError:
            return []
        for name in names:
            if not (name.startswith(_TUNING_PREFIX)
                    and name.endswith(".json")):
                continue
            path = os.path.join(self.tunings_dir, name)
            try:
                with open(path) as handle:
                    record = json.load(handle)
                listed.append((path, record["key"], record["winner"]))
            except (OSError, ValueError, KeyError):
                continue
        return listed

    # -- inspection ----------------------------------------------------
    def entries(self):
        """Parsed ``(path, key-meta)`` pairs of every readable entry."""
        listed = []
        for path, _, _ in self._entry_files():
            try:
                with open(path) as handle:
                    entry = json.load(handle)
                listed.append((path, entry["key"]))
            except (OSError, ValueError, KeyError):
                continue
        return listed

    def clear(self):
        """Drop every entry, the quarantine, and the counters."""
        with self._lock():
            for path, _, _ in self._entry_files():
                for victim in (path, self._so_sibling(path)):
                    try:
                        os.remove(victim)
                    except OSError:
                        pass
            shutil.rmtree(self.quarantine_dir, ignore_errors=True)
            shutil.rmtree(self.tunings_dir, ignore_errors=True)
            try:
                os.remove(self._stats_path)
            except OSError:
                pass

    def stats(self):
        """Persisted counters plus live occupancy.

        ``hits``/``misses``/... aggregate across every process that
        ever used this store directory; ``hit_rate`` is their ratio
        (0.0 before any lookup).  ``entries``/``bytes`` are measured
        from the directory right now.
        """
        counters = self._read_counters()
        files = self._entry_files()
        lookups = counters["hits"] + counters["misses"]
        quarantined = 0
        try:
            quarantined = len(os.listdir(self.quarantine_dir))
        except OSError:
            pass
        tunings = 0
        try:
            tunings = sum(
                name.startswith(_TUNING_PREFIX)
                and name.endswith(".json")
                for name in os.listdir(self.tunings_dir))
        except OSError:
            pass
        counters.update({
            "tunings": tunings,
            "entries": len(files),
            "bytes": sum(size for _, size, _ in files),
            "max_bytes": self.max_bytes,
            "hit_rate": (counters["hits"] / lookups) if lookups else 0.0,
            "quarantine_files": quarantined,
            # Per-process: IO failures this store object absorbed
            # (degraded writes, dropped counter updates).
            "io_errors": self._io_errors,
            "root": self.root,
        })
        return counters
