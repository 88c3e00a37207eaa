"""Pickle-free shared-memory tensor transport for the batch engine.

The paper's amortization story — compile once per structure, rebind
over many datasets — dies at the process boundary if every dataset is
pickled into the worker: serializing the tensors costs more than the
coiteration kernel they feed.  This module moves tensor payloads
through ``multiprocessing.shared_memory`` segments instead, so the
only bytes that cross the pipe per dataset are small *descriptors*
(segment name, offset, dtype, shape) and the workers rebind numpy
views over the same physical pages.

Two placement strategies, one descriptor protocol:

:class:`ShmArena`
    long-lived residency.  ``arena.add(array)`` copies an array into
    an arena segment once and registers the returned view in a
    process-wide residency table; from then on the array crosses to
    any worker by descriptor only.  Outputs resident in an arena are
    written *in place* by workers — no copy-back at all.  This is what
    the benchmark harness uses: adopt the datasets up front, then
    every repeat of every batch moves zero tensor bytes.

:class:`ShmStaging`
    per-batch transport for arrays that are not arena-resident.  The
    parent lays out every distinct array of the batch (deduplicated by
    identity), creates one segment, copies inputs in, and after the
    batch copies output regions back (:meth:`ShmStaging.writeback`)
    before unlinking.  One segment per batch keeps the /dev/shm
    namespace tidy and makes cleanup deterministic on error paths.

Descriptors are plain tuples::

    ("shm", name, offset, dtype, shape)   arena-resident; worker keeps
                                          the segment attached (pinned)
    ("stg", offset, dtype, shape)         in the batch's staging
                                          segment (named once per
                                          chunk message); detached
                                          after each chunk

Cleanup discipline: segments are created with a recognizable
``flshm``-prefixed name, tracked in a module registry
(:func:`active_segments`), and unlinked by their owner exactly once —
``close`` unlinks first so the name disappears from /dev/shm
immediately, while segments that still have live resident views keep
their *mapping* alive until the last view is collected (numpy views
do not protect the mapping on their own: ``SharedMemory.close``
unmaps underneath them without raising).  Workers suppress
``resource_tracker`` registration when attaching (CPython < 3.13
registers attachments too, which would tear down the parent's segment
when a worker exits — bpo-39959).
"""

import os
import threading
import weakref

import numpy as np

from multiprocessing import resource_tracker, shared_memory

#: Prefix of every segment this module creates (leak checks grep for it).
SHM_PREFIX = "flshm"

#: Buffer alignment inside segments (cache-line sized).
_ALIGNMENT = 64

_lock = threading.Lock()
_counter = 0
_active = set()  # segment names created here and not yet unlinked


def _align_up(n):
    return (n + _ALIGNMENT - 1) & ~(_ALIGNMENT - 1)


def _next_name():
    global _counter
    with _lock:
        _counter += 1
        return "%s_%d_%d" % (SHM_PREFIX, os.getpid(), _counter)


def active_segments():
    """Names of segments this process created and has not unlinked.

    Empty after every well-behaved batch — the shm hygiene tests
    assert exactly that on both success and error paths.
    """
    with _lock:
        return sorted(_active)


class ShmSegment:
    """One named shared-memory segment with deterministic cleanup.

    ``create`` makes an owning segment (unlinked by :meth:`close`);
    ``attach`` maps an existing one by name.  The attaching side never
    unlinks and is unregistered from the resource tracker, so a
    worker's exit cannot tear down a segment the parent still owns.
    """

    def __init__(self, shm, owner):
        self._shm = shm
        self.name = shm.name
        self.owner = owner
        self._closed = False
        self._unlinked = False

    @classmethod
    def create(cls, size):
        shm = None
        while shm is None:
            name = _next_name()
            try:
                shm = shared_memory.SharedMemory(
                    name=name, create=True, size=max(int(size), 1))
            except FileExistsError:  # pragma: no cover - recycled pid
                continue
        with _lock:
            _active.add(shm.name)
        return cls(shm, owner=True)

    @classmethod
    def attach(cls, name):
        # Attaching must not (re-)register the segment with a resource
        # tracker: under fork the tracker process is shared with the
        # owner, so an attacher-side unregister would erase the
        # owner's claim, and under spawn the attacher's own tracker
        # would unlink the owner's segment when the worker exits
        # (bpo-39959).  Python 3.13+ exposes track=False; earlier
        # versions need the registration suppressed around the call.
        try:
            shm = shared_memory.SharedMemory(name=name, track=False)
        except TypeError:
            with _lock:
                original = resource_tracker.register
                resource_tracker.register = lambda *args: None
                try:
                    shm = shared_memory.SharedMemory(name=name)
                finally:
                    resource_tracker.register = original
        return cls(shm, owner=False)

    @property
    def size(self):
        return self._shm.size

    def view(self, offset, dtype, shape):
        """A numpy array over the bytes at ``offset``."""
        return np.ndarray(shape, dtype=dtype, buffer=self._shm.buf,
                          offset=offset)

    def close(self, defer_views=None):
        """Release this side's mapping; owners also unlink the name.

        Unlink happens first (and exactly once), so the name leaves
        /dev/shm immediately.  Unmapping must NOT happen under live
        numpy views: ``SharedMemory.close`` unmaps even when views
        still point into the segment (numpy releases its buffer
        export at construction and keeps only a base reference, so
        nothing raises ``BufferError`` — reads after close are
        use-after-free).  Callers that know of live views pass them
        as ``defer_views``: the mapping is then kept alive and
        released only when the last of those views is collected.
        Idempotent.
        """
        if self.owner and not self._unlinked:
            self._unlinked = True
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass
            with _lock:
                _active.discard(self.name)
        if not self._closed:
            self._closed = True
            if defer_views:
                _DeferredUnmap(self._shm, defer_views)
            else:
                try:
                    self._shm.close()
                except BufferError:  # pragma: no cover - defensive
                    pass

    def __del__(self):  # pragma: no cover - GC-order dependent
        try:
            self.close()
        except Exception:
            pass


#: Deferred unmaps kept alive until their last view is collected.
_deferred = set()


class _DeferredUnmap:
    """Holds a closed-but-unlinked mapping open for its live views.

    An arena can be closed while tensors adopted into it are still in
    use (their level buffers ARE arena views); unmapping at that point
    would turn every later tensor access into a use-after-free.  This
    keeps the underlying ``SharedMemory`` referenced — which keeps the
    pages mapped — and releases it from a weakref callback once every
    known view has been garbage collected.
    """

    def __init__(self, shm, views):
        self._shm = shm
        # weakref.ref hashes via the referent (ndarrays are
        # unhashable), so hold the refs in a list and count down.
        self._alive = len(views)
        with _lock:
            _deferred.add(self)
        self._refs = [weakref.ref(view, self._dropped)
                      for view in views]

    def _dropped(self, ref):
        with _lock:
            self._alive -= 1
            done = self._alive <= 0
        if done:
            try:
                self._shm.close()
            except Exception:  # pragma: no cover - interpreter exit
                pass
            with _lock:
                _deferred.discard(self)


# -- residency registry ---------------------------------------------------

#: id(array) -> (weakref(array), segment name, offset).  Arrays placed
#: by :meth:`ShmArena.add`; looked up on every transport build so
#: resident buffers ship as descriptors, not bytes.
_resident = {}


def _register_resident(array, segment, offset):
    _resident[id(array)] = (weakref.ref(array), segment.name, offset)


def resident_descriptor(array):
    """The ``("shm", ...)`` descriptor for an arena-resident array,
    or None when the array must be staged.  Stale entries (the id was
    recycled after the original view died) are dropped on sight."""
    entry = _resident.get(id(array))
    if entry is None:
        return None
    ref, name, offset = entry
    if ref() is not array:
        del _resident[id(array)]
        return None
    return ("shm", name, offset, array.dtype.str, array.shape)


def resident_bytes():
    """Total bytes currently registered as arena-resident."""
    total = 0
    for ref, _name, _offset in _resident.values():
        array = ref()
        if array is not None:
            total += array.nbytes
    return total


class ShmArena:
    """A bump allocator over owned segments for long-lived residency.

    ``add`` copies an array in once and returns the resident view;
    thereafter the array crosses process boundaries by descriptor.
    Writes through any process's view are immediately visible in every
    other — resident outputs need no copy-back.  Closing the arena
    unlinks every segment; views already made keep working in-process
    until collected, but no new worker can attach.
    """

    def __init__(self, min_segment_bytes=1 << 22):
        self._min_segment = int(min_segment_bytes)
        self._segments = []
        self._current = None
        self._cursor = 0
        self._closed = False

    @property
    def segments(self):
        return list(self._segments)

    def nbytes(self):
        return sum(seg.size for seg in self._segments)

    def add(self, array):
        """Copy ``array`` into the arena; returns the resident view."""
        if self._closed:
            raise RuntimeError("ShmArena is closed")
        if (isinstance(array, np.ndarray)
                and resident_descriptor(array) is not None):
            return array  # already transport-resident: no re-copy
        array = np.ascontiguousarray(array)
        nbytes = max(array.nbytes, 1)
        if (self._current is None
                or self._cursor + nbytes > self._current.size):
            self._current = ShmSegment.create(
                max(self._min_segment, nbytes))
            self._segments.append(self._current)
            self._cursor = 0
        offset = self._cursor
        self._cursor = _align_up(offset + nbytes)
        view = self._current.view(offset, array.dtype, array.shape)
        np.copyto(view, array, casting="no")
        _register_resident(view, self._current, offset)
        return view

    def close(self):
        """Unlink every segment and retire its residency entries.

        Adopted tensors stay usable: segments with live resident
        views keep their mapping until those views are collected
        (the /dev/shm names disappear immediately regardless).
        """
        self._closed = True
        names = {seg.name for seg in self._segments}
        live = {}  # segment name -> live views
        for key, (ref, name, _offset) in list(_resident.items()):
            if name in names:
                view = ref()
                if view is not None:
                    live.setdefault(name, []).append(view)
                _resident.pop(key, None)
            elif ref() is None:
                _resident.pop(key, None)
        segments, self._segments = self._segments, []
        self._current = None
        for seg in segments:
            seg.close(defer_views=live.get(seg.name))

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False


# -- per-batch staging ----------------------------------------------------

class ShmStaging:
    """Transport for one batch's non-resident ndarray arguments.

    Two-phase: :meth:`stage` only reserves layout (deduplicating by
    array identity, so an input shared across datasets crosses once);
    :meth:`seal` creates the single segment and copies every staged
    array in.  After the batch, :meth:`writeback` copies output
    regions of *completed* datasets back into the caller's arrays and
    :meth:`close` unlinks — also safe to call on error paths where
    nothing was sealed.
    """

    def __init__(self):
        self._entries = {}  # id(array) -> offset
        self._order = []    # (array, offset) in layout order
        self._writeback = []  # (dataset index, array, offset)
        self._segment = None
        self._cursor = 0
        self._sealed = False

    def stage(self, array, dataset, writes):
        """Reserve transport space for ``array``; returns its
        descriptor.  ``writes`` marks it an output of ``dataset``
        (copied back by :meth:`writeback`)."""
        if self._sealed:
            raise RuntimeError("staging already sealed")
        offset = self._entries.get(id(array))
        if offset is None:
            offset = self._cursor
            self._cursor = _align_up(offset + max(array.nbytes, 1))
            self._entries[id(array)] = offset
            self._order.append((array, offset))
        if writes:
            self._writeback.append((dataset, array, offset))
        return ("stg", offset, array.dtype.str, array.shape)

    def nbytes(self):
        return self._cursor

    @property
    def name(self):
        return self._segment.name if self._segment is not None else None

    def seal(self):
        """Create the segment and copy every staged array in; returns
        the segment name (None when nothing was staged)."""
        if not self._sealed:
            self._sealed = True
            if self._order:
                self._segment = ShmSegment.create(self._cursor)
                for array, offset in self._order:
                    np.copyto(
                        self._segment.view(offset, array.dtype,
                                           array.shape),
                        array, casting="no")
        return self.name

    def writeback(self, completed):
        """Copy staged output regions of the datasets in ``completed``
        back into the caller's arrays."""
        if self._segment is None:
            return
        for dataset, array, offset in self._writeback:
            if dataset in completed:
                np.copyto(
                    array,
                    self._segment.view(offset, array.dtype, array.shape),
                    casting="no")

    def close(self):
        if self._segment is not None:
            segment, self._segment = self._segment, None
            segment.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False


def describe_args(args, staging, dataset, output_ids):
    """The transport payload for one dataset's bound argument list.

    Every argument is an ndarray and becomes a shm descriptor
    (resident ones by lookup, the rest via ``staging``).
    ``output_ids`` is the identity set of this dataset's output
    buffers; staged members are marked for write-back.
    """
    descs = []
    for arg in args:
        desc = resident_descriptor(arg)
        if desc is None:
            desc = staging.stage(arg, dataset, id(arg) in output_ids)
        descs.append(desc)
    return {"args": descs}


class SegmentCache:
    """Worker-side attachments.

    ``("shm", ...)`` segments are *pinned* — mapped once and kept for
    the cache's lifetime (an arena outlives many batches).  Staging
    segments are *transient* — dropped after every chunk so the parent
    can unlink deterministically at batch end.
    """

    def __init__(self):
        self._pinned = {}
        self._transient = {}

    def attach(self, name, pinned):
        seg = self._pinned.get(name) or self._transient.get(name)
        if seg is None:
            if not pinned:
                # Chaos fault point: a transient (staging) attach is
                # the map racing the parent's unlink — raising here
                # surfaces as a worker-side TransientError the retry
                # policy re-stages.  Pinned attaches (progress array,
                # arenas) are pool infrastructure and stay exempt.
                from repro import chaos as _chaos

                if _chaos.active():
                    _chaos.inject("shm_attach_fail")
            seg = ShmSegment.attach(name)
            (self._pinned if pinned else self._transient)[name] = seg
        return seg

    def release_transient(self):
        segments, self._transient = list(self._transient.values()), {}
        for seg in segments:
            seg.close()

    def close(self):
        self.release_transient()
        segments, self._pinned = list(self._pinned.values()), {}
        for seg in segments:
            seg.close()


def build_args(payload, staging_name, cache):
    """Rebuild one dataset's argument list from its transport payload
    (worker side): shm descriptors become numpy views over attached
    segments."""
    args = []
    for desc in payload["args"]:
        kind = desc[0]
        if kind == "stg":
            _, offset, dtype, shape = desc
            seg = cache.attach(staging_name, pinned=False)
            args.append(seg.view(offset, np.dtype(dtype), shape))
        elif kind == "shm":
            _, name, offset, dtype, shape = desc
            seg = cache.attach(name, pinned=True)
            args.append(seg.view(offset, np.dtype(dtype), shape))
        else:
            raise ValueError("unknown transport descriptor %r" % (kind,))
    return args
