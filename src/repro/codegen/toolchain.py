"""Discover a C compiler, build per-kernel shared objects, load them.

Discovery order: the ``FL_CC`` environment variable (a name resolved
on ``PATH`` or an absolute path), then ``cc``, ``gcc``, ``clang``.
The result is memoized per process; tests monkeypatch
:func:`compiler_path` (or set ``FL_CC`` to a bogus name) to exercise
the no-compiler degradation path.

Compilation shells out — ``cc -O2 -fPIC -shared -std=c99 -nostdlib``
and ``-lm`` — into a per-process scratch directory and is memoized by
the source digest, so one process compiles each distinct kernel at
most once no matter how many cache tiers or threads ask.  No
``-ffast-math``-style flags are ever passed: the C backend's contract
is bit-identity with the python backend.

Loading goes through :mod:`ctypes`.  The exported symbol is
``int64_t <name>(void **args)`` and ``ctypes`` releases the GIL for
the duration of every foreign call, which is what lets the batch
engine's ``threads`` executor scale on C kernels.  The returned entry
point is a kernel entry (:func:`repro.ir.runtime.make_entry`) taking
the same positional numpy buffers as the python backend's: a binding's
arrays are validated and its pointer array built on each call, or once
by ``entry.prepare`` for the prepared call a bind-plan entry keeps —
then a call is one foreign call and one status check.
"""

import atexit
import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading

import numpy as np

from repro.codegen.c_emit import STATUS_ERRORS
from repro.ir import runtime
from repro.util import config
from repro.util.errors import ReproError

#: Compiler names probed on PATH, in order, when ``FL_CC`` is unset.
COMPILER_CANDIDATES = ("cc", "gcc", "clang")

#: Flags passed to every kernel compile.  ``-nostdlib`` links no C
#: runtime start files and no libc: a kernel needs none of them, and
#: ``cc`` runs an eighth to a sixth faster without.  What a kernel
#: still calls (``memset``, which a zero fill compiles to) resolves at
#: load time against the libc the Python process already has.
CFLAGS = ("-O2", "-pipe", "-fPIC", "-shared", "-std=c99",
          "-fvisibility=hidden", "-nostdlib")

#: Libraries linked after the source: the math helpers (``rint``,
#: ``floor``, ``fmod``) that no builtin inlines resolve in libm.
LIBS = ("-lm",)


class ToolchainError(ReproError):
    """No usable C compiler, or a kernel failed to compile or load."""


_lock = threading.RLock()
_compiler = None
_compiler_probed = False
_build_dir = None
_entries = {}  # source digest -> (so_path, symbol name)
_builds = {}   # source digest -> the lock its one build holds


def compiler_path():
    """Absolute path of the C compiler, or ``None`` when unavailable.

    Honors ``FL_CC`` (never falling back past an explicit setting: a
    misspelled ``FL_CC`` reads as *no toolchain*, not as a silent
    switch to a different compiler).  Memoized; tests monkeypatch this
    function or call :func:`reset` after changing the environment.
    """
    global _compiler, _compiler_probed
    with _lock:
        if _compiler_probed:
            return _compiler
        override = config.resolve("cc")
        if override:
            path = shutil.which(override)
            if path is None and os.path.isabs(override) \
                    and os.access(override, os.X_OK):
                path = override
            _compiler = path
        else:
            _compiler = next(
                (path for path in map(shutil.which, COMPILER_CANDIDATES)
                 if path), None)
        _compiler_probed = True
        return _compiler


def have_toolchain():
    """True when a C compiler was found (see :func:`compiler_path`)."""
    return compiler_path() is not None


def reset():
    """Forget the memoized compiler probe (tests)."""
    global _compiler, _compiler_probed
    with _lock:
        _compiler = None
        _compiler_probed = False


def _scratch_dir():
    global _build_dir
    with _lock:
        if _build_dir is None:
            _build_dir = tempfile.mkdtemp(prefix="fl-ckernels-")
            atexit.register(shutil.rmtree, _build_dir,
                            ignore_errors=True)
        return _build_dir


def source_digest(c_source):
    """Stable content digest of one generated C source."""
    return hashlib.sha256(c_source.encode("utf-8")).hexdigest()[:32]


def compile_shared(c_source, name="kernel"):
    """Compile ``c_source`` into a shared object; returns its path.

    Memoized by source digest per process, and built once: concurrent
    callers of one digest wait for the first one's build and share it.
    The source and the object are written under temporary names and
    published whole by ``os.replace``, so no caller can load a
    half-written object.  Raises :class:`ToolchainError` when no
    compiler is available or the compile fails (the compiler's stderr
    is carried in the message — a generated kernel failing to compile
    is an emitter bug worth the full diagnostic).
    """
    digest = source_digest(c_source)
    with _lock:
        cached = _entries.get(digest)
        if cached is not None:
            return cached[0]
        build = _builds.setdefault(digest, threading.Lock())
    with build:
        with _lock:
            cached = _entries.get(digest)
        if cached is not None:
            return cached[0]
        try:
            so_path = _build(c_source, name, digest)
            with _lock:
                _entries[digest] = (so_path, name)
        finally:
            with _lock:
                if _builds.get(digest) is build:
                    del _builds[digest]
    return so_path


def _build(c_source, name, digest):
    """Run the compiler on ``c_source``; the published object's path."""
    cc = compiler_path()
    if cc is None:
        raise ToolchainError(
            "no C compiler found (set FL_CC or install cc/gcc/clang)")
    stem = os.path.join(_scratch_dir(), "k_%s" % digest)
    tmp = "%s.%d-%d.tmp" % (stem, os.getpid(), threading.get_ident())
    with open(tmp + ".c", "w") as handle:
        handle.write(c_source)
    command = [cc, *CFLAGS, "-o", tmp + ".so", tmp + ".c", *LIBS]
    proc = subprocess.run(command, capture_output=True, text=True)
    if proc.returncode != 0 or not os.path.exists(tmp + ".so"):
        os.remove(tmp + ".c")
        raise ToolchainError(
            "C compile of kernel %r failed (%s exit %d):\n%s"
            % (name, cc, proc.returncode,
               proc.stderr.strip() or proc.stdout.strip()))
    os.replace(tmp + ".c", stem + ".c")
    os.replace(tmp + ".so", stem + ".so")
    return stem + ".so"


def adopt_shared(c_source, name, so_bytes):
    """Park a shared object built elsewhere (the kernel service's
    ``.so`` sidecar bytes) where :func:`compile_shared` would have put
    it, and memoize it the same way; returns its path, or None when
    the bytes do not load here (foreign architecture, truncated body)
    — the caller then recompiles from ``c_source``."""
    digest = source_digest(c_source)
    with _lock:
        cached = _entries.get(digest)
        if cached is not None:
            return cached[0]
    so_path = os.path.join(_scratch_dir(), "k_%s.so" % digest)
    tmp = "%s.%d.tmp" % (so_path, threading.get_ident())
    with open(tmp, "wb") as handle:
        handle.write(so_bytes)
    os.replace(tmp, so_path)
    try:
        load_symbol(so_path, name)
    except ToolchainError:
        os.remove(so_path)
        return None
    with _lock:
        _entries[digest] = (so_path, name)
    return so_path


def load_symbol(so_path, name):
    """The raw ``int64_t (*)(void **)`` entry from one shared object.

    Raises :class:`ToolchainError` when the object cannot be loaded or
    does not export ``name`` (a foreign ``.so`` — wrong architecture,
    truncated store file — must degrade, not crash the compile).
    """
    try:
        library = ctypes.CDLL(so_path)
        fn = getattr(library, name)
    except (OSError, AttributeError) as exc:
        raise ToolchainError(
            "cannot load kernel %r from %s: %s" % (name, so_path, exc))
    # No ``argtypes``: the one argument is always the binding's
    # ``c_void_p`` array, which ctypes passes as a pointer unconverted.
    fn.restype = ctypes.c_int64
    return fn


#: The address of a writable, non-empty array's first byte: a
#: ``ctypes`` object on its buffer, dropped at once (so no buffer stays
#: exported), costs 0.4 µs where ``array.ctypes.data`` builds a helper
#: object for ~2 µs; the marshal reads other arrays that slower way.
_addressof = ctypes.addressof
_from_buffer = ctypes.c_char.from_buffer


def make_entry(cfn, name, param_dtypes):
    """Wrap a raw C entry as a kernel entry point over numpy buffers
    (:func:`repro.ir.runtime.make_entry`): marshalling a binding
    validates each argument (ndarray, matching dtype, C-contiguous)
    and builds its pointer array — on every ``entry(*args)``, and once
    for ``entry.prepare(args)``, whose call holds the pointers and the
    arrays they point into.
    """
    dtypes = [np.dtype(dtype) for dtype in param_dtypes]
    count = len(dtypes)
    array_type = ctypes.c_void_p * count
    ndarray = np.ndarray    # a closure cell: no global and attribute read

    def marshal(args):
        """``(pointers, args)`` of one binding."""
        if len(args) != count:
            raise ToolchainError(
                "kernel %r takes %d buffers, got %d"
                % (name, count, len(args)))
        # Filled in place: ``array_type(*addresses)`` costs three times
        # as much.
        pointers = array_type()
        position = 0    # counted by hand: ``enumerate(zip())`` costs more
        for array in args:
            if not isinstance(array, ndarray):
                raise ToolchainError(
                    "kernel %r argument %d is %r, not an ndarray"
                    % (name, position, type(array).__name__))
            # A builtin dtype is one object: identity settles most.
            dtype = dtypes[position]
            if array.dtype is not dtype and array.dtype != dtype:
                raise ToolchainError(
                    "kernel %r argument %d has dtype %s, compiled for %s"
                    % (name, position, array.dtype, dtype))
            # Exporting a writable buffer needs a C-contiguous array of
            # at least one byte, so success settles the flag checks.
            try:
                pointers[position] = _addressof(_from_buffer(array))
            except (TypeError, ValueError):
                if not array.flags.c_contiguous:
                    raise ToolchainError(
                        "kernel %r argument %d is not C-contiguous"
                        % (name, position)) from None
                pointers[position] = array.ctypes.data  # read-only, empty
            position += 1
        return pointers, tuple(args)

    def invoke(pointers, pinned):
        # ``pinned`` (the arrays) is what a prepared call holds them by.
        # The foreign call releases the GIL (plain ctypes behavior):
        # this is what lets the threads executor scale on C kernels.
        result = cfn(pointers)
        if result < 0:      # op counts are not negative: an error status
            error, message = STATUS_ERRORS[result]
            raise error(message)
        return result

    return runtime.make_entry(invoke, marshal, name)


def kernel_entry(c_source, name, param_dtypes, so_path=None):
    """``(entry callable, so_path)`` for one generated kernel.

    Prefers loading ``so_path`` (a store-persisted shared object) when
    given; any load failure falls through to recompiling from
    ``c_source``, so a stale or foreign ``.so`` costs one compile, not
    a crash.  Raises :class:`ToolchainError` only when the source
    cannot be compiled either (e.g. no toolchain).
    """
    if so_path is not None and os.path.exists(so_path):
        try:
            return (make_entry(load_symbol(so_path, name), name,
                               param_dtypes), so_path)
        except ToolchainError:
            pass
    built = compile_shared(c_source, name=name)
    return (make_entry(load_symbol(built, name), name, param_dtypes),
            built)
