"""The one identity of a compiled kernel.

A looplet kernel is specialized to a program *structure* — tree shape,
per-tensor format, access protocol — never to data, so "which kernel
is this?" has exactly one answer.  :class:`KernelKey` is that answer
in the two forms the cache tiers need:

* :attr:`KernelKey.memory` — a hashable tuple of the six compile axes
  (structural key, instrument, name, constant_loop_rewrite, opt_level,
  requested backend), the in-process :class:`~repro.compiler.kernel.
  KernelCache` key; and
* :attr:`KernelKey.meta` / :attr:`KernelKey.digest` — the plain-dict
  form carrying :func:`version_axes` (everything that decides whether
  a kernel compiled by *other* code is still the kernel this code
  would compile), and its content digest: the store's entry filename,
  the service's ``/kernels/<digest>`` address and the worker pool's
  ship-once id.  Both are derived lazily, so a
  memory-tier hit hashes nothing, and a process that never derives
  them (the kernel service) never loads the CIN or the IR.

The version axes:

* :func:`repro.ir.ops.registry_version` — late-registered ops change
  the runtime namespace kernels ``exec`` against,
* :func:`code_fingerprint` over the package's source tree — a
  compiler change must read as a miss, never as a stale hit, and
* the spec and store layout versions.
"""

import functools
import hashlib
import json
import os

import repro

#: Bumped when the on-disk entry layout changes incompatibly.
STORE_VERSION = 1

#: Version tag of the serialized-artifact format (see
#: :meth:`~repro.compiler.kernel.CompiledKernel.to_spec`); bumped
#: whenever the spec layout changes incompatibly.
#: Version 2 added ``constant_loop_rewrite``: the flag changes what
#: lowering emits, so any consumer keying artifacts by spec content
#: (the on-disk kernel store) needs it carried in the spec itself.
#: Version 3 added the backend axis: ``backend`` (the requested
#: backend), ``c_source`` (the generated C translation unit, or None
#: when the C emitter fell back), and ``c_param_dtypes`` (per-parameter
#: numpy dtype names the C entry validates bindings against).  Specs
#: stay JSON-safe: the shared object itself never rides in a spec —
#: receivers recompile from the carried C source (or load the store's
#: ``.so`` sibling when one is present).
#: Version 4 dropped the source as lowered, which is the ``source`` of
#: the same program compiled at ``opt_level=0``.
#: Version 5 added ``views``, the parameters the python entry hands the
#: kernel as element views (the source no longer takes them itself).
#: Version 6 names a buffer in ``plan`` and ``alias_groups`` by its
#: position in the slot's ``kernel_pins()`` read, not by its role, and
#: added ``widths``, each slot's read length.
SPEC_VERSION = 6


@functools.lru_cache(maxsize=None)
def code_fingerprint():
    """A short digest of the code that compiles kernels: every
    ``*.py`` under the installed ``repro`` package, as sorted
    ``(relative path, bytes)``.

    The code generator is not one module — each level format's
    ``unfurl`` and each index modifier emits loops the lowerer only
    assembles, and the lowerer reaches them through tensors, not
    imports — so the sound answer to "which code produced this
    kernel?" is the source tree; living in the package is what puts a
    module in the key.  Any edit turns every persisted kernel into a
    miss, never a stale hit: a released install's files
    never change, and CI warms its store per run.
    A source-less install falls back to the package version string.
    Computed once per process.
    """
    root = os.path.dirname(os.path.abspath(repro.__file__))
    paths = sorted(
        os.path.relpath(os.path.join(directory, name), root)
        for directory, _, names in os.walk(root)
        for name in names if name.endswith(".py"))
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.replace(os.sep, "/").encode("utf-8"))
        digest.update(b"\0")
        with open(os.path.join(root, path), "rb") as handle:
            digest.update(handle.read())
    if not paths:
        digest.update(repro.__version__.encode("utf-8"))
    return digest.hexdigest()[:16]


def version_axes():
    """The version axes of the running code — the fields every
    persisted kernel key carries so that a change to the compiler
    reads as a miss."""
    from repro.ir.ops import registry_version

    return {
        "store_version": STORE_VERSION,
        "spec_version": SPEC_VERSION,
        "registry_version": registry_version(),
        "code_fingerprint": code_fingerprint(),
    }


def is_current(meta):
    """True when ``meta`` (a recorded key) was built under the running
    code's :func:`version_axes`; anything else is stale — never
    served, only skipped."""
    return all(meta.get(axis) == value
               for axis, value in version_axes().items())


def entry_digest(meta):
    """The content digest (and filename stem) of one plain-dict key."""
    payload = json.dumps(meta, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:40]


class KernelKey:
    """The identity of one compile configuration; see the module
    docstring.

    ``backend`` is the *requested* backend: a C-requested kernel that
    fell back to python still occupies the ``"c"`` slot in every tier,
    so flipping the backend can never serve a stale artifact from the
    other axis, and a later process with a working toolchain or a
    fixed emitter reads it as the same entry (the code fingerprint
    decides staleness).
    """

    __slots__ = ("memory", "_meta", "_digest")

    def __init__(self, structural_key, instrument, name,
                 constant_loop_rewrite, opt_level, backend):
        self.memory = (structural_key, bool(instrument), name,
                       bool(constant_loop_rewrite), int(opt_level),
                       str(backend))
        self._meta = None
        self._digest = None

    @classmethod
    def of(cls, artifact):
        """The key of a live :class:`~repro.compiler.kernel.
        CompiledKernel`."""
        return cls(artifact.structural_key, artifact.instrument,
                   artifact.name, artifact.constant_loop_rewrite,
                   artifact.opt_level, artifact.backend)

    @classmethod
    def of_spec(cls, spec):
        """The key of a serialized artifact (a ``to_spec`` dict)."""
        from repro.compiler.kernel import _frozen

        return cls(_frozen(spec["structural_key"]), spec["instrument"],
                   spec["name"], spec["constant_loop_rewrite"],
                   spec["opt_level"], spec["backend"])

    @property
    def meta(self):
        """The plain-dict form: the six compile axes (the structural
        key as a digest) plus :func:`version_axes`.  Two metas are the
        same entry exactly when their :func:`entry_digest`\\ s match."""
        if self._meta is None:
            from repro.cin.analyze import structural_digest

            skey, instrument, name, rewrite, opt_level, backend = \
                self.memory
            self._meta = dict(
                version_axes(),
                structural_digest=structural_digest(skey, length=40),
                instrument=instrument, name=str(name),
                constant_loop_rewrite=rewrite, opt_level=opt_level,
                backend=backend)
        return self._meta

    @property
    def digest(self):
        """:func:`entry_digest` of :attr:`meta`."""
        if self._digest is None:
            self._digest = entry_digest(self.meta)
        return self._digest
