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
  the service's ``/kernels/<digest>`` address, a pack's member name
  and the worker pool's ship-once id.  Both are derived lazily, so a
  memory-tier hit hashes nothing.

The version axes:

* :func:`repro.ir.ops.registry_version` — late-registered ops change
  the runtime namespace kernels ``exec`` against,
* the optimizer-pipeline fingerprint
  (:func:`repro.ir.optimize.pipeline_fingerprint`) plus
  :func:`codegen_fingerprint` over the lowering/emission module graph
  — a compiler change must read as a miss, never as a stale hit, and
* the spec and store layout versions.
"""

import hashlib
import json
import os

from repro.cin.analyze import structural_digest
from repro.ir.ops import registry_version
from repro.ir.optimize import pipeline_fingerprint

#: Bumped when the on-disk entry layout changes incompatibly.
STORE_VERSION = 1

#: Root modules of the code generator: the lowering pipeline entry
#: points, the target IR, and the runtime namespace emitted code
#: executes against.  The fingerprint walks the *import graph* from
#: these roots (:func:`_codegen_modules`), so a new helper module
#: pulled in by the emitter invalidates stored kernels without anyone
#: remembering to list it here.  The optimizer pipeline hashes itself
#: (see :func:`repro.ir.optimize.pipeline_fingerprint`).
_CODEGEN_ROOTS = (
    "repro.compiler.lower",
    "repro.compiler.unfurl",
    "repro.compiler.stmt_simplify",
    "repro.compiler.context",
    "repro.ir.asm",
    "repro.ir.emit",
    "repro.ir.runtime",
    "repro.codegen",
    "repro.codegen.c_emit",
    "repro.codegen.toolchain",
)

_FINGERPRINTS = {}  # roots tuple -> memoized digest


def _module_source(name):
    """The on-disk source bytes of ``name``, or None when the module
    cannot be located or has no file (namespace packages).

    Resolved with ``PathFinder`` directly — unlike
    ``importlib.util.find_spec`` this imports nothing (not even parent
    packages), so fingerprinting never executes backend code.
    """
    from importlib.machinery import PathFinder

    parts = name.split(".")
    path = None
    spec = None
    for depth in range(len(parts)):
        spec = PathFinder.find_spec(".".join(parts[:depth + 1]), path)
        if spec is None:
            return None
        path = spec.submodule_search_locations
    if not spec.origin or not os.path.exists(spec.origin):
        return None
    with open(spec.origin, "rb") as handle:
        return handle.read()


def _imported_modules(source, module, package_prefix):
    """Module names under ``package_prefix`` that ``module`` imports,
    read from its AST (no code is executed)."""
    import ast

    try:
        tree = ast.parse(source)
    except SyntaxError:  # pragma: no cover - unparsable dependency
        return set()
    package = module.rsplit(".", 1)[0] if "." in module else module
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                found.add(alias.name)
        elif isinstance(node, ast.ImportFrom):
            if node.level:  # relative: resolve against this package
                parts = package.split(".")
                if node.level > 1:
                    parts = parts[:-(node.level - 1)]
                base = ".".join(parts)
                if node.module:
                    base = "%s.%s" % (base, node.module)
            else:
                base = node.module or ""
            if base:
                found.add(base)
                # ``from pkg import sub`` may name submodules.
                for alias in node.names:
                    found.add("%s.%s" % (base, alias.name))
    return {name for name in found
            if name == package_prefix
            or name.startswith(package_prefix + ".")}


def _codegen_modules(roots, package_prefix):
    """The transitive import closure of ``roots`` inside the package,
    as ``{module name: source bytes}`` — the actual backend module
    graph, discovered rather than hand-maintained."""
    sources = {}
    queue = list(roots)
    while queue:
        name = queue.pop()
        if name in sources:
            continue
        source = _module_source(name)
        if source is None:
            continue
        sources[name] = source
        queue.extend(_imported_modules(source, name, package_prefix)
                     - sources.keys())
    return sources


def codegen_fingerprint(roots=None, package_prefix=None):
    """A short digest over the code-generation module graph.

    Walks imports transitively from the backend root modules and
    hashes every reachable in-package source file, sorted by module
    name.  Combined with
    :func:`~repro.ir.optimize.pipeline_fingerprint` in every key:
    editing the lowerer, the emitter, *or any module they pull in*
    must turn all previously stored kernels into misses — and so must
    adding a new module to the graph.

    ``roots``/``package_prefix`` exist for tests; only the default
    (production) call is memoized — explicit roots re-scan, so tests
    can observe a changed module graph.
    """
    memoize = roots is None and package_prefix is None
    if roots is None:
        roots = _CODEGEN_ROOTS
    roots = tuple(roots)
    if package_prefix is None:
        package_prefix = roots[0].split(".")[0]
    key = (roots, package_prefix)
    if memoize:
        cached = _FINGERPRINTS.get(key)
        if cached is not None:
            return cached
    digest = hashlib.sha256()
    sources = _codegen_modules(roots, package_prefix)
    for name in sorted(sources):
        digest.update(name.encode("utf-8"))
        digest.update(b"\0")
        digest.update(sources[name])
    fingerprint = digest.hexdigest()[:16]
    if memoize:
        _FINGERPRINTS[key] = fingerprint
    return fingerprint


def version_axes():
    """The version axes of the running code — the fields every
    persisted key (kernel entries, pack manifests, tuning records)
    carries so that a change to the compiler reads as a miss."""
    from repro.compiler.kernel import SPEC_VERSION

    return {
        "store_version": STORE_VERSION,
        "spec_version": SPEC_VERSION,
        "registry_version": registry_version(),
        "pipeline_fingerprint": pipeline_fingerprint(),
        "codegen_fingerprint": codegen_fingerprint(),
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
    fixed emitter reads it as the same entry (the codegen fingerprint,
    which roots the C emitter, decides staleness).
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
    def of_spec(cls, spec, meta=None):
        """The key of a serialized artifact (a ``to_spec`` dict).

        ``meta`` pins the plain-dict form to a key *recorded* next to
        the spec (a pack member, an entry pushed to the service)
        instead of deriving it from the running code's version axes:
        such an entry is filed under the address it arrived with.
        """
        from repro.compiler.kernel import _frozen

        key = cls(_frozen(spec["structural_key"]), spec["instrument"],
                  spec["name"], spec["constant_loop_rewrite"],
                  spec["opt_level"], spec.get("backend", "python"))
        key._meta = meta
        return key

    @property
    def meta(self):
        """The plain-dict form: the six compile axes (the structural
        key as a digest) plus :func:`version_axes`.  Two metas are the
        same entry exactly when their :func:`entry_digest`\\ s match."""
        if self._meta is None:
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
