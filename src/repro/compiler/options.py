"""The frozen compile-options bundle: one object for the kwarg sprawl.

``compile_kernel``/``execute``/``run_batch`` historically grew four
parallel keyword arguments (``cache=``, ``opt_level=``, ``backend=``,
``tune=``) plus the remote-service axis; :class:`CompileOptions`
collapses them into one immutable value that can be built once and
threaded everywhere (``options=``) — the batch engine, the workers,
and the autotuner all pass the same object instead of re-plumbing each
knob individually.  The individual kwargs survive as sugar: any
non-None kwarg overrides the corresponding field of the ``options=``
object it rides along with, preserving the package-wide precedence
rule (per-call kwarg > ``fl.configure`` > ``FL_*`` env > default —
see :mod:`repro.util.config`).

Every field defaults to None, meaning *unresolved*: resolution —
against the configure/env layers — happens inside ``compile_kernel``,
so one ``CompileOptions`` value stays environment-independent and can
be shared between processes with different configuration.
"""

from dataclasses import dataclass, fields, replace

from repro.util.config import BACKENDS, TUNE_MODES

__all__ = ["BACKENDS", "CACHE_MODES", "TUNE_MODES", "CompileOptions"]

#: The values the ``cache`` option accepts: ``True`` uses every
#: configured tier (memory LRU, then the on-disk store, then the
#: remote kernel service), ``"memory"``/``"disk"`` restrict to one
#: local tier, ``False`` always compiles fresh and touches no cache.
CACHE_MODES = (True, False, "memory", "disk")


@dataclass(frozen=True)
class CompileOptions:
    """One compile configuration, immutable and hashable.

    Fields left at None are *unresolved* and fall through to the
    ``fl.configure``/``FL_*``-environment layers when the compile
    actually runs:

    ``cache``
        One of :data:`CACHE_MODES` (None resolves to ``True``).
    ``opt_level``
        Optimizer level 0/1/2 (None resolves to ``FL_KERNEL_OPT_LEVEL``,
        then the compiler default).
    ``backend``
        One of :data:`BACKENDS` (None resolves to ``FL_KERNEL_BACKEND``,
        then ``"python"``).
    ``tune``
        One of :data:`TUNE_MODES` (None resolves to ``FL_KERNEL_TUNE``,
        then ``"off"``).
    ``remote``
        Base URL of the remote kernel service read-through tier (None
        resolves to ``FL_SERVICE_URL``; ``False`` disables the remote
        tier for this compile even when one is configured).
    ``store``
        The disk tier for this compile: a ``KernelStore``, a directory
        path, ``False`` to disable the disk tier, or None to resolve
        the active store (``fl.configure(store_path=...)`` /
        ``FL_KERNEL_STORE``).

    Build one directly, or let the sugar kwargs build it for you —
    ``compile_kernel(p, backend="c")`` and ``compile_kernel(p,
    options=CompileOptions(backend="c"))`` are the same call.  A sugar
    kwarg passed *alongside* ``options=`` overrides that one field
    (:meth:`merged`).
    """

    cache: object = None
    opt_level: object = None
    backend: object = None
    tune: object = None
    remote: object = None
    store: object = None

    def __post_init__(self):
        if self.cache is not None and not any(
                self.cache is mode for mode in CACHE_MODES):
            # Identity comparison: `1 in (True, ...)` would pass by
            # equality and then silently disable every tier below.
            raise ValueError(
                "cache must be True, False, 'memory', or 'disk'; "
                "got %r" % (self.cache,))
        if self.backend is not None and self.backend not in BACKENDS:
            raise ValueError(
                "backend must be one of %s; got %r"
                % ("/".join(BACKENDS), self.backend))
        if self.tune is not None and self.tune not in TUNE_MODES:
            raise ValueError(
                "tune must be one of %s; got %r"
                % ("/".join(TUNE_MODES), self.tune))
        if self.opt_level is not None:
            object.__setattr__(self, "opt_level", int(self.opt_level))

    def merged(self, **overrides):
        """A new options value with the non-None ``overrides`` fields
        replaced — how per-call sugar kwargs win over an ``options=``
        object without mutating it.  ``False`` is a real value
        (``cache=False``, ``remote=False``) and overrides; only None
        means "keep mine"."""
        updates = {key: value for key, value in overrides.items()
                   if value is not None}
        return replace(self, **updates) if updates else self

    @classmethod
    def build(cls, options=None, **sugar):
        """The effective options for one call: ``options=`` (or a
        fresh default) with the sugar kwargs merged over it."""
        if options is None:
            options = cls()
        elif not isinstance(options, cls):
            raise TypeError(
                "options must be a CompileOptions, got %r"
                % type(options).__name__)
        return options.merged(**sugar)

    def to_dict(self):
        """The options as a plain dict (JSON-safe for the str/int/bool
        fields; ``store`` may hold a live ``KernelStore``)."""
        return {field.name: getattr(self, field.name)
                for field in fields(self)}
