"""One front door for runtime configuration: resolve every knob once.

The runtime surface has three kinds of configuration — per-call
kwargs (``backend=``, ``opt_level=``, ...), the one programmatic
entry point (``fl.configure``), and ``FL_*`` environment variables —
under a single documented precedence rule, applied by one resolver
that every ``os.environ`` read in the package routes through:

    per-call kwarg  >  ``fl.configure(...)``  >  ``FL_*`` env  >  default

:func:`configure` records process-wide overrides (``fl.configure`` is
this function re-exported); :func:`resolve` applies the precedence for
one option, taking the per-call kwarg as its ``override`` argument;
:func:`runtime_config` snapshots the effective value — and the layer
it came from — for every registered option.

The registered options:

====================  ==========================  =======================
option                environment variable        owns
====================  ==========================  =======================
``store_path``        ``FL_KERNEL_STORE``         kernel-store directory
                                                  (or a ``KernelStore``,
                                                  or None = disabled)
``store_max_bytes``   ``FL_KERNEL_STORE_MAX_BYTES``  store size budget
``backend``           ``FL_KERNEL_BACKEND``       ``python`` / ``c``
``opt_level``         ``FL_KERNEL_OPT_LEVEL``     optimizer level 0/1/2
``tune``              ``FL_KERNEL_TUNE``          ``off`` / ``apply``
``service_url``       ``FL_SERVICE_URL``          remote kernel service
``service_timeout_s``  ``FL_SERVICE_TIMEOUT_S``   per-request timeout
``service_retries``   ``FL_SERVICE_RETRIES``      request retry budget
``pool_max_workers``  ``FL_POOL_MAX_WORKERS``     worker-pool width
``pool_start_method``  ``FL_POOL_START_METHOD``   fork/spawn/forkserver
``cc``                ``FL_CC``                   C compiler (a name on
                                                  ``PATH`` or a path)
====================  ==========================  =======================

One exception applies *within* the rule: the autotuner winners table
slots between the kwarg and ``configure`` layers for
``opt_level``/``backend`` (a measured decision outranks a static one;
see :func:`repro.compiler.kernel.compile_kernel`).

Environment values are re-read on every :func:`resolve` call (an
empty string reads as unset, matching the historical behavior of
every ``FL_*`` variable), so spawned workers and subprocesses inherit
configuration with no code changes.
"""

import os
import threading

__all__ = [
    "BACKENDS", "OPTIONS", "OPT_LEVELS", "TUNE_MODES", "UNSET", "clear",
    "configure", "option_names", "resolve", "restore", "runtime_config",
    "snapshot", "source",
]

#: Backend names ``compile_kernel`` accepts: ``"python"`` ``exec``s
#: emitted Python source, ``"c"`` compiles the same optimized target IR
#: to a per-kernel shared object (falling back to python per kernel
#: for constructs the C emitter does not cover, or when no C compiler
#: is installed — see :mod:`repro.codegen`).
BACKENDS = ("python", "c")

#: The values the ``tune`` option accepts: ``"off"`` compiles the
#: program exactly as written, ``"apply"`` consults the persisted
#: autotuner winners table (:mod:`repro.tune`) and compiles the
#: winning schedule when one is on record.
TUNE_MODES = ("off", "apply")

#: The optimizer levels (:mod:`repro.ir.optimize`): 0 emits the
#: lowered code, 1 adds the scalar passes, 2 dense-loop vectorization.
OPT_LEVELS = (0, 1, 2)


def _int_or_text(text):
    """``text`` as an int when it spells one, else unchanged (so the
    choices check names the levels instead of ``int()`` failing)."""
    try:
        return int(text)
    except ValueError:
        return text


class _Unset:
    """Sentinel: pass ``UNSET`` to :func:`configure` to drop an
    override (distinct from ``None``, which *is* a value — e.g. an
    explicitly disabled store)."""

    __slots__ = ()

    def __repr__(self):
        return "UNSET"


UNSET = _Unset()


class Option:
    """One registered configuration knob: its env var, how to parse
    the env text, its default, and (optionally) the values it
    accepts."""

    __slots__ = ("name", "env", "parse", "default", "choices", "doc")

    def __init__(self, name, env, parse, default, choices=None,
                 doc=""):
        self.name = name
        self.env = env
        self.parse = parse
        self.default = default
        self.choices = choices
        self.doc = doc

    def validate(self, value):
        """``value`` checked (and string-coerced) for this option.

        A value of an option with ``choices`` must equal one of them
        *and* have their type: ``True`` is not the level 1, nor ``2.0``
        the level 2."""
        if isinstance(value, str) and self.parse is not str:
            value = self.parse(value)
        if (self.choices is not None and value is not None
                and (value not in self.choices
                     or type(value) is not type(self.choices[0]))):
            raise ValueError(
                "%s must be one of %s; got %r"
                % (self.name, "/".join(map(str, self.choices)), value))
        return value


OPTIONS = {
    option.name: option
    for option in (
        Option("store_path", "FL_KERNEL_STORE", str, None,
               doc="kernel-store directory (a path, a KernelStore, "
                   "or None to disable the disk tier)"),
        Option("store_max_bytes", "FL_KERNEL_STORE_MAX_BYTES", int,
               None, doc="store size budget in bytes (LRU eviction)"),
        Option("backend", "FL_KERNEL_BACKEND", str, "python",
               choices=BACKENDS,
               doc="kernel execution backend"),
        Option("opt_level", "FL_KERNEL_OPT_LEVEL", _int_or_text, None,
               choices=OPT_LEVELS,
               doc="optimizer level (None = the compiler default)"),
        Option("tune", "FL_KERNEL_TUNE", str, "off",
               choices=TUNE_MODES,
               doc="autotuner winners-table mode"),
        Option("service_url", "FL_SERVICE_URL", str, None,
               doc="base URL of the remote kernel service "
                   "(None = no remote tier)"),
        Option("service_timeout_s", "FL_SERVICE_TIMEOUT_S", float,
               2.0, doc="per-request timeout against the service"),
        Option("service_retries", "FL_SERVICE_RETRIES", int, 1,
               doc="extra attempts per service request"),
        Option("pool_max_workers", "FL_POOL_MAX_WORKERS", int, None,
               doc="worker-pool width (None = CPU count)"),
        Option("pool_start_method", "FL_POOL_START_METHOD", str,
               None, doc="multiprocessing start method"),
        Option("cc", "FL_CC", str, None,
               doc="C compiler of the C backend (None = probe "
                   "cc/gcc/clang on PATH)"),
    )
}

_lock = threading.RLock()
_overrides = {}


def option_names():
    """The registered option names, sorted."""
    return sorted(OPTIONS)


def _unknown(names):
    return ValueError(
        "unknown configuration option(s) %s (have: %s)"
        % (", ".join(sorted(names)), ", ".join(option_names())))


def configure(**kwargs):
    """Set process-wide configuration overrides; returns the
    effective configuration (:func:`runtime_config`).

    Accepts any registered option by name (``fl.configure(
    backend="c", store_path=".fl_store", service_url="http://...")``).
    An override sits *above* the ``FL_*`` environment and *below*
    per-call kwargs in the precedence order.  Passing ``None`` is an
    explicit value (e.g. ``store_path=None`` disables the disk tier
    even when ``FL_KERNEL_STORE`` is set); pass :data:`UNSET` to drop
    an override and fall back to the environment.

    Pool-shape options take effect immediately when the process-wide
    default pool is already running (it is closed and respawned with
    the new shape), and lazily otherwise.
    """
    unknown = set(kwargs) - set(OPTIONS)
    if unknown:
        raise _unknown(unknown)
    touched_pool = False
    with _lock:
        for name, value in kwargs.items():
            if value is UNSET:
                _overrides.pop(name, None)
            else:
                _overrides[name] = OPTIONS[name].validate(value)
            touched_pool = touched_pool or name.startswith("pool_")
    if touched_pool:
        # Imported lazily: the pool reads this module, so a top-level
        # import would be circular.
        from repro.exec import pool as _pool

        _pool.rebuild_default_if_open()
    return runtime_config()


def clear(*names):
    """Drop the named overrides (all of them when called bare),
    restoring environment-driven behavior for those options."""
    unknown = set(names) - set(OPTIONS)
    if unknown:
        raise _unknown(unknown)
    with _lock:
        if not names:
            _overrides.clear()
        for name in names:
            _overrides.pop(name, None)


def snapshot(names=None):
    """The current overrides for ``names`` (default: all), as a dict
    holding only the options that actually have one — the shape
    :func:`restore` takes back."""
    with _lock:
        if names is None:
            return dict(_overrides)
        return {name: _overrides[name] for name in names
                if name in _overrides}


def restore(previous, names=None):
    """Reinstate a :func:`snapshot`: the named overrides (default:
    all) are cleared, then ``previous`` is installed verbatim."""
    with _lock:
        for name in (OPTIONS if names is None else names):
            _overrides.pop(name, None)
        _overrides.update(previous)


def _env_value(option):
    """The parsed environment value for ``option``, or None when the
    variable is unset or empty (the historical ``FL_*`` contract)."""
    raw = os.environ.get(option.env)
    if not raw:
        return None
    return option.validate(option.parse(raw))


def resolve(name, override=None):
    """The effective value of option ``name`` under the precedence
    rule.  ``override`` is the per-call kwarg: any non-None value wins
    outright; ``None`` falls through to ``configure`` overrides, then
    the environment, then the default."""
    option = OPTIONS.get(name)
    if option is None:
        raise _unknown({name})
    if override is not None:
        return option.validate(override)
    with _lock:
        if name in _overrides:
            return _overrides[name]
    value = _env_value(option)
    return option.default if value is None else value


def source(name):
    """Which precedence layer currently decides option ``name``:
    ``"configure"``, ``"env"``, or ``"default"`` (per-call kwargs are
    by definition not visible here)."""
    option = OPTIONS.get(name)
    if option is None:
        raise _unknown({name})
    with _lock:
        if name in _overrides:
            return "configure"
    return "default" if _env_value(option) is None else "env"


def runtime_config(detailed=False):
    """The effective configuration, every option resolved.

    Plain ``{name: value}`` by default; with ``detailed=True`` each
    value becomes ``{"value", "source", "env"}`` so the precedence
    table is inspectable (``fl.runtime_config(detailed=True)``), where
    ``source`` names the deciding layer and ``env`` the variable the
    option listens to.
    """
    if not detailed:
        return {name: resolve(name) for name in sorted(OPTIONS)}
    return {
        name: {
            "value": resolve(name),
            "source": source(name),
            "env": OPTIONS[name].env,
        }
        for name in sorted(OPTIONS)
    }
