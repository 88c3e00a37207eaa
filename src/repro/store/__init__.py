"""Persistent kernel storage: the on-disk store and AOT kernel packs.

Two artifacts live here, both built on the serialized kernel spec
(:meth:`repro.compiler.kernel.CompiledKernel.to_spec`):

:class:`KernelStore` (:mod:`repro.store.disk`)
    A content-addressed directory of compiled-kernel specs, layered
    *under* the in-memory LRU cache by ``compile_kernel``: memory miss
    → disk lookup → full compile, with every fresh compile written
    behind.  Safe for many processes to share (atomic writes, advisory
    locking, quarantine-on-corruption, LRU eviction by size budget).

``.flpack`` kernel packs (:mod:`repro.store.pack`)
    A single relocatable zip of specs plus a manifest — the
    ahead-of-time compilation unit.  CI's ``warm-kernels`` job builds
    one from the benchmark figures and the fuzz corpus; downstream
    jobs (and :func:`load_pack` callers) import it so their processes
    start warm and compile nothing.

Configuration routes through the package-wide resolver
(:mod:`repro.util.config`) under the one precedence rule — per-call
kwarg > ``fl.configure`` > ``FL_*`` env > default: ``fl.configure(
store_path=..., store_max_bytes=...)`` owns the knobs, the
``FL_KERNEL_STORE`` environment variable (plus optional
``FL_KERNEL_STORE_MAX_BYTES``) points short-lived processes — batch
workers, CI jobs, serverless handlers — at a shared directory, and
``compile_kernel(store=False|path|KernelStore)`` opts out (or
re-points) per call.

The CLI lives in :mod:`repro.store.__main__`::

    python -m repro.store pack --out kernels.flpack
    python -m repro.store warm --store .fl_store --pack kernels.flpack
    python -m repro.store verify kernels.flpack
    python -m repro.store ls --store .fl_store
    python -m repro.store stats --store .fl_store --min-hit-rate 0.9
"""

import os
from contextlib import contextmanager

from repro.compiler.key import KernelKey, entry_digest
from repro.store.disk import KernelStore
from repro.store.pack import (
    PACK_VERSION,
    load_pack,
    read_pack,
    verify_pack,
    write_pack,
)

#: Per-process memo of the env/config-resolved store instance, keyed
#: by ``(root, max_bytes)`` so repeated ``active_store()`` calls do
#: not re-stat the directory.
_memo = {"key": None, "store": None}


def meta_for_artifact(artifact):
    """The store key (:attr:`KernelKey.meta <repro.compiler.key.
    KernelKey.meta>`) of a live :class:`~repro.compiler.kernel.
    CompiledKernel`."""
    return KernelKey.of(artifact).meta


def active_store():
    """The store ``compile_kernel`` should use right now, or None.

    Resolved through the package precedence rule on every call
    (``fl.configure(store_path=...)`` wins, else ``FL_KERNEL_STORE``
    is consulted — so spawned workers and subprocesses inherit the
    parent's store with no code changes), with the built
    :class:`KernelStore` instance memoized per ``(root, max_bytes)``.
    """
    from repro.util import config

    path = config.resolve("store_path")
    if not path:
        return None
    if isinstance(path, KernelStore):
        return path
    max_bytes = config.resolve("store_max_bytes")
    key = (os.path.abspath(path), max_bytes)
    if _memo["key"] != key:
        _memo["store"] = KernelStore(path, max_bytes=max_bytes)
        _memo["key"] = key
    return _memo["store"]


def resolve_store(value):
    """One compile's disk tier for a ``store=`` argument.

    ``None`` resolves the active store (configure/env layers),
    ``False`` disables the disk tier for the call, a
    :class:`KernelStore` is used as-is, and a path string opens (or
    creates) that directory.
    """
    if value is None:
        return active_store()
    if value is False:
        return None
    if isinstance(value, KernelStore):
        return value
    return KernelStore(value)


@contextmanager
def using_store(store):
    """Temporarily make ``store`` (a path, store, or None) active.

    The benchmark harness and the tests use this to point one compile
    at one store without leaking process-global state.
    """
    from repro.util import config

    names = ("store_path", "store_max_bytes")
    previous = config.snapshot(names)
    try:
        config.restore(dict(store_path=store, store_max_bytes=None),
                       names)
        yield active_store()
    finally:
        config.restore(previous, names)


__all__ = [
    "KernelStore", "PACK_VERSION", "active_store", "entry_digest",
    "load_pack", "meta_for_artifact", "read_pack", "resolve_store",
    "using_store", "verify_pack", "write_pack",
]
