"""One read-through over the cache tiers, one way back from a spec.

Every consumer that turns a :class:`~repro.compiler.key.KernelKey`
into a live artifact — ``compile_kernel``, the pool worker, the pack
loader, the service's compile queue — goes through the three pieces
here, so tier order, promotion and write-behind exist exactly once
(``docs/ARCHITECTURE.md`` §7 draws the shared picture)::

    read_through(key, build):  memory ─► disk ─► remote ─► build()
    put(key, ...):             promote into the tiers above the one
                               that served; write a build behind
                               into all of them

* :func:`read_through` walks the tiers, calls ``build()`` on a full
  miss, and hands whatever it found to :func:`put`;
* :func:`put` files one artifact (and/or its spec) into the tiers it
  is given — the promote-upward / write-behind half;
* :func:`rebuild` is the only way from a serialized spec back to an
  artifact: an artifact, or None for a spec that does not rebuild.

The tiers are named, not abstracted: the in-process
:class:`~repro.compiler.kernel.KernelCache`, the on-disk
:class:`~repro.store.disk.KernelStore`, and the fleet service's
:class:`~repro.service.client.ServiceClient`.
"""

import logging

from repro.util.errors import SpecError

_log = logging.getLogger("repro.compiler")


def rebuild(spec, so=None, code=None):
    """The artifact ``spec`` rebuilds to, or None when it does not
    (malformed, wrong spec version, source that no longer ``exec``\\ s)
    — each tier reads that as a miss.

    ``so`` is the kernel's prebuilt shared object: a path (the store's
    ``.so`` sidecar) or the raw bytes a service fetch carried, which
    are parked in the toolchain's per-process scratch directory so the
    artifact's ``so_path`` names a real file for the life of the
    process.  ``code`` is the store's verified code object of the
    spec's python source.  Each is an optimization — a C spec
    recompiles from its carried source when its ``.so`` is missing or
    does not load, a python one compiles its source.
    """
    from repro.compiler.kernel import CompiledKernel

    try:
        if isinstance(so, bytes):
            from repro.codegen import toolchain

            so = (toolchain.adopt_shared(spec["c_source"],
                                         spec["name"], so)
                  if spec.get("c_source") else None)
        return CompiledKernel.from_spec(spec, so_path=so, code=code)
    except Exception as exc:
        _log.warning("kernel spec does not rebuild (%s: %s)",
                     type(exc).__name__, exc)
        return None


def portable_spec(artifact):
    """``artifact.to_spec()``, or None for a kernel that cannot leave
    the process (:class:`SpecError`: identity-pinned signatures,
    out-of-protocol buffers) — such a kernel is simply not persisted;
    the tiers are caches, not registries."""
    try:
        return artifact.to_spec()
    except SpecError:
        return None


def put(key, artifact=None, spec=None, memory=None, store=None,
        client=None):
    """File one kernel under ``key`` into the given tiers.

    ``artifact`` goes to ``memory``; its spec (``spec`` when the
    caller already holds it, else serialized here, once) goes to
    ``store`` — with the artifact's shared object or code object as
    the sidecars — and to ``client`` (the service's async compile
    queue).  A bulk importer filing specs it never rebuilt passes
    ``spec`` alone.
    """
    if memory is not None:
        memory.store(key.memory, artifact)
    if store is None and client is None:
        return
    if spec is None:
        spec = portable_spec(artifact)
        if spec is None:
            return
    if store is not None:
        if artifact is None:
            store.save_spec(key.meta, spec)
        else:
            store.save_spec(key.meta, spec, so_path=artifact.so_path,
                            code=artifact.code)
    if client is not None:
        client.push(key.meta, spec)


def read_through(key, build, memory=None, store=None, remote=None,
                 push=True):
    """``(artifact, tier)`` for ``key``: the first tier that holds it,
    else ``build()``.

    ``tier`` names who served: ``"memory"``, ``"disk"``, ``"remote"``,
    or None for a fresh build.  A disk or remote hit is promoted into
    every tier above it; a build is written behind into all of them
    (``push=False`` keeps it off the remote tier — pool workers leave
    the push to their parent, so a thousand of them never stampede the
    service with one entry).

    ``memory`` is a :class:`~repro.compiler.kernel.KernelCache` or
    None.  ``store`` and ``remote`` take ``compile_kernel``'s per-call
    values — None resolves the configured tier, False disables it, a
    ``KernelStore``/path or base URL names one — and are resolved only
    after a memory miss, so a memory hit touches nothing else.  A
    broken lower tier degrades to a miss inside the tier itself
    (quarantine, warn-once cooldown); nothing here can fail a compile
    that ``build()`` can serve.
    """
    if memory is not None:
        artifact = memory.lookup(key.memory)
        if artifact is not None:
            return artifact, "memory"
    artifact = spec = tier = disk = client = None
    if store is not False:
        # Imported lazily: the store and the service client rebuild
        # artifacts through this module.
        from repro.store import resolve_store

        disk = resolve_store(store)
        if disk is not None:
            artifact = disk.load_artifact(key.meta)
            if artifact is not None:
                tier = "disk"
    if artifact is None and remote is not False:
        from repro.service.client import active_client

        client = active_client(remote)
        fetched = client.fetch(key.meta) if client is not None else None
        if fetched is not None:
            artifact = rebuild(fetched[0], so=fetched[1])
            if artifact is not None:
                spec, tier = fetched[0], "remote"
    if artifact is None:
        artifact = build()
    put(key, artifact, spec=spec, memory=memory,
        store=None if tier == "disk" else disk,
        client=client if tier is None and push else None)
    return artifact, tier
