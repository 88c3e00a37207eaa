"""AOT kernel packs: a relocatable ``.flpack`` of compiled specs.

A pack is a zip with one ``manifest.json`` plus one
``specs/<digest>.json`` per kernel, where ``<digest>`` is the
kernel's :attr:`KernelKey.digest <repro.compiler.key.KernelKey.
digest>` — the same addressing a :class:`~repro.store.disk.
KernelStore` uses, so importing a pack into a store is a rename-free
copy.  The manifest records the version axes the pack was built under
(:func:`repro.compiler.key.version_axes`); :func:`load_pack` skips
entries whose axes no longer match instead of serving stale kernels.

Packs are built from the two kernel populations CI exercises on every
run: the six figure kernels (via
:func:`repro.bench.figures.warm_start_programs`) and the fuzz corpus
plus a deterministic fuzz campaign (the same seeds the ``fuzz-smoke``
job replays).  A ``warm-kernels`` CI job compiles everything once into
a pack, uploads it, and every downstream job warms its store from the
artifact — so the expensive specialize-and-optimize work happens in
exactly one place per pipeline.
"""

import json
import os
import zipfile

from repro.compiler.key import (
    KernelKey,
    entry_digest,
    is_current,
    version_axes,
)
from repro.compiler.tiers import portable_spec, put, rebuild

#: Bumped when the pack layout changes incompatibly.
PACK_VERSION = 1


class PackError(ValueError):
    """A ``.flpack`` could not be read, verified, or loaded."""


def write_pack(path, entries, note="", base=None):
    """Write ``entries`` as one ``.flpack``; returns a summary dict.

    Each entry is a dict with ``key`` (store key meta), ``spec`` (the
    serialized artifact) and optional ``figure``/``label`` provenance.
    Entries are deduplicated by content digest, so a builder may name
    one kernel twice.

    ``base`` (a ``.flpack`` path) turns the output into a *diff pack*:
    entries whose content digest already lives in the base are not
    written again — only new or changed kernels carry bytes.  Because
    digests are content-addressed, a changed kernel simply hashes to a
    new digest and is included; an unchanged one is listed in the
    manifest's ``base_digests`` so :func:`verify_pack` and
    :func:`load_pack` can resolve the full set against the base layer.
    This keeps the artifacts a long-lived kernel service republishes
    flat: day-to-day packs ship only the delta.
    """
    base_digests = set()
    if base is not None:
        base_manifest, _ = read_pack(base)
        base_digests = {listed["digest"]
                        for listed in base_manifest.get("entries", [])}
        base_digests.update(base_manifest.get("base_digests", []))
    manifest_entries = []
    by_digest = {}
    deferred = []
    for entry in entries:
        digest = entry_digest(entry["key"])
        if digest in by_digest or digest in deferred:
            continue
        if digest in base_digests:
            deferred.append(digest)
            continue
        by_digest[digest] = entry
        manifest_entries.append({
            "digest": digest,
            "figure": entry.get("figure", ""),
            "label": entry.get("label", ""),
            "name": entry["spec"]["name"],
            "opt_level": entry["spec"]["opt_level"],
            "instrument": entry["spec"]["instrument"],
            "structural_digest": entry["key"]["structural_digest"],
        })
    manifest = version_axes()
    manifest.update({
        "pack_version": PACK_VERSION,
        "note": note,
        "count": len(manifest_entries),
        "entries": manifest_entries,
        "base": os.path.basename(base) if base else "",
        "base_digests": sorted(deferred),
    })
    with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as archive:
        archive.writestr("manifest.json",
                         json.dumps(manifest, indent=2, sort_keys=True))
        for digest, entry in sorted(by_digest.items()):
            archive.writestr(
                "specs/%s.json" % digest,
                json.dumps({"key": entry["key"], "spec": entry["spec"],
                            "figure": entry.get("figure", ""),
                            "label": entry.get("label", "")},
                           sort_keys=True, separators=(",", ":")))
    return {"path": path, "count": len(manifest_entries),
            "deferred": len(deferred)}


def read_pack(path):
    """``(manifest, entries)`` of one pack, digests verified.

    Raises :class:`PackError` when the manifest is unreadable, an
    entry named by the manifest is missing, or an entry's recorded key
    no longer hashes to its digest (bit rot or tampering).
    """
    try:
        with zipfile.ZipFile(path) as archive:
            try:
                manifest = json.loads(archive.read("manifest.json"))
            except (KeyError, ValueError) as exc:
                raise PackError("unreadable pack manifest in %s: %s"
                                % (path, exc))
            if manifest.get("pack_version") != PACK_VERSION:
                raise PackError(
                    "pack %s has pack_version %r (expected %d)"
                    % (path, manifest.get("pack_version"),
                       PACK_VERSION))
            entries = []
            for listed in manifest.get("entries", []):
                digest = listed["digest"]
                try:
                    payload = json.loads(
                        archive.read("specs/%s.json" % digest))
                except (KeyError, ValueError) as exc:
                    raise PackError(
                        "pack %s entry %s unreadable: %s"
                        % (path, digest, exc))
                if entry_digest(payload["key"]) != digest:
                    raise PackError(
                        "pack %s entry %s fails its digest check"
                        % (path, digest))
                payload["digest"] = digest
                entries.append(payload)
    except zipfile.BadZipFile as exc:
        raise PackError("%s is not a pack: %s" % (path, exc))
    return manifest, entries


def verify_pack(path, base=None):
    """Deep-verify one pack; returns a report dict.

    Beyond :func:`read_pack`'s digest checks, every spec is actually
    rebuilt (:func:`repro.compiler.tiers.rebuild` re-``exec``\\ s the
    carried source), and entries built under different version axes
    than the running code are listed as ``stale``.

    Layered packs (built with ``write_pack(..., base=...)``) list the
    digests they expect their base layer to carry.  Passing ``base``
    resolves them: every listed digest must actually exist in the base
    pack or the report fails.  Without ``base``, the deferred digests
    are reported as ``unresolved`` — informational, not a failure, so
    a diff pack still self-verifies.
    """
    manifest, entries = read_pack(path)
    stale = []
    errors = []
    for entry in entries:
        if not is_current(entry["key"]):
            stale.append(entry["digest"])
        elif rebuild(entry["spec"]) is None:
            errors.append("%s: spec does not rebuild"
                          % entry["digest"])
    rebuilt = len(entries) - len(stale) - len(errors)
    deferred = list(manifest.get("base_digests", []))
    unresolved = list(deferred)
    if base is not None and deferred:
        base_manifest, _ = read_pack(base)
        have = {listed["digest"]
                for listed in base_manifest.get("entries", [])}
        have.update(base_manifest.get("base_digests", []))
        unresolved = [digest for digest in deferred
                      if digest not in have]
        for digest in unresolved:
            errors.append("%s: listed in base_digests but missing "
                          "from base pack %s" % (digest, base))
    return {
        "path": path,
        "count": len(entries),
        "rebuilt": rebuilt,
        "stale": stale,
        "base": base,
        "deferred": len(deferred),
        "unresolved": unresolved,
        "errors": errors,
        "ok": not errors,
    }


def load_pack(path, store=None, memory=True, base=None):
    """Import a pack's kernels into the process's cache tiers.

    ``store`` is a :class:`~repro.store.disk.KernelStore` (default:
    the active store, when one is configured) — every current-version
    entry is written into it.  With ``memory=True`` (the default) each
    entry is also rebuilt and promoted straight into the in-memory
    :class:`~repro.compiler.kernel.KernelCache`, so even the first
    compile of this very process is a hit; bulk importers (the CLI's
    ``warm``) pass ``memory=False`` to avoid churning the LRU.  Entries whose version axes
    (spec layout, op registry, optimizer/codegen fingerprints) differ
    from the running code are skipped as stale, never served.

    For a diff pack, ``base`` names the base layer: it is loaded
    first, then the diff layers its new/changed entries on top — one
    call imports the full set.

    Returns a summary dict: ``loaded`` / ``stale`` / ``errors``.
    """
    from repro.compiler.kernel import KERNEL_CACHE
    from repro.store import active_store

    if store is None:
        store = active_store()
    if base is not None:
        base_summary = load_pack(base, store=store, memory=memory)
    else:
        base_summary = {"loaded": 0, "stale": 0, "errors": 0}
    _, entries = read_pack(path)
    loaded = stale = errors = 0
    for entry in entries:
        if not is_current(entry["key"]):
            stale += 1
            continue
        artifact = rebuild(entry["spec"]) if memory else None
        if memory and artifact is None:
            errors += 1
            continue
        put(KernelKey.of_spec(entry["spec"], meta=entry["key"]),
            artifact, spec=entry["spec"],
            memory=KERNEL_CACHE if memory else None, store=store)
        loaded += 1
    return {"path": path,
            "loaded": loaded + base_summary["loaded"],
            "stale": stale + base_summary["stale"],
            "errors": errors + base_summary["errors"],
            "store": getattr(store, "root", None),
            "memory": bool(memory)}


# -------------------------------------------------------------------------
# Pack building: the kernel populations CI warms ahead of time.
# -------------------------------------------------------------------------
def _pack(entries, kernel, figure, label):
    """Append the pack entry of a freshly compiled kernel — unless it
    cannot be serialized (identity-pinned data)."""
    spec = portable_spec(kernel.artifact)
    if spec is not None:
        entries.append({"key": KernelKey.of(kernel.artifact).meta,
                        "spec": spec, "figure": figure,
                        "label": label})


def figure_entries(log=None):
    """Compile the six figure kernels; returns pack entries.

    The programs come from
    :func:`repro.bench.figures.warm_start_programs`, the same canonical
    registry everything that later compiles a figure builds its inputs
    from — which is what guarantees a warmed store actually hits.
    """
    from repro.bench.figures import warm_start_programs
    from repro.compiler.kernel import compile_kernel

    entries = []
    for figure, label, make_program, opts in warm_start_programs():
        kernel = compile_kernel(make_program(), cache="memory", **opts)
        _pack(entries, kernel, figure, label)
        if log is not None:
            log("  packed %s / %s" % (figure, label))
    return entries


def _pack_fuzz_case(entries, spec, figure, label):
    """Pack one fuzz case under every compile the conformance oracles
    make of it (:data:`repro.fuzz.conform.ORACLE_COMPILE_OPTS`): a
    compile the pack leaves out is a guaranteed miss per case against
    the warmed store."""
    from repro.compiler.kernel import compile_kernel
    from repro.fuzz.conform import ORACLE_COMPILE_OPTS
    from repro.fuzz.gen import build_case

    program = build_case(spec).program
    for opts in ORACLE_COMPILE_OPTS:
        kernel = compile_kernel(program, cache="memory", **opts)
        _pack(entries, kernel, figure, label)


def corpus_entries(corpus_dir=None, log=None):
    """Compile every fuzz-corpus case (the exact kernels the corpus
    replay recompiles on every CI run)."""
    from repro.fuzz import corpus as corpus_mod

    entries = []
    paths = corpus_mod.corpus_entries(
        corpus_mod.DEFAULT_CORPUS_DIR if corpus_dir is None
        else corpus_dir)
    for path in paths:
        _pack_fuzz_case(entries, corpus_mod.load_entry(path)["spec"],
                        "fuzz_corpus", path)
        if log is not None:
            log("  packed corpus %s" % path)
    return entries


def campaign_entries(seed, budget, profile="quick", log=None):
    """Compile the kernels of one deterministic fuzz campaign.

    The conformance engine derives its case seeds from ``(seed,
    budget, profile)`` alone, so packing the same triple CI's
    ``fuzz-smoke`` job runs means that job's compiles all come off the
    warmed store.
    """
    from repro.fuzz.engine import case_seed
    from repro.fuzz.gen import generate_spec

    entries = []
    for step in range(budget):
        _pack_fuzz_case(entries,
                        generate_spec(case_seed(seed, step), profile),
                        "fuzz_campaign",
                        "seed %d step %d" % (seed, step))
        if log is not None and (step + 1) % 50 == 0:
            log("  packed campaign %d/%d" % (step + 1, budget))
    return entries
