"""``python -m repro.store`` — fill, verify, and inspect a kernel store.

Subcommands::

    warm    compile the AOT kernel set straight into a store dir
    verify  deep-check a store (digests, version axes, spec rebuilds)
    ls      list a store's entries
    stats   print a store's counters; optionally enforce a hit-rate
            floor (the CI gate) and emit a markdown summary table
    gc      delete a store's stale entries (other code versions')

Examples::

    python -m repro.store warm --store kernels-store --fuzz-campaign 0:200:quick
    python -m repro.store verify --store kernels-store
    python -m repro.store ls --store kernels-store
    python -m repro.store stats --store .fl_store --min-hit-rate 0.9 --markdown
    python -m repro.store gc --store .fl_store --stale

The store directory is the artifact: CI's ``warm-kernels`` job fills
one, verifies it and uploads it; downstream jobs point
``FL_KERNEL_STORE`` (or ``python -m repro.service --store``) at the
downloaded copy.
"""

import argparse
import json
import os
import sys

from repro.compiler.key import KernelKey, is_current
from repro.compiler.tiers import portable_spec, put, rebuild
from repro.store import KernelStore
from repro.store.disk import decode_code


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="python -m repro.store",
        description="Fill, verify and inspect a persistent kernel store.")
    sub = parser.add_subparsers(dest="command", required=True)

    warm = sub.add_parser(
        "warm", help="compile the AOT kernel set into a store directory")
    warm.add_argument("--store", required=True,
                      help="store directory to warm")
    warm.add_argument("--no-figures", action="store_true",
                      help="skip the benchmark-figure kernels")
    warm.add_argument("--corpus", default=None,
                      help="fuzz corpus directory (default "
                           "fuzz_corpus/)")
    warm.add_argument("--no-corpus", action="store_true",
                      help="skip the fuzz-corpus kernels")
    warm.add_argument("--fuzz-campaign", metavar="SEED:BUDGET:PROFILE",
                      default=None,
                      help="also compile the kernels of one "
                           "deterministic fuzz campaign (e.g. "
                           "0:200:quick — the CI smoke campaign)")
    warm.add_argument("--max-bytes", type=int, default=None,
                      help="store size budget (LRU eviction past it)")
    warm.add_argument("--quiet", action="store_true")

    verify = sub.add_parser(
        "verify", help="deep-check every entry of a store directory")
    verify.add_argument("--store", required=True,
                        help="store directory")

    ls = sub.add_parser("ls", help="list a store's entries")
    ls.add_argument("--store", required=True, help="store directory")

    stats = sub.add_parser(
        "stats", help="print store counters; optionally gate on them")
    stats.add_argument("--store", required=True,
                       help="store directory")
    stats.add_argument("--min-hit-rate", type=float, default=None,
                       help="exit 1 unless hits/(hits+misses) reaches "
                            "this floor (and at least one lookup "
                            "happened)")
    stats.add_argument("--markdown", action="store_true",
                       help="emit a GitHub-flavored markdown table "
                            "(for $GITHUB_STEP_SUMMARY)")

    gc = sub.add_parser(
        "gc", help="delete entries no lookup by this code can reach")
    gc.add_argument("--store", required=True, help="store directory")
    gc.add_argument("--stale", action="store_true", required=True,
                    help="delete the entries (and their sidecars) "
                         "recorded under other version axes")
    return parser


def _parse_campaign(value):
    try:
        seed, budget, profile = value.split(":")
        return int(seed), int(budget), profile
    except ValueError:
        raise SystemExit(
            "--fuzz-campaign must look like SEED:BUDGET:PROFILE, "
            "got %r" % value)


# -------------------------------------------------------------------------
# The AOT kernel set: the kernel populations CI compiles ahead of time.
# -------------------------------------------------------------------------
def _compile(program, opts):
    from repro.compiler.kernel import compile_kernel

    return compile_kernel(program, store=False, remote=False, **opts)


def figure_kernels(log):
    """Compile the six figure kernels.

    The programs come from
    :func:`repro.bench.figures.warm_start_programs`, the same canonical
    registry everything that later compiles a figure builds its inputs
    from — which is what guarantees a warmed store actually hits.
    """
    from repro.bench.figures import warm_start_programs

    for figure, label, make_program, opts in warm_start_programs():
        yield _compile(make_program(), opts)
        log("  compiled %s / %s" % (figure, label))


def _fuzz_case_kernels(spec):
    """One fuzz case under every compile the conformance oracles make
    of it (:data:`repro.fuzz.conform.ORACLE_COMPILE_OPTS`): a compile
    the store leaves out is a guaranteed miss per case."""
    from repro.fuzz.conform import ORACLE_COMPILE_OPTS
    from repro.fuzz.gen import build_case

    program = build_case(spec).program
    for opts in ORACLE_COMPILE_OPTS:
        yield _compile(program, opts)


def corpus_kernels(corpus_dir, log):
    """Compile every fuzz-corpus case (the exact kernels the corpus
    replay recompiles on every CI run)."""
    from repro.fuzz import corpus as corpus_mod

    for path in corpus_mod.corpus_entries(
            corpus_mod.DEFAULT_CORPUS_DIR if corpus_dir is None
            else corpus_dir):
        yield from _fuzz_case_kernels(corpus_mod.load_entry(path)["spec"])
        log("  compiled corpus %s" % path)


def campaign_kernels(seed, budget, profile, log):
    """Compile the kernels of one deterministic fuzz campaign.

    The conformance engine derives its case seeds from ``(seed,
    budget, profile)`` alone, so warming the same triple CI's
    ``fuzz-smoke`` job runs means that job's compiles all come off the
    warmed store.
    """
    from repro.fuzz.engine import case_seed
    from repro.fuzz.gen import generate_spec

    for step in range(budget):
        yield from _fuzz_case_kernels(
            generate_spec(case_seed(seed, step), profile))
        if (step + 1) % 50 == 0:
            log("  compiled campaign %d/%d" % (step + 1, budget))


def _cmd_warm(args, log):
    """File the spec of every AOT kernel with :func:`~repro.compiler.
    tiers.put`: no lookup, so the store's hit/miss counters stay as
    they were."""
    store = KernelStore(args.store, max_bytes=args.max_bytes)
    populations = []
    if not args.no_figures:
        populations.append(("benchmark-figure", figure_kernels(log)))
    if not args.no_corpus:
        populations.append(("fuzz-corpus",
                            corpus_kernels(args.corpus, log)))
    if args.fuzz_campaign:
        seed, budget, profile = _parse_campaign(args.fuzz_campaign)
        populations.append((
            "fuzz-campaign (seed=%d budget=%d profile=%s)"
            % (seed, budget, profile),
            campaign_kernels(seed, budget, profile, log)))
    digests = set()
    for what, kernels in populations:
        log("compiling %s kernels ..." % what)
        for kernel in kernels:
            key = KernelKey.of(kernel.artifact)
            spec = portable_spec(kernel.artifact)
            if spec is None or key.digest in digests:
                continue  # identity-pinned, or already filed
            put(key, spec=spec, store=store)
            digests.add(key.digest)
    print("warmed %s: compiled %d entr%s"
          % (store.root, len(digests), "y" if len(digests) == 1
             else "ies"))
    return 0


def _cmd_verify(args):
    """Read every entry digest-checked (a defective one is
    quarantined), skip the stale ones, rebuild the rest; exit 1 when
    any entry is unreadable or does not rebuild."""
    store = KernelStore(args.store)
    digests = store.digests()
    rebuilt = stale = 0
    errors = []
    for digest in digests:
        parts = store.read_parts(digest)
        if parts is None:
            errors.append("%s: unreadable entry (quarantined)" % digest)
            continue
        spec = parts.entry["spec"]
        source = spec.get("source") if isinstance(spec, dict) else None
        if not is_current(parts.entry["key"]):
            stale += 1
        elif rebuild(spec, so=parts.so,
                     code=decode_code(parts.code, source)) is None:
            errors.append("%s: spec does not rebuild" % digest)
        else:
            rebuilt += 1
    print("store %s: %d entr%s, %d rebuilt, %d stale"
          % (store.root, len(digests),
             "y" if len(digests) == 1 else "ies", rebuilt, stale))
    for error in errors:
        print("  ERROR %s" % error)
    if errors:
        print("result: FAIL — %d entr%s failed to verify"
              % (len(errors), "y" if len(errors) == 1 else "ies"))
        return 1
    print("result: PASS")
    return 0


def _cmd_ls(args):
    store = KernelStore(args.store)
    listed = [(meta, is_current(meta)) for _, meta in store.entries()]
    print("store %s: %d entr%s (%d stale)"
          % (store.root, len(listed), "y" if len(listed) == 1 else "ies",
             sum(not current for _, current in listed)))
    for meta, current in listed:
        print("  %s  opt=%d%s  %s%s"
              % (meta["structural_digest"][:12], meta["opt_level"],
                 " instr" if meta["instrument"] else "      ",
                 meta["name"], "" if current else "  [stale]"))
    return 0


def _cmd_stats(args):
    store = KernelStore(args.store)
    stats = store.stats()
    if args.markdown:
        print("### Kernel store `%s`" % stats["root"])
        print()
        print("| metric | value |")
        print("| --- | --- |")
        for name in ("hits", "misses", "hit_rate", "writes",
                     "evictions", "quarantined", "entries", "bytes",
                     "stale_entries", "stale_bytes"):
            value = stats.get(name, 0)
            if name == "hit_rate":
                value = "%.1f%%" % (100.0 * value)
            print("| %s | %s |" % (name, value))
        print()
    else:
        print(json.dumps(stats, indent=2, sort_keys=True))
    if args.min_hit_rate is not None:
        lookups = stats["hits"] + stats["misses"]
        if lookups == 0:
            print("store gate: FAIL — no lookups recorded (the store "
                  "was never consulted; is FL_KERNEL_STORE set?)")
            return 1
        if stats["hit_rate"] < args.min_hit_rate:
            print("store gate: FAIL — hit rate %.1f%% is below the "
                  "%.1f%% floor (cold compiles crept back in)"
                  % (100.0 * stats["hit_rate"],
                     100.0 * args.min_hit_rate))
            return 1
        print("store gate: PASS — hit rate %.1f%% (floor %.1f%%)"
              % (100.0 * stats["hit_rate"],
                 100.0 * args.min_hit_rate))
    return 0


def _cmd_gc(args):
    store = KernelStore(args.store)
    removed = store.gc_stale()
    print("store %s: removed %d stale entr%s (%d bytes)"
          % (store.root, removed["removed"],
             "y" if removed["removed"] == 1 else "ies",
             removed["bytes"]))
    return 0


def main(argv=None):
    args = _build_parser().parse_args(argv)
    quiet = getattr(args, "quiet", True)
    log = (lambda *a, **k: None) if quiet else print
    try:
        if args.command == "warm":
            return _cmd_warm(args, log)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "ls":
            return _cmd_ls(args)
        if args.command == "gc":
            return _cmd_gc(args)
        return _cmd_stats(args)
    except BrokenPipeError:
        # `... ls | head` under pipefail: a closed pipe is not a
        # failure of the listing.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
