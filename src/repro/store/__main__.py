"""``python -m repro.store`` — build, warm, and inspect kernel packs.

Subcommands::

    pack    compile the AOT kernel set into one .flpack
    warm    import a pack into a store dir (or compile straight in)
    verify  deep-check a pack (digests, spec rebuilds, version axes)
    ls      list a pack's or a store's entries
    stats   print a store's counters; optionally enforce a hit-rate
            floor (the CI gate) and emit a markdown summary table

Examples::

    python -m repro.store pack --out kernels.flpack --fuzz-campaign 0:200:quick
    python -m repro.store warm --store .fl_store --pack kernels.flpack
    python -m repro.store verify kernels.flpack
    python -m repro.store ls --store .fl_store
    python -m repro.store stats --store .fl_store --min-hit-rate 0.9 --markdown
"""

import argparse
import json
import os
import sys

from repro.compiler.key import KernelKey
from repro.compiler.tiers import put
from repro.store import KernelStore
from repro.store.pack import (
    PackError,
    campaign_entries,
    corpus_entries,
    figure_entries,
    load_pack,
    read_pack,
    verify_pack,
    write_pack,
)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="python -m repro.store",
        description="Persistent kernel store and AOT kernel packs.")
    sub = parser.add_subparsers(dest="command", required=True)

    pack = sub.add_parser(
        "pack", help="compile the AOT kernel set into a .flpack")
    pack.add_argument("--out", required=True,
                      help="output .flpack path")
    pack.add_argument("--no-figures", action="store_true",
                      help="skip the benchmark-figure kernels")
    pack.add_argument("--corpus", default=None,
                      help="fuzz corpus directory (default "
                           "fuzz_corpus/)")
    pack.add_argument("--no-corpus", action="store_true",
                      help="skip the fuzz-corpus kernels")
    pack.add_argument("--fuzz-campaign", metavar="SEED:BUDGET:PROFILE",
                      default=None,
                      help="also pack the kernels of one deterministic "
                           "fuzz campaign (e.g. 0:200:quick — the CI "
                           "smoke campaign)")
    pack.add_argument("--base", default=None,
                      help="emit a diff pack: entries already in this "
                           ".flpack are listed, not re-packed")
    pack.add_argument("--note", default="",
                      help="free-text provenance recorded in the "
                           "manifest")
    pack.add_argument("--quiet", action="store_true")

    warm = sub.add_parser(
        "warm", help="populate a store directory ahead of time")
    warm.add_argument("--store", required=True,
                      help="store directory to warm")
    warm.add_argument("--pack", default=None,
                      help="import this .flpack (default: compile the "
                           "figure+corpus set directly into the store)")
    warm.add_argument("--base", default=None,
                      help="base .flpack layered under a diff pack")
    warm.add_argument("--max-bytes", type=int, default=None,
                      help="store size budget (LRU eviction past it)")
    warm.add_argument("--quiet", action="store_true")

    verify = sub.add_parser("verify", help="deep-check one pack")
    verify.add_argument("pack", help=".flpack path")
    verify.add_argument("--base", default=None,
                        help="base .flpack resolving a diff pack's "
                             "deferred digests")

    ls = sub.add_parser("ls", help="list pack or store entries")
    group = ls.add_mutually_exclusive_group(required=True)
    group.add_argument("--pack", help=".flpack path")
    group.add_argument("--store", help="store directory")

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
    return parser


def _parse_campaign(value):
    try:
        seed, budget, profile = value.split(":")
        return int(seed), int(budget), profile
    except ValueError:
        raise SystemExit(
            "--fuzz-campaign must look like SEED:BUDGET:PROFILE, "
            "got %r" % value)


def _cmd_pack(args, log):
    entries = []
    if not args.no_figures:
        log("compiling benchmark-figure kernels ...")
        entries += figure_entries(log=log)
    if not args.no_corpus:
        log("compiling fuzz-corpus kernels ...")
        entries += corpus_entries(corpus_dir=args.corpus, log=log)
    if args.fuzz_campaign:
        seed, budget, profile = _parse_campaign(args.fuzz_campaign)
        log("compiling fuzz-campaign kernels (seed=%d budget=%d "
            "profile=%s) ..." % (seed, budget, profile))
        entries += campaign_entries(seed, budget, profile, log=log)
    summary = write_pack(args.out, entries, note=args.note,
                         base=args.base)
    if args.base:
        print("packed %d kernel(s) -> %s (%d deferred to base %s)"
              % (summary["count"], summary["path"],
                 summary["deferred"], args.base))
    else:
        print("packed %d kernel(s) -> %s" % (summary["count"],
                                             summary["path"]))
    return 0


def _cmd_warm(args, log):
    store = KernelStore(args.store, max_bytes=args.max_bytes)
    if args.pack:
        summary = load_pack(args.pack, store=store, memory=False,
                            base=args.base)
        print("warmed %s: %d loaded, %d stale, %d error(s) from %s"
              % (store.root, summary["loaded"], summary["stale"],
                 summary["errors"], args.pack))
        return 0 if summary["errors"] == 0 else 1
    log("no pack given; compiling the figure+corpus set directly ...")
    digests = set()
    for entry in figure_entries(log=log) + corpus_entries(log=log):
        key = KernelKey.of_spec(entry["spec"], meta=entry["key"])
        put(key, spec=entry["spec"], store=store)
        digests.add(key.digest)
    written = len(digests)
    print("warmed %s: compiled %d entr%s in directly"
          % (store.root, written, "y" if written == 1 else "ies"))
    return 0


def _cmd_verify(args):
    report = verify_pack(args.pack, base=args.base)
    print("pack %s: %d entr%s, %d rebuilt, %d stale"
          % (report["path"], report["count"],
             "y" if report["count"] == 1 else "ies",
             report["rebuilt"], len(report["stale"])))
    if report["deferred"]:
        if args.base:
            print("  layered: %d digest(s) deferred to %s, %d missing"
                  % (report["deferred"], args.base,
                     len(report["unresolved"])))
        else:
            print("  layered: %d digest(s) deferred to a base pack "
                  "(pass --base to resolve them)" % report["deferred"])
    for error in report["errors"]:
        print("  ERROR %s" % error)
    if not report["ok"]:
        print("result: FAIL — %d entr%s failed to rebuild"
              % (len(report["errors"]),
                 "y" if len(report["errors"]) == 1 else "ies"))
        return 1
    print("result: PASS")
    return 0


def _cmd_ls(args):
    if args.pack:
        manifest, _ = read_pack(args.pack)
        print("pack %s: %d entr%s (spec v%s, registry v%s, code %s)"
              % (args.pack, manifest["count"],
                 "y" if manifest["count"] == 1 else "ies",
                 manifest["spec_version"],
                 manifest["registry_version"],
                 manifest["code_fingerprint"]))
        for entry in manifest["entries"]:
            print("  %s  opt=%d%s  %-16s %s"
                  % (entry["digest"][:12], entry["opt_level"],
                     " instr" if entry["instrument"] else "      ",
                     entry["figure"], entry["label"]))
        return 0
    store = KernelStore(args.store)
    listed = store.entries()
    print("store %s: %d entr%s" % (store.root, len(listed),
                                   "y" if len(listed) == 1 else "ies"))
    for path, meta in listed:
        print("  %s  opt=%d%s  %s"
              % (meta["structural_digest"][:12], meta["opt_level"],
                 " instr" if meta["instrument"] else "      ",
                 meta["name"]))
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
                     "tunings", "tuning_hits", "tuning_misses",
                     "tuning_writes"):
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


def main(argv=None):
    args = _build_parser().parse_args(argv)
    quiet = getattr(args, "quiet", True)
    log = (lambda *a, **k: None) if quiet else print
    try:
        if args.command == "pack":
            return _cmd_pack(args, log)
        if args.command == "warm":
            return _cmd_warm(args, log)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "ls":
            return _cmd_ls(args)
        return _cmd_stats(args)
    except PackError as exc:
        print("error: %s" % exc)
        return 1
    except BrokenPipeError:
        # `... ls | head` under pipefail: a closed pipe is not a
        # failure of the listing.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
