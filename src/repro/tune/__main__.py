"""``python -m repro.tune`` — drive the schedule autotuner.

Searches the benchmark figure registry (default: every figure) or one
generated fuzz spec, persists each winner into the kernel store's
tunings table, and prints a summary — aligned text by default,
GitHub-flavored markdown with ``--markdown`` (CI pipes it into the job
summary)::

    python -m repro.tune --store .fl_store
    python -m repro.tune --figures fig1_dot,fig8_triangles --budget 8
    python -m repro.tune --spec 1234 --no-persist
    FL_KERNEL_STORE=.fl_store python -m repro.tune --markdown
    FL_KERNEL_BACKEND=c python -m repro.tune --store .fl_store

The search compiles at the ``opt_level`` and backend the environment
resolves (``FL_KERNEL_OPT_LEVEL``, ``FL_KERNEL_BACKEND``), and its
winners answer compiles at that configuration only.

Exit status is 0 when every requested search completed (win or no
win), 1 on an unknown figure or a search that errored outright.
"""

import argparse
import sys


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="python -m repro.tune",
        description="autotune kernel schedules and persist the winners")
    parser.add_argument(
        "--figures", default="all",
        help="comma-separated figure names from the benchmark "
             "registry, or 'all' (default)")
    parser.add_argument(
        "--spec", type=int, default=None, metavar="SEED",
        help="tune one generated fuzz case instead of the figure "
             "registry")
    parser.add_argument(
        "--budget", type=int, default=None,
        help="max candidates measured per program (default: all)")
    parser.add_argument(
        "--repeats", type=int, default=5,
        help="timing runs per candidate, median taken (default 5)")
    parser.add_argument(
        "--warmup", type=int, default=1,
        help="discarded warmup runs per candidate (default 1)")
    parser.add_argument(
        "--store", default=None,
        help="kernel store directory (default: the active store / "
             "FL_KERNEL_STORE)")
    parser.add_argument(
        "--no-persist", action="store_true",
        help="search and report only; write nothing to the store")
    parser.add_argument(
        "--markdown", action="store_true",
        help="emit a GitHub-flavored markdown table")
    return parser.parse_args(argv)


def _targets(args):
    """The ``(name, label, make_program)`` list this invocation tunes."""
    if args.spec is not None:
        from repro.fuzz.gen import build_case, generate_spec

        spec = generate_spec(args.spec)
        return [("spec:%d" % args.spec, "fuzz case",
                 lambda spec=spec: build_case(spec).program)]
    from repro.bench.figures import warm_start_programs

    registry = warm_start_programs()
    if args.figures == "all":
        wanted = [entry[0] for entry in registry]
    else:
        wanted = [name.strip() for name in args.figures.split(",")
                  if name.strip()]
    by_name = {entry[0]: entry for entry in registry}
    missing = [name for name in wanted if name not in by_name]
    if missing:
        raise SystemExit(
            "unknown figures: %s (have: %s)"
            % (", ".join(missing), ", ".join(sorted(by_name))))
    return [(name, by_name[name][1], by_name[name][2])
            for name in wanted]


def _fmt_s(seconds):
    return "-" if seconds is None else "%.3g" % seconds


def _fmt_speedup(value):
    return "-" if value is None else "%.2fx" % value


def main(argv=None):
    args = _parse_args(argv if argv is not None else sys.argv[1:])
    from repro.store import KernelStore, using_store
    from repro.tune import describe_schedule, tune_program

    store = KernelStore(args.store) if args.store else None

    results = []
    failed = False
    with using_store(store) if store is not None else _noop():
        for name, label, make_program in _targets(args):
            result = tune_program(
                make_program, label=label, budget=args.budget,
                repeats=args.repeats, warmup=args.warmup,
                persist=not args.no_persist)
            result["figure"] = name
            results.append(result)
            # An unverifiable program (the reference interpreter
            # cannot run it) is an honest skip, not a failure.
            if result["schedule"] is None \
                    and not result.get("unverifiable"):
                failed = True

    if args.markdown:
        print("| figure | label | candidates | baseline (s) | "
              "tuned (s) | speedup | winner | persisted |")
        print("|---|---|---:|---:|---:|---:|---|---|")
        for r in results:
            print("| %s | %s | %d | %s | %s | %s | `%s` | %s |" % (
                r["figure"], r["label"], r["candidates"],
                _fmt_s(r["baseline_s"]), _fmt_s(r["best_s"]),
                _fmt_speedup(r["speedup"]),
                describe_schedule(r["schedule"]) if r["schedule"]
                else "-",
                "yes" if r["persisted"] else "no"))
    else:
        from repro.bench.harness import Table

        table = Table("schedule autotuner",
                      ["figure", "label", "cands", "baseline (s)",
                       "tuned (s)", "speedup", "winner", "persisted"])
        for r in results:
            table.add(r["figure"], r["label"], r["candidates"],
                      _fmt_s(r["baseline_s"]), _fmt_s(r["best_s"]),
                      _fmt_speedup(r["speedup"]),
                      describe_schedule(r["schedule"])
                      if r["schedule"] else "-",
                      "yes" if r["persisted"] else "no")
        print(table.render())
    wins = sum(1 for r in results
               if r["speedup"] is not None and r["speedup"] > 1.0)
    print()
    print("tuned %d program(s): %d measured win(s), %d persisted"
          % (len(results), wins,
             sum(1 for r in results if r["persisted"])))
    return 1 if failed else 0


def _noop():
    from contextlib import nullcontext

    return nullcontext()


if __name__ == "__main__":
    sys.exit(main())
