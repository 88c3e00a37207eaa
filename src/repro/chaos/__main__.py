"""CLI for the chaos campaign: ``python -m repro.chaos``.

Runs the fault x executor x policy sweep (see
:mod:`repro.chaos.campaign`) and exits 0 only when every case landed
in its documented state with zero leaked shm segments and zero orphan
workers.  ``--list-faults`` prints the registered fault points;
``--json`` persists the full report for CI artifacts.
"""

import argparse
import json
import sys

from repro.chaos import FAULT_POINTS
from repro.chaos.campaign import (DATASETS, EXECUTORS, POLICIES,
                                  run_campaign)


def _split(text):
    return [part for part in text.split(",") if part]


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.chaos",
        description="Chaos campaign: fault x executor x policy sweep "
                    "with bit-identity / typed-error / hygiene checks.")
    parser.add_argument("--seed", type=int, default=0,
                        help="campaign seed (datasets and seeded "
                             "probability draws)")
    parser.add_argument("--faults", type=_split, default=None,
                        metavar="A,B",
                        help="comma-separated fault points (default: "
                             "all %d)" % len(FAULT_POINTS))
    parser.add_argument("--executors", type=_split, default=None,
                        metavar="A,B",
                        help="executors to sweep (default: %s)"
                             % ",".join(EXECUTORS))
    parser.add_argument("--policies", type=_split, default=None,
                        metavar="A,B",
                        help="on_failure policies to sweep, from %s "
                             "(default: all)" % ",".join(POLICIES))
    parser.add_argument("--datasets", type=int, default=DATASETS,
                        help="datasets per case (default: %d)"
                             % DATASETS)
    parser.add_argument("--max-retries", type=int, default=1,
                        help="transient retry budget per case "
                             "(default: 1)")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write the full report as JSON")
    parser.add_argument("--list-faults", action="store_true",
                        help="print the registered fault points and "
                             "exit")
    args = parser.parse_args(argv)

    if args.list_faults:
        for name in sorted(FAULT_POINTS):
            print("%-20s %s" % (name, FAULT_POINTS[name]))
        return 0

    for name in args.faults or ():
        if name not in FAULT_POINTS:
            parser.error("unknown fault point %r (see --list-faults)"
                         % name)
    for executor in args.executors or ():
        if executor not in EXECUTORS:
            parser.error("unknown executor %r" % executor)
    for policy in args.policies or ():
        if policy not in POLICIES:
            parser.error("unknown policy %r" % policy)

    report = run_campaign(seed=args.seed, faults=args.faults,
                          executors=args.executors,
                          policies=args.policies,
                          count=args.datasets,
                          max_retries=args.max_retries, log=print)
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
    print("chaos campaign: %d cases, %d violations -> %s"
          % (len(report["cases"]), report["violations"],
             "OK" if report["ok"] else "FAIL"))
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
