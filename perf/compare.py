"""Compare two sets of benchmark runs under the benchmark's own bounds.

    python perf/compare.py A.json B.json

``A.json`` and ``B.json`` are files ``perf/run.py --json`` wrote (one
or more runs each; ``--repeat`` makes more).  One row per workload x
end-to-end metric:

``ok``          B's median is no worse than A's by more than the bound
``worse``       it is
``unresolved``  the run-to-run spread of either side exceeds the
                bound, so the runs cannot tell (never read this as
                "unchanged")

and one row per failed op count that rose.  Exits 1 on any ``worse``.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def spread(values):
    """Interquartile distance as a share of the median (the driver's
    measure); the full range when there are too few runs for
    quartiles; 0 for a single run."""
    if len(values) < 2:
        return 0.0
    mid = statistics.median(values)
    if len(values) < 4:
        return (max(values) - min(values)) / mid
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / mid


def worsening(metric, before, after):
    """How much worse ``after`` is than ``before``, as a share of
    ``before`` (negative when it is better)."""
    change = (after - before) / before
    return change if metric["better"] == "lower" else -change


def compare(spec, runs_a, runs_b):
    """Rows ``(workload, metric, median_a, median_b, worsening,
    spread, verdict)`` for every workload both sides ran."""
    rows = []
    for workload in spec["workloads"]:
        name = workload["name"]
        side_a = [run[name] for run in runs_a if name in run]
        side_b = [run[name] for run in runs_b if name in run]
        if not side_a or not side_b:
            continue
        for metric in spec["end_to_end"]:
            key = metric["name"]
            values_a = [r["metrics"][key] for r in side_a]
            values_b = [r["metrics"][key] for r in side_b]
            mid_a = statistics.median(values_a)
            mid_b = statistics.median(values_b)
            worse = worsening(metric, mid_a, mid_b)
            wide = max(spread(values_a), spread(values_b))
            if wide > metric["bound"]:
                verdict = "unresolved"
            elif worse > metric["bound"]:
                verdict = "worse"
            else:
                verdict = "ok"
            rows.append((name, key, mid_a, mid_b, worse, wide, verdict))
        failed_a = max(r["failed"] / r["attempted"] for r in side_a)
        failed_b = max(r["failed"] / r["attempted"] for r in side_b)
        rows.append((name, "failed_share", failed_a, failed_b,
                     failed_b - failed_a, 0.0,
                     "worse" if failed_b > failed_a else "ok"))
    return rows


def render(rows):
    lines = ["%-15s %-13s %12s %12s %8s %8s  %s"
             % ("workload", "metric", "A", "B", "worse", "spread",
                "verdict")]
    for name, key, mid_a, mid_b, worse, wide, verdict in rows:
        lines.append("%-15s %-13s %12.5g %12.5g %+7.1f%% %7.1f%%  %s"
                     % (name, key, mid_a, mid_b, 100 * worse,
                        100 * wide, verdict))
    return "\n".join(lines)


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    sides = []
    for path in argv:
        with open(path) as handle:
            sides.append(json.load(handle)["runs"])
    rows = compare(load_spec(), *sides)
    print(render(rows))
    return int(any(row[-1] == "worse" for row in rows))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
