"""The benchmark of record: one command, every metric by name.

    python3 perf/run.py [--seed N] [--workload NAME] [--trace]
                        [--quick] [--repeat K] [--json OUT]
    python3 perf/run.py --selfcheck

Without ``--workload`` every workload runs in its own fresh
subprocess, one after the other (closed loop, one client).  With it,
this process *is* the fresh process: the driver's form is
``--workload NAME --seed N --seconds S --trace 0|1`` and the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` — the end-to-end metrics untraced, the
per-layer metrics traced.  ``BENCHMARK.json`` names both sets.
See ``perf/README.md``.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

import compare  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: Set-ups per run; ``setup_s`` is their median plus the import.
SETUP_REPEATS = 3
#: Share of the sample counts a traced run takes from its own
#: workload (half of them traced), and from each other workload.
TRACE_SCALE = 0.25
PROBE_SCALE = 0.01
PROBE_ROUNDS = 3
#: ``--quick``: a smoke run for the tests.
QUICK_SCALE = 0.02
QUICK_ROUNDS = 2


def isolate(workdir):
    """No ``FL_*`` variable reaches the program, and every temporary
    file it makes (C build scratch, fetched ``.so`` files, kernel
    stores) lands in ``workdir``, inside the checkout."""
    for name in [n for n in os.environ if n.startswith("FL_")]:
        del os.environ[name]
    os.environ["TMPDIR"] = workdir
    tempfile.tempdir = None
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit("perf/run.py: no src/repro beside perf/ — run it from "
                 "a checkout of the repository")
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = SRC
    # The C-fallback warnings are the measured state, not news.
    logging.getLogger("repro").setLevel(logging.ERROR)


def children_of(pid):
    """Process ids whose parent is ``pid``, read from ``/proc``."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open("/proc/%s/stat" % entry) as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            found.append(int(entry))
    return found


def stop_children(before):
    """Stop every process this run started (``before``: the children
    it found) and wait until each has ended.  The workloads stop their
    own (service, pool workers) in ``teardown``; what is left is
    multiprocessing's resource tracker, started by the first
    shared-memory segment, which otherwise outlives the run by the
    moment it takes to notice its pipe closed.  Anything else that is
    still a child is terminated."""
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        # Closes the tracker's pipe and waits for it.
        tracker._resource_tracker._stop()
    for pid in set(children_of(os.getpid())) - before:
        try:
            os.kill(pid, signal.SIGTERM)
            deadline = time.monotonic() + 5
            while not os.waitpid(pid, os.WNOHANG)[0]:
                if time.monotonic() > deadline:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                    break
                time.sleep(0.01)
        except (ProcessLookupError, ChildProcessError):
            continue


def peak_rss_mb(with_children):
    """Peak resident size of this process, plus that of its largest
    child where the workload's own worker processes do the work."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        peak += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak / 1024.0


# -- one workload, in this process ------------------------------------------

def kind_lines(tally):
    """One report line per kind: samples, median and 90th percentile
    at the reference speed (a kind none of whose ops succeeded says
    so)."""
    lines = []
    for kind, values in tally.latencies.items():
        if not values:
            lines.append("  kind %-28s no op succeeded" % kind)
            continue
        ordered = sorted(values)
        lines.append("  kind %-28s n=%-6d p50 %10.4f ms  p90 %10.4f ms"
                     % (kind, len(ordered),
                        ordered[len(ordered) // 2] / 1e6,
                        ordered[len(ordered) * 9 // 10] / 1e6))
    return lines


def measure(args, workdir):
    """The untraced run: ``(result, report lines)``."""
    import harness as H
    import workloads as W

    import_s = time.perf_counter() - _STARTED
    workload = W.make(args.workload)
    if args.quick:
        repeats, scale, rounds = 1, QUICK_SCALE, QUICK_ROUNDS
    else:
        repeats, rounds = SETUP_REPEATS, H.ROUNDS
        scale = args.seconds / W.REF_SECONDS
    speeds = [H.machine_speed()]
    setups = []
    tally = H.Tally()
    try:
        for rep in range(repeats):
            workload.teardown()
            begin = time.perf_counter()
            workload.setup(
                W.Inputs(args.seed, H.Recorder(), workdir),
                "r%d" % rep)
            spent = time.perf_counter() - begin
            speeds.append(H.machine_speed())
            setups.append(spent * (speeds[-2] + speeds[-1]) / 2)
        H.run_checks(workload.kinds, tally)
        H.sample(workload.kinds, scale, [(tally, None)], rounds)
        H.run_checks(workload.kinds, tally)
        for _ in range(workload.audit()):
            tally.fail("audit", "a tier's counters disagree with the "
                       "ops sent to it")
    finally:
        workload.teardown()
    summary = H.summarize(tally)
    metrics = {
        "setup_s": import_s * speeds[0] + H.median(setups),
        "op_ms_p50": summary["op_ms_p50"],
        "op_ms_p90": summary["op_ms_p90"],
        "ops_per_s": summary["ops_per_s"],
        "peak_rss_mb": peak_rss_mb(workload.has_workers),
    }
    wall_s = tally.wall_ns / 1e9
    lines = ["%s: seed %d, %d ops of %d kinds completed, closed loop, "
             "one client; timed slices %.2f s as measured (%.0f ops/s) "
             "= %.2f s at the reference speed (mean speed %.2f); "
             "op_ms_p90 is taken from %d pooled samples"
             % (args.workload, args.seed, tally.ops,
                len(tally.latencies), wall_s, tally.ops / wall_s,
                tally.reference_wall_ns / 1e9,
                tally.reference_wall_ns / tally.wall_ns, tally.ops),
             "  set-up: import %.2f s as measured, then %d set-ups; "
             "kinds below at the reference speed"
             % (import_s, len(setups))]
    return (tally, metrics), lines + kind_lines(tally)


def trace(args, workdir, spec):
    """The traced run: this workload at a quarter of its samples,
    alternating untraced and traced rounds, then every other workload
    briefly so that each layer has spans."""
    import harness as H
    import layers as L
    import workloads as W

    rec = H.Recorder()
    inputs = W.Inputs(args.seed, rec, workdir)
    plain, traced = H.Tally(), H.Tally()
    scale = (QUICK_SCALE if args.quick
             else TRACE_SCALE * args.seconds / W.REF_SECONDS)
    for name in (args.workload,) + tuple(
            n for n in W.NAMES if n != args.workload):
        workload = W.make(name)
        own = name == args.workload
        try:
            workload.setup(inputs, "t")
            H.run_checks(workload.kinds, traced)
            if own:
                H.sample(workload.kinds, scale,
                         [(plain, None), (traced, rec)],
                         QUICK_ROUNDS if args.quick else H.ROUNDS)
            else:
                H.sample(workload.kinds, PROBE_SCALE, [(traced, rec)],
                         1 if args.quick else PROBE_ROUNDS)
            workload.probe(rec)
            for _ in range(workload.audit()):
                traced.fail("audit", "a tier's counters disagree")
        finally:
            workload.teardown()
        if own:
            own_spans = len(rec.spans)
            untraced = H.summarize(plain)["op_ms_p50"]
            rec.values["perf.trace_overhead_share"] = (
                H.summarize(traced)["op_ms_p50"] / untraced - 1
                if untraced else 0.0)
    L.probe_import(rec, SRC)
    metrics = L.derive(rec, spec["per_layer"], W.WORKERS)
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "trace-%s.json" % args.workload)
    dump = rec.dump()
    dump["workload"] = args.workload
    dump["own_spans"] = own_spans
    with open(path, "w") as handle:
        json.dump(dump, handle)
    traced.attempted += plain.attempted
    traced.failed += plain.failed
    lines = ["%s: traced, seed %d, %d spans -> %s"
             % (args.workload, args.seed, len(rec.spans),
                os.path.relpath(path, ROOT))]
    return (traced, metrics), lines


def run_one(args, spec):
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="tmp-", dir=OUT)
    before = set(children_of(os.getpid()))
    try:
        isolate(workdir)
        if args.trace:
            (tally, metrics), lines = trace(args, workdir, spec)
            listed = spec["per_layer"]
        else:
            (tally, metrics), lines = measure(args, workdir)
            listed = spec["end_to_end"]
    finally:
        stop_children(before)
        shutil.rmtree(workdir, ignore_errors=True)
    units = {entry["name"]: entry["unit"] for entry in listed}
    print("\n".join(lines))
    for name, unit in units.items():
        print("  %-44s %14.6g %s" % (name, metrics[name], unit))
    print("  %-44s %14.6g ratio (%d of %d ops)"
          % ("failed_share", tally.failed / tally.attempted,
             tally.failed, tally.attempted))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


# -- every workload, each in a fresh subprocess -----------------------------

def child(args, workload, trace_flag):
    """Run one workload in a fresh interpreter; returns its result."""
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace",
               str(trace_flag)]
    if args.quick:
        command.append("--quick")
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode or not lines:
        sys.exit("perf/run.py: workload %s exited with code %d"
                 % (workload, proc.returncode))
    print("\n".join(lines[:-1]), flush=True)
    result = json.loads(lines[-1])
    result["metrics"] = {name: entry["value"]
                         for name, entry in result["metrics"].items()}
    return result


def run_suite(args, spec):
    """One pass over the chosen workloads: ``{workload: result}``."""
    results = {}
    for entry in spec["workloads"]:
        name = entry["name"]
        results[name] = child(args, name, 0)
        if args.trace:
            results[name]["layers"] = child(args, name, 1)["metrics"]
    if args.trace:
        share = max(r["layers"]["perf.trace_overhead_share"]
                    for r in results.values())
        print("perf.trace_overhead_share (max over workloads) %.4f"
              % share)
    return results


def run_all(args, spec):
    runs = [run_suite(args, spec) for _ in range(args.repeat or 1)]
    if args.json:
        with open(args.json, "w") as handle:
            json.dump({"seed": args.seed, "runs": runs}, handle)
    names = [entry["name"] for entry in spec["end_to_end"]]
    print("%-15s" % "workload"
          + "".join("%14s" % name for name in names) + "   failed")
    for run in runs:
        for workload, result in run.items():
            print("%-15s" % workload + "".join(
                "%14.5g" % result["metrics"][name] for name in names)
                + "   %d/%d" % (result["failed"], result["attempted"]))
    failed = sum(r["failed"] for run in runs for r in run.values())
    return int(failed > 0)


#: Per-layer counts that must repeat exactly between two passes.
EXACT = ("run.ops.", "ir.opt_lines.", "codegen.c_bytes.")


def selfcheck(args, spec):
    """Two sets of passes on one seed (three each unless ``--repeat``
    says otherwise: on a box where one run in ten is off by a quarter,
    single passes cannot be held to the bounds) must agree within the
    benchmark's own bounds in both directions, fail no op, and
    (traced) repeat exactly the counts that must."""
    passes = args.repeat or 3
    first = [run_suite(args, spec) for _ in range(passes)]
    second = [run_suite(args, spec) for _ in range(passes)]
    forward = compare.compare(spec, first, second)
    backward = compare.compare(spec, second, first)
    print(compare.render(forward))
    bad = ["%s %s" % row[:2] for row, mirror in zip(forward, backward)
           if "worse" in (row[-1], mirror[-1])]
    bad += ["%s failed ops" % name for run in first + second
            for name, result in run.items() if result["failed"]]
    if args.trace:
        bad += ["%s %s did not repeat" % (name, key)
                for run in first[1:] + second
                for name in run
                for key, value in run[name]["layers"].items()
                if key.startswith(EXACT)
                and first[0][name]["layers"][key] != value]
    print("selfcheck: %s" % ("DISAGREE: " + "; ".join(bad) if bad
                             else "passed"))
    return int(bool(bad))


def main(argv=None):
    spec = compare.load_spec()
    names = [entry["name"] for entry in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"],
                        help="timed-phase length the sample counts are "
                             "scaled to (default: run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1,
                        default=0, choices=(0, 1))
    parser.add_argument("--quick", action="store_true",
                        help="tiny sample counts (a smoke run)")
    parser.add_argument("--repeat", type=int,
                        help="passes over the suite (default 1; 3 per "
                             "set for --selfcheck)")
    parser.add_argument("--json", metavar="OUT",
                        help="write every pass's results here, for "
                             "perf/compare.py")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run two sets of passes on one seed; "
                             "exit non-zero on any disagreement")
    args = parser.parse_args(argv)
    if args.selfcheck:
        return selfcheck(args, spec)
    if args.workload is None:
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
