"""Sampling, statistics and the span recorder shared by every workload.

A workload is a list of :class:`Kind` objects.  :func:`sample` takes a
fixed number of single-op timings from each kind, in interleaved
rounds so drift reaches every kind alike, and :func:`summarize`
reduces them to the metrics ``BENCHMARK.json`` names.  Sample counts
are fixed, never time-based: two commits do identical work.  The
end-to-end timings are reported at a reference machine speed
(:func:`machine_speed`), because the box the benchmark must be steady
on is not; the trace is as measured.
"""

import sys
import time
import traceback
from collections import Counter
from statistics import geometric_mean as geomean
from statistics import median

_clock = time.perf_counter_ns

#: Interleaved rounds of the timed phase (the issue asks for >= 5).
ROUNDS = 10

#: The speed probe, and the time that defines speed 1.0.  The constant
#: fixes the unit only: it cancels in any comparison of two runs.
PROBE_STEPS = 1500
REFERENCE_NS = 100_000
#: Longest run of ops between two probes (one op if longer).
SLICE_NS = 30_000_000


def machine_speed():
    """How fast the machine is right now: ``REFERENCE_NS`` over the
    best of three timings of a fixed allocating loop.

    The sandbox this benchmark must be steady on switches, for a tenth
    of a second to minutes at a time, between two speeds 1.5x apart (a
    neighbour on the sibling hardware thread; both cores, no steal),
    so ten back-to-back runs of one commit spend anywhere from 15 % to
    100 % of their time slowed and their medians spread by up to 45 %.
    Ops are therefore taken in slices with a probe on either side, and
    a slice's times are multiplied by the speed between its probes:
    what is reported is the time at the reference speed.  The loop
    builds a list of small tuples because the ops are allocating
    Python; an arithmetic loop slows less than they do and left three
    times the spread (``perf/README.md`` has the numbers).  It is the
    benchmark's own code and no program change can move it.
    """
    best = None
    for _ in range(3):
        begin = _clock()
        cells = []
        for step in range(PROBE_STEPS):
            cells.append((step, float(step)))
        spent = _clock() - begin
        if best is None or spent < best:
            best = spent
    return REFERENCE_NS / best


class Kind:
    """One op kind of a workload.

    ``op`` is the timed call.  ``prepare`` (untimed) makes its
    argument — a fresh program object, the next operand set — and
    ``verify(arg, result)`` (untimed, cheap) says whether one op did
    what the workload requires.  ``check()`` compares the kind's
    outputs with the reference and returns ``(attempted, failed)``;
    it runs before and after the timed phase.  ``span`` names the
    trace span around ``op`` (a per-layer metric name where one
    exists) and ``decompose(rec, parent, arg, result)`` replays the
    public calls inside the op as spans attributed to ``parent``.
    """

    def __init__(self, name, samples, op, prepare=None, verify=None,
                 check=None, span=None, decompose=None):
        self.name = name
        self.samples = samples
        self.op = op
        self.prepare = prepare
        self.verify = verify
        self.check = check
        self.span = span or name
        self.decompose = decompose


class Tally:
    """Ops attempted and failed, the latencies of the ops that
    succeeded per kind (ns at the reference speed; a kind none of
    whose ops succeeded keeps an empty list), and the wall time of the
    timed slices, as measured and at the reference speed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.latencies = {}
        self.wall_ns = 0
        self.reference_wall_ns = 0.0
        self._reported = set()

    def add(self, kind, latencies, wall_ns, speed):
        """One slice of ``kind``: the latencies of its ops and its
        wall time, taken at machine ``speed``."""
        self.latencies.setdefault(kind, []).extend(
            value * speed for value in latencies)
        self.wall_ns += wall_ns
        self.reference_wall_ns += wall_ns * speed

    def fail(self, kind, why):
        """Count one failed op; the first failure of a kind is shown."""
        self.failed += 1
        if kind not in self._reported:
            self._reported.add(kind)
            print("FAILED %s: %s" % (kind, why), file=sys.stderr)

    @property
    def ops(self):
        return sum(len(v) for v in self.latencies.values())


# -- the span recorder ----------------------------------------------------

class _Span:
    __slots__ = ("rec", "name", "parent", "index")

    def __init__(self, rec, name, parent):
        self.rec = rec
        self.name = name
        self.parent = parent

    def __enter__(self):
        rec = self.rec
        parent = self.parent
        if parent is None:
            parent = rec._open[-1] if rec._open else -1
        index = len(rec.spans)
        root = rec.spans[parent][4] if parent >= 0 else index
        row = [self.name, 0, 0, parent, root]
        rec.spans.append(row)
        rec._open.append(index)
        self.index = index
        row[1] = _clock()
        return self

    def __exit__(self, *exc_info):
        end = _clock()
        self.rec.spans[self.index][2] = end
        self.rec._open.pop()
        return False


class Recorder:
    """In-memory spans: ``[name, start_ns, end_ns, parent, op]``.

    ``parent`` is the index of the span that caused this one (-1 for
    a root) and ``op`` the index of the root span, shared by every
    span of one op.  A replayed call is recorded with an explicit
    ``parent``: it ran after its parent closed, but its time is work
    the parent did, so self time subtracts it.  ``values`` and
    ``counts`` hold the sizes and counts read at the same boundaries.
    """

    def __init__(self):
        self.spans = []
        self.values = {}
        self.counts = Counter()
        self._open = []

    def span(self, name, parent=None):
        return _Span(self, name, parent)

    def durations(self):
        """name -> list of span durations in ns."""
        out = {}
        for name, start, end, _, _ in self.spans:
            out.setdefault(name, []).append(end - start)
        return out

    def self_times(self):
        """name -> list of self times in ns (duration minus the
        durations of the spans it caused)."""
        child = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for index, row in enumerate(self.spans):
            out.setdefault(row[0], []).append(
                max(row[2] - row[1] - child[index], 0))
        return out

    def dump(self):
        """The JSON-ready trace: every span, and a per-name summary
        (count, median duration and median self time)."""
        durations = self.durations()
        selfs = self.self_times()
        return {
            "columns": ["name", "start_ns", "end_ns", "parent", "op"],
            "spans": self.spans,
            "summary": {
                name: {"count": len(values),
                       "median_ns": median(values),
                       "median_self_ns": median(selfs[name])}
                for name, values in sorted(durations.items())},
            "values": dict(sorted(self.values.items())),
            "counts": dict(sorted(self.counts.items())),
        }


# -- sampling -------------------------------------------------------------

def per_round(kind, scale, rounds, index):
    """Ops of ``kind`` in round ``index``: its sample count at
    ``scale`` (at least one per round) dealt evenly over the rounds."""
    total = max(rounds, round(kind.samples * scale))
    return total * (index + 1) // rounds - total * index // rounds


def _take(kind, count, tally, rec):
    """``count`` timed ops of ``kind``, traced when ``rec`` is given;
    returns the latencies (ns) of the ops that succeeded."""
    prepare, op, verify = kind.prepare, kind.op, kind.verify
    latencies = []
    for _ in range(count):
        tally.attempted += 1
        try:
            arg = prepare() if prepare is not None else None
            if rec is None:
                start = _clock()
                result = op(arg) if prepare is not None else op()
                end = _clock()
            else:
                with rec.span("op:" + kind.name):
                    start = _clock()
                    with rec.span(kind.span) as inner:
                        result = (op(arg) if prepare is not None
                                  else op())
                    end = _clock()
                    if kind.decompose is not None:
                        kind.decompose(rec, inner.index, arg, result)
        except Exception:
            tally.fail(kind.name, traceback.format_exc())
            continue
        if verify is not None and not verify(arg, result):
            tally.fail(kind.name, "verify() refused the op")
            continue
        latencies.append(end - start)
    return latencies


def sample(kinds, scale, tallies, rounds=ROUNDS):
    """The timed phase: ``rounds`` interleaved rounds over ``kinds``.

    ``tallies`` is a sequence of ``(tally, recorder)`` pairs taken in
    turn, one per round.  An untraced run passes one pair with no
    recorder; a traced run alternates an untraced and a traced pair,
    so the two sets of latencies differ by the tracing overhead alone.
    A slice's wall time covers its ops and the untimed ``prepare`` and
    ``verify`` between them, not the probes.
    """
    speed = machine_speed()
    for index in range(rounds):
        tally, rec = tallies[index % len(tallies)]
        for kind in kinds:
            left = per_round(kind, scale, rounds, index)
            batch = 1
            while left:
                count = min(batch, left)
                begin = _clock()
                latencies = _take(kind, count, tally, rec)
                wall_ns = _clock() - begin
                after = machine_speed()
                tally.add(kind.name, latencies, wall_ns,
                          (speed + after) / 2)
                speed = after
                left -= count
                batch = max(1, SLICE_NS * count // max(wall_ns, 1))


def run_checks(kinds, tally):
    """Each kind's output check against its reference."""
    for kind in kinds:
        if kind.check is None:
            continue
        try:
            attempted, failed = kind.check()
        except Exception:
            attempted, failed = 1, 1
            print(traceback.format_exc(), file=sys.stderr)
        tally.attempted += attempted
        for _ in range(failed):
            tally.fail(kind.name, "output differs from the reference")


# -- statistics -----------------------------------------------------------

def weighted_quantile(pairs, q):
    """The ``q`` quantile of ``(value, weight)`` pairs."""
    ordered = sorted(pairs)
    total = sum(weight for _, weight in ordered)
    reached = 0.0
    for value, weight in ordered:
        reached += weight
        if reached >= q * total:
            return value
    return ordered[-1][0]


def summarize(tally):
    """The latency and throughput metrics of a tally's timed rounds.

    ``op_ms_p50`` is the geometric mean over kinds of the per-kind
    median latency, so each kind weighs equally.  ``op_ms_p90`` scales
    it by the 90th percentile of (sample / its kind's median), every
    kind contributing the same mass to the pool however many samples
    it has.  ``ops_per_s`` is the ops completed over the wall time of
    the slices: the arithmetic weighting, in which slow kinds and
    every slow op count in full.  All three are at the reference
    speed.  A kind none of whose ops succeeded
    has no latency and is left out of the two means (which read 0
    when no op succeeded at all); the run is then incorrect, and its
    failed ops have still spent their wall time.
    """
    latencies = {kind: values for kind, values in tally.latencies.items()
                 if values}
    if not latencies:
        return {"op_ms_p50": 0.0, "op_ms_p90": 0.0, "ops_per_s": 0.0}
    medians = {kind: median(values)
               for kind, values in latencies.items()}
    p50 = geomean(medians.values()) / 1e6
    ratios = [(value / medians[kind], 1.0 / len(values))
              for kind, values in latencies.items()
              for value in values]
    return {"op_ms_p50": p50,
            "op_ms_p90": p50 * weighted_quantile(ratios, 0.9),
            "ops_per_s": tally.ops * 1e9 / tally.reference_wall_ns}
