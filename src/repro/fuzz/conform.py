"""Differential conformance: one generated case, every oracle.

Each case spec runs through :data:`BATTERY`, one row per
implementation layer that must agree bit-for-bit with the naive
reference interpreter (:mod:`repro.baselines.reference`) — the
trusted semantics every row is judged against.  A row names its
oracle, the runner that executes the case through that layer, the row
whose instrumented op count it must equal, and whether it maps a
batch of fresh copies of the dataset.  :func:`conform_spec` judges
every row in one loop: a crash, a wrong number of results, a wrong op
count and any output that is not bit-identical to the interpreter's
each file a :class:`Divergence`.

Case data is integer-valued (see :mod:`repro.fuzz.gen`), so every
intermediate is exact in float64 and all comparisons demand
**bit-identical** arrays — there is no tolerance to hide a real
divergence behind.
"""

import atexit
import collections
import shutil
import tempfile
import time

import numpy as np

from repro import codegen
from repro.baselines.reference import interpret
from repro.compiler.kernel import CompiledKernel, Kernel, compile_kernel
from repro.exec.batch import run_batch
from repro.fuzz.gen import build_case, describe_spec, generate_spec

#: The opt-in fault-injection oracle (``conform_spec(..., chaos=True)``).
CHAOS_ORACLE = "batch_chaos"

#: The chaos plan the ``batch_chaos`` oracle arms (the processes batch
#: re-run with a retry budget): one worker crash, anywhere in the
#: fleet, which the retry machinery must absorb.
CHAOS_PLAN = {"worker_crash": {"nth": 1}}

#: The compile options of the compiling oracles: ``compiled@0``,
#: ``compiled@2`` (the round-trip oracles reuse it) and ``c_backend``.
#: ``python -m repro.store warm`` compiles every case under exactly
#: these, which is what lets a warmed store serve
#: every compile of a campaign.
ORACLE_COMPILE_OPTS = (
    {"instrument": True, "opt_level": 0},
    {"instrument": True, "opt_level": 2},
    {"instrument": True, "opt_level": 2, "backend": "c"},
)

#: The reason a ``c_backend`` fallback counts under when a cache tier
#: served the compile: a hit runs no emitter and no toolchain, so it
#: files no ledger event to read the reason from.
CACHED_FALLBACK = "served from a cache tier (no fallback event)"

#: Per-profile batch shape: (datasets per batch, workers).
_BATCH_SHAPE = {"quick": (2, 2), "deep": (3, 3)}


class Divergence:
    """One disagreement between two oracles on one case."""

    __slots__ = ("left", "right", "what", "detail")

    def __init__(self, left, right, what, detail):
        self.left = left
        self.right = right
        self.what = what
        self.detail = detail

    @property
    def pair(self):
        return "%s vs %s" % (self.left, self.right)

    def __repr__(self):
        return "Divergence(%s: %s — %s)" % (self.pair, self.what,
                                            self.detail)

    def __str__(self):
        return "%s: %s (%s)" % (self.pair, self.what, self.detail)


class CaseReport:
    """Everything one conformance run learned about one spec.

    ``c_backend`` is the label the ``c_backend`` row ran under:
    ``"c_backend[c]"`` when the kernel ran native C,
    ``"c_backend[python]"`` when it fell back, None when the row
    crashed (or a caller built the report without running it).
    ``c_fallback`` is why it fell back: the reason of the fallback
    event its compile filed (:func:`repro.codegen.fallback_events`),
    or :data:`CACHED_FALLBACK`; None when it ran C or crashed."""

    def __init__(self, spec, divergences, oracles_run, seconds,
                 c_backend=None, c_fallback=None):
        self.spec = spec
        self.divergences = divergences
        self.oracles_run = tuple(oracles_run)
        self.seconds = seconds
        self.c_backend = c_backend
        self.c_fallback = c_fallback

    @property
    def ok(self):
        return not self.divergences

    @property
    def native_c(self):
        """True when the ``c_backend`` row really ran C."""
        return self.c_backend == "c_backend[c]"

    def summary(self):
        head = describe_spec(self.spec)
        if self.ok:
            return "ok: %s" % head
        lines = ["DIVERGED: %s" % head]
        lines += ["  " + str(d) for d in self.divergences]
        return "\n".join(lines)

    def __repr__(self):
        state = "ok" if self.ok else "%d divergences" % len(
            self.divergences)
        return "CaseReport(seed=%r, %s)" % (self.spec.get("seed"), state)


def _max_abs_delta(left, right):
    left = np.asarray(left, dtype=float)
    right = np.asarray(right, dtype=float)
    if left.shape != right.shape:
        return "shape %s vs %s" % (left.shape, right.shape)
    if left.size == 0:
        return 0.0
    return float(np.max(np.abs(left - right)))


def _compare(divergences, left_name, right_name, left, right,
             what="output"):
    left_arr = np.asarray(left)
    right_arr = np.asarray(right)
    if left_arr.shape == right_arr.shape and np.array_equal(
            left_arr, right_arr):
        return
    divergences.append(Divergence(
        left_name, right_name, what,
        "max|delta|=%s" % (_max_abs_delta(left_arr, right_arr),)))


def _crash(name, exc):
    return Divergence("interpreter", name, "crash",
                      "%s: %s" % (type(exc).__name__, exc))


def reference_outputs(program):
    """The reference interpreter's outputs for ``program``, as numpy
    arrays in :func:`~repro.cin.analyze.output_tensors` order."""
    from repro.cin.analyze import output_tensors

    reference = interpret(program)
    return [np.asarray(reference.result_for(out))
            for out in output_tensors(program)]


def _compiled(opts, rebuild=None):
    """Runner: compile a fresh copy of the case under ``opts`` and run
    it — or run the artifact ``rebuild(kernel)`` returns, rebound to
    the case's tensors.  A ``backend``-requesting row is labelled with
    the backend that really ran: cases the C emitter cannot express
    fall back to python, and that path must agree too."""
    def run(name, spec, count, workers):
        case = build_case(spec)
        filed = _events_filed()
        kernel = compile_kernel(case.program, **opts)
        if rebuild is not None:
            kernel = Kernel(rebuild(kernel), case.slot_tensors(),
                            case.program)
        n_ops = kernel.run()
        fallback = None
        if "backend" in opts:
            name = "%s[%s]" % (name, kernel.effective_backend)
            if kernel.effective_backend != opts["backend"]:
                fallback = _fallback_since(filed)
        return name, [case.output_array()], int(n_ops), fallback
    return run


def _events_filed():
    """How many fallback events the codegen ledger has filed so far."""
    events = codegen.fallback_events()
    return len(events) + events.dropped


def _fallback_since(filed):
    """The reason of the first fallback event filed after the first
    ``filed`` (:func:`_events_filed`); :data:`CACHED_FALLBACK` when
    none was."""
    events = codegen.fallback_events()
    new = len(events) + events.dropped - filed
    if new <= 0:
        return CACHED_FALLBACK
    return events[max(len(events) - new, 0)][1]


def _via_spec(kernel):
    """The artifact serialized by ``to_spec`` and rebuilt by
    ``from_spec`` (a fresh ``exec`` of the carried source)."""
    return CompiledKernel.from_spec(kernel.to_spec())


_STORE = None


def _oracle_store():
    """One throwaway on-disk store per process, for the disk-tier
    oracle (created lazily, removed at interpreter exit)."""
    global _STORE
    if _STORE is None:
        from repro.store import KernelStore

        root = tempfile.mkdtemp(prefix="fl-conform-store-")
        atexit.register(shutil.rmtree, root, ignore_errors=True)
        _STORE = KernelStore(root)
    return _STORE


def _via_store(kernel):
    """The artifact written into the on-disk store and loaded back by
    store key."""
    from repro.store import meta_for_artifact

    store = _oracle_store()
    if store.save_artifact(kernel.artifact) is None:
        raise RuntimeError("artifact refused to serialize for the "
                           "store tier")
    rebuilt = store.load_artifact(meta_for_artifact(kernel.artifact))
    if rebuilt is None:
        raise RuntimeError("store round-trip read back a miss for an "
                           "entry written this call")
    return rebuilt


def _map_batch(spec, count, **options):
    """(outputs, total ops, fault ledger) of
    :func:`~repro.exec.batch.run_batch` over ``count`` fresh copies of
    the case's dataset."""
    template_case = build_case(spec)
    datasets = [build_case(spec).slot_tensors() for _ in range(count)]
    result = run_batch(template_case.program, datasets,
                       instrument=True, **options)
    return ([item.outputs[0] for item in result],
            int(result.total_ops), dict(result.faults))


def _batch(executor):
    """Runner: the batch under one executor."""
    def run(name, spec, count, workers):
        return (name,) + _map_batch(spec, count, executor=executor,
                                    max_workers=workers)
    return run


def _chaos_batch(name, spec, count, workers):
    """Runner: the processes batch with one injected worker crash and
    a retry budget."""
    from repro.chaos import chaos as chaos_ctx

    with chaos_ctx(CHAOS_PLAN):
        return (name,) + _map_batch(spec, count, executor="processes",
                                    max_workers=workers, max_retries=3)


#: One battery row: the oracle's name; ``run(name, spec, count,
#: workers)``, returning (divergence label, one output per dataset,
#: op count, ledger: a batch's fault counts, a backend-requesting
#: row's fallback reason or None); the row whose op count this row's must
#: equal (``count`` times over for a batch) — no layer may change the
#: measured work; and whether the row maps a batch of ``count``
#: datasets.
Oracle = collections.namedtuple("Oracle", "name run ops_ref batch")

#: Every oracle, in execution order.
BATTERY = (
    # The full compiler with the target-IR optimizer off, and on.
    Oracle("compiled@0", _compiled(ORACLE_COMPILE_OPTS[0]), None, False),
    Oracle("compiled@2", _compiled(ORACLE_COMPILE_OPTS[1]),
           "compiled@0", False),
    # backend="c" (repro.codegen): the hoisted scalar target AST lowered
    # to C99, built into a shared object and called through ctypes.
    Oracle("c_backend", _compiled(ORACLE_COMPILE_OPTS[2]),
           "compiled@2", False),
    # The compiled@2 artifact rebuilt from its spec, and from the disk
    # tier's write/read path.
    Oracle("spec_roundtrip", _compiled(ORACLE_COMPILE_OPTS[1], _via_spec),
           "compiled@2", False),
    Oracle("store_roundtrip",
           _compiled(ORACLE_COMPILE_OPTS[1], _via_store),
           "compiled@2", False),
    # run_batch over fresh copies of the dataset under each executor;
    # the executors' op totals must also agree with each other.
    Oracle("batch_serial", _batch("serial"), "compiled@2", True),
    Oracle("batch_threads", _batch("threads"), "compiled@2", True),
    Oracle("batch_processes", _batch("processes"), "compiled@2", True),
    # chaos=True only: fault tolerance must be invisible in the data
    # plane, and a fault must actually have fired.
    Oracle(CHAOS_ORACLE, _chaos_batch, "compiled@2", True),
)


def battery(chaos):
    """The rows one :func:`conform_spec` call runs, in order: the
    chaos row only under ``chaos``."""
    return [row for row in BATTERY if chaos or row.name != CHAOS_ORACLE]


#: Oracle names, in execution order.
ORACLES = ("interpreter",) + tuple(row.name for row in battery(False))


def conform_spec(spec, profile="quick", chaos=False):
    """Run every oracle over ``spec``; returns a :class:`CaseReport`.

    Any oracle *crash* (not just a wrong answer) is recorded as a
    divergence against the interpreter — an engine that errors on a
    grammar-legal case has diverged from the reference, which accepts
    it.
    """
    start = time.perf_counter()
    divergences = []
    case = build_case(spec)
    expected = np.asarray(interpret(case.program).result_for(case.output))
    count, workers = _BATCH_SHAPE.get(profile, _BATCH_SHAPE["quick"])
    rows = battery(chaos)
    ops = {}
    labels = {}
    ledgers = {}
    for row in rows:
        try:
            label, outputs, n_ops, ledger = row.run(row.name, spec, count,
                                                    workers)
        except Exception as exc:
            divergences.append(_crash(row.name, exc))
            continue
        ops[row.name] = n_ops
        labels[row.name] = label
        ledgers[row.name] = ledger
        datasets = count if row.batch else 1
        if row.name == CHAOS_ORACLE and ledger.get("crashes", 0) < 1:
            divergences.append(Divergence(
                "interpreter", label, "no fault fired",
                "armed %r but the ledger shows %r" % (CHAOS_PLAN, ledger)))
        if len(outputs) != datasets:
            divergences.append(Divergence(
                "interpreter", label, "dataset count",
                "%d datasets in, %d results out"
                % (datasets, len(outputs))))
        want = ops.get(row.ops_ref)
        if want is not None and n_ops != datasets * want:
            divergences.append(Divergence(
                row.ops_ref, label, "op count",
                "%d datasets x %d ops != %d" % (count, want, n_ops)
                if row.batch else "%d vs %d" % (want, n_ops)))
        if row.batch and row.name != CHAOS_ORACLE:
            first = next(r.name for r in rows if r.batch and r.name in ops)
            if n_ops != ops[first]:
                divergences.append(Divergence(
                    first, label, "op count",
                    "%d vs %d" % (ops[first], n_ops)))
        for pos, got in enumerate(outputs):
            _compare(divergences, "interpreter", label, expected, got,
                     what="output[dataset %d]" % pos if row.batch
                     else "output")
    return CaseReport(spec, divergences, ("interpreter",)
                      + tuple(row.name for row in rows),
                      time.perf_counter() - start,
                      c_backend=labels.get("c_backend"),
                      c_fallback=ledgers.get("c_backend"))


def fuzz_one(seed, profile="quick", chaos=False):
    """Generate the case for ``seed`` and conform it; the one-call API
    (``fl.fuzz_one(seed)``)."""
    return conform_spec(generate_spec(seed, profile), profile=profile,
                        chaos=chaos)
