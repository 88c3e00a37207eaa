"""The seven workloads: each wait a user of the compiler pays for.

ingest -> compile (cold, or served by one cache tier) -> run (once
pre-bound, per request with fresh operands, or mapped over a batch).
Every layer is driven from outside through its public functions; a
workload's ``setup`` does everything that happens before the first
timed op, ``kinds`` are the timed ops, and ``probe`` (traced runs
only) measures the same layers' remaining public calls.

Sample counts are per kind at :data:`REF_SECONDS` of timed phase on
the two-core box the benchmark was sized on; ``--seconds`` scales them
linearly.  They are fixed so that both sides of a comparison do
identical work.
"""

import copy
import os
import subprocess
import sys

import numpy as np

import programs as P
import repro.lang as fl
from harness import Kind
from repro import codegen
from repro.cin.analyze import check_program, structural_key
from repro.codegen import toolchain
from repro.compiler.kernel import (
    CompiledKernel,
    artifact_cache_key,
    resolve_name_overrides,
)
from repro.ir.runtime import kernel_globals
from repro.service.client import ServiceClient, service_stats
from repro.store import KernelStore, meta_for_artifact
from repro.tensors.share import share_dataset

#: Seconds of timed phase the sample counts below were sized for.
REF_SECONDS = 8

#: Worker threads / processes of the batch workload (= nproc here).
WORKERS = 2

BACKENDS = {"py": "python", "c": "c"}


class Inputs:
    """Raw operands and ingested tensors of one seed, made on first
    use.  A timed set-up gets a fresh one; a traced run shares one
    between workloads, whose set-up time nobody reports."""

    def __init__(self, seed, rec, workdir):
        self.seed = seed
        self.rec = rec
        self.workdir = workdir
        self._raw = {}
        self._tensors = {}

    def raw(self, name):
        if name not in self._raw:
            self._raw[name] = P.raw_inputs(name, self.seed)
        return self._raw[name]

    def tensors(self, name):
        if name not in self._tensors:
            raw = self.raw(name)
            with self.rec.span("setup.ingest." + name):
                self._tensors[name] = P.ingest(name, raw)
        return self._tensors[name]


class Workload:
    """Base: ``setup`` fills ``kinds``; ``teardown`` releases what it
    opened; ``audit`` returns ops that layer counters say went wrong;
    ``probe`` adds trace-only spans."""

    name = None
    #: Whether worker processes of its own do part of the work (their
    #: memory then counts into ``peak_rss_mb``).
    has_workers = False

    def __init__(self):
        self.kinds = []

    def setup(self, inputs, tag):
        raise NotImplementedError

    def teardown(self):
        self.kinds = []

    def audit(self):
        return 0

    def probe(self, rec):
        pass


# -- ingest ---------------------------------------------------------------

class Ingest(Workload):
    """``fl.from_numpy`` / ``Tensor.to_numpy``: the element-by-element
    scan in ``tensors/construct.py`` is the largest unmeasured cost in
    time-to-first-result, and part of every other ``setup_s``."""

    name = "ingest"
    SAMPLES = {"vec_sparse": 30, "vec_band": 30, "mat_sparse": 10,
               "mat_vbl": 10, "img_rle": 300, "img_packbits": 300,
               "to_numpy.mat_sparse": 30, "to_numpy.img_rle": 300}

    def setup(self, inputs, tag):
        arrays = P.ingest_arrays(inputs.seed)
        self.kinds = []
        for kind, (formats, fill) in P.INGEST_KINDS.items():
            self.kinds.append(self._from_numpy(
                kind, arrays[kind], formats, fill))
        for kind in ("mat_sparse", "img_rle"):
            formats, fill = P.INGEST_KINDS[kind]
            tensor = fl.from_numpy(arrays[kind], formats, fill=fill)
            self.kinds.append(self._to_numpy(kind, tensor,
                                             arrays[kind]))

    def _from_numpy(self, kind, array, formats, fill):
        def op():
            return fl.from_numpy(array, formats, fill=fill)

        def check():
            back = op().to_numpy()
            return 1, int(not (back.dtype == array.dtype
                               and np.array_equal(back, array)))

        return Kind(kind, self.SAMPLES[kind], op, check=check,
                    span="tensors.from_numpy_ms." + kind)

    def _to_numpy(self, kind, tensor, array):
        def check():
            return 1, int(not np.array_equal(tensor.to_numpy(), array))

        name = "to_numpy." + kind
        return Kind(name, self.SAMPLES[name], tensor.to_numpy,
                    check=check, span="tensors.to_numpy_ms." + kind)


# -- compile_cold ---------------------------------------------------------

def _unique_c_source(kernel, salt):
    """The kernel's C source with a trailing comment: a new digest, so
    ``compile_shared`` cannot answer from its per-process memo."""
    return "%s\n/* %s */\n" % (kernel.c_source, salt)


class CompileCold(Workload):
    """``compile_kernel(program, cache=False, name=<unique>)``: key ->
    lower -> optimize -> emit -> exec (-> C emit -> cc -> dlopen).  No
    tier is touched.  The unique name makes every C op pay a real
    ``cc``: the toolchain memoises by source digest per process and
    would otherwise hide it."""

    name = "compile_cold"
    SAMPLES = 25
    C_FIGS = ("fig1", "fig8")

    def setup(self, inputs, tag):
        codegen.have_toolchain()
        self.inputs = inputs
        self.tag = tag
        self.serial = 0
        self.seen_so = set()
        self.kinds = [self._kind(fig, "py") for fig in P.FIGS]
        self.kinds += [self._kind(fig, "c") for fig in self.C_FIGS]
        for kind in self.kinds:
            kind.op(kind.prepare())

    def _kind(self, fig, be):
        tensors = self.inputs.tensors(fig)
        backend = BACKENDS[be]
        expected = P.reference(fig, self.inputs.raw(fig))

        def prepare():
            self.serial += 1
            return (P.build(fig, tensors),
                    "cold_%s_%d" % (self.tag, self.serial))

        def op(arg):
            (program, _), name = arg
            return fl.compile_kernel(program, cache=False, name=name,
                                     backend=backend)

        def verify(arg, kernel):
            if kernel.from_cache:
                return False
            if be == "py":
                return True
            so_path = kernel.so_path
            fresh = (kernel.effective_backend == "c"
                     and so_path not in self.seen_so
                     and os.path.exists(so_path))
            self.seen_so.add(so_path)
            return fresh

        def check():
            arg = prepare()
            kernel = op(arg)
            kernel.run()
            good = verify(arg, kernel) and P.matches(
                fig, P.value_of(arg[0][1]), expected)
            return 1, int(not good)

        def decompose(rec, parent, arg, kernel):
            (program, _), name = arg
            with rec.span("cin.structural_key_us." + fig, parent):
                structural_key(program)
            with rec.span("ir.py_exec_ms." + fig, parent):
                exec(compile(kernel.source, "<perf-replay>", "exec"),
                     kernel_globals())
            if be == "c":
                source = _unique_c_source(kernel, name)
                with rec.span("codegen.cc_ms." + fig, parent):
                    so_path = toolchain.compile_shared(source, name)
                with rec.span("codegen.dlopen_us." + fig, parent):
                    toolchain.load_symbol(so_path, name)

        return Kind("%s.%s" % (fig, be), self.SAMPLES, op,
                    prepare=prepare, verify=verify, check=check,
                    span="compiler.cold_ms.%s.%s" % (fig, be),
                    decompose=decompose)

    def probe(self, rec):
        """Optimizer cost (default level minus level 0), program
        validation, the spec round trip, and emitted-code size."""
        for fig in P.FIGS:
            tensors = self.inputs.tensors(fig)
            for _ in range(3):
                program = P.build(fig, tensors)[0]
                with rec.span("compiler.cold0_ms." + fig):
                    fl.compile_kernel(program, cache=False,
                                      opt_level=0)
            kernel = fl.compile_kernel(P.build(fig, tensors)[0],
                                       cache=False)
            rec.values["ir.opt_lines." + fig] = len(
                kernel.source.splitlines())
        program = P.build("fig8", self.inputs.tensors("fig8"))[0]
        for _ in range(50):
            with rec.span("cin.check_program_us"):
                check_program(program)
        for be, backend in BACKENDS.items():
            artifact = fl.compile_kernel(
                program, cache=False, backend=backend).artifact
            for _ in range(5):
                with rec.span("compiler.spec_roundtrip_ms.fig8." + be):
                    CompiledKernel.from_spec(artifact.to_spec())


# -- compile_warm ---------------------------------------------------------

def start_service(store_dir):
    """Start ``python -m repro.service`` on an ephemeral loopback
    port; returns ``(process, url)`` once it answers."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(fl.__file__)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.service", "--store", store_dir,
         "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        env=env)
    line = proc.stdout.readline()
    url = line.strip().rsplit(" ", 1)[-1]
    if not url.startswith("http") or \
            ServiceClient(url).healthz() is None:
        stop_process(proc)
        raise RuntimeError("kernel service did not start: %r" % line)
    return proc, url


def stop_process(proc):
    proc.terminate()
    try:
        proc.wait(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    proc.stdout.close()


class CompileWarm(Workload):
    """``compile_kernel(fresh_program)`` served by exactly one tier.
    Lowering and ``cc`` are bypassed; time goes to key derivation,
    the tier lookup, the ``from_spec`` rebuild (``exec``, ``dlopen``)
    and HTTP.  Store writes (warming) land in ``setup_s``."""

    name = "compile_warm"
    SAMPLES = {"memory": 3000, "disk": 400, "remote": 230}
    FIGS = ("fig1", "fig8")
    TIERS = ("memory", "disk", "remote")

    def __init__(self):
        super().__init__()
        self.service = None

    def setup(self, inputs, tag):
        self.inputs = inputs
        rec = inputs.rec
        self.store = KernelStore(
            os.path.join(inputs.workdir, "store-" + tag))
        served = KernelStore(
            os.path.join(inputs.workdir, "served-" + tag))
        self.artifacts = {}
        for fig in self.FIGS:
            for be, backend in BACKENDS.items():
                artifact = fl.compile_kernel(
                    P.build(fig, inputs.tensors(fig))[0], cache=False,
                    backend=backend).artifact
                self.artifacts[fig, be] = artifact
                meta, spec = meta_for_artifact(artifact), \
                    artifact.to_spec()
                with rec.span("store.save_spec_ms." + be):
                    self.store.save_spec(meta, spec,
                                         so_path=artifact.so_path)
                served.save_spec(meta, spec, so_path=artifact.so_path)
        with rec.span("service.start_ms"):
            self.service, self.url = start_service(served.root)
        self.client = ServiceClient(self.url)
        self.expected = {"disk": 0, "remote": 0}
        self.before = self._counters()
        self.kinds = [self._kind(tier, fig, be)
                      for tier in self.TIERS for fig in self.FIGS
                      for be in BACKENDS]
        for kind in self.kinds:
            kind.op(kind.prepare())

    def _counters(self):
        disk = self.store.stats()
        remote = service_stats()
        return {"disk": disk["hits"], "remote": remote["remote_hits"],
                "bad": disk["misses"] + disk["quarantined"]
                + remote["remote_misses"] + remote["remote_errors"]
                + remote["remote_degraded"]}

    def _kind(self, tier, fig, be):
        tensors = self.inputs.tensors(fig)
        backend = BACKENDS[be]
        artifact = self.artifacts[fig, be]
        meta = meta_for_artifact(artifact)
        expected = P.reference(fig, self.inputs.raw(fig))
        cache = fl.kernel_cache()
        where = {"memory": dict(store=False, remote=False),
                 "disk": dict(store=self.store, remote=False),
                 "remote": dict(store=False, remote=self.url)}[tier]

        def prepare():
            # One tier must answer: the memory kinds find the artifact
            # re-seeded, the others find the memory tier empty.
            cache.clear()
            if tier == "memory":
                cache.store(artifact_cache_key(artifact), artifact)
            else:
                self.expected[tier] += 1
            return P.build(fig, tensors)

        def op(arg):
            return fl.compile_kernel(arg[0], backend=backend, **where)

        def verify(arg, kernel):
            return kernel.from_cache

        def check():
            arg = prepare()
            kernel = op(arg)
            kernel.run()
            good = kernel.from_cache and P.matches(
                fig, P.value_of(arg[1]), expected)
            return 1, int(not good)

        def decompose(rec, parent, arg, kernel):
            with rec.span("cin.structural_key_us." + fig, parent):
                skey = structural_key(arg[0])
            if tier == "disk":
                with rec.span("store.key_meta_us", parent):
                    self.store.key_meta(
                        skey, instrument=False, name=artifact.name,
                        constant_loop_rewrite=True,
                        opt_level=artifact.opt_level, backend=backend)
                self.expected["disk"] += 1
                with rec.span("store.load_artifact_ms." + be, parent):
                    self.store.load_artifact(meta)
            elif tier == "remote":
                self.expected["remote"] += 1
                with rec.span("service.fetch_ms." + be, parent):
                    self.client.fetch(meta)

        if tier == "memory" and be == "py":
            span = "compiler.memory_hit_us." + fig
        else:
            span = "compile_warm.%s.%s.%s" % (tier, fig, be)
        return Kind("%s.%s.%s" % (tier, fig, be), self.SAMPLES[tier],
                    op, prepare=prepare, verify=verify, check=check,
                    span=span, decompose=decompose)

    def audit(self):
        """Ops a tier's own counters say it did not serve."""
        after = self._counters()
        wrong = after["bad"] - self.before["bad"]
        for tier in ("disk", "remote"):
            wrong += abs(after[tier] - self.before[tier]
                         - self.expected[tier])
        return wrong

    def probe(self, rec):
        artifact = self.artifacts["fig8", "py"]
        meta, spec = meta_for_artifact(artifact), artifact.to_spec()
        for _ in range(3):
            with rec.span("service.push_ms"):
                self.client.push(meta, spec)
        stats = self.store.stats()
        rec.values["store.entry_bytes"] = stats["bytes"]
        rec.values["store.hits"] = stats["hits"]
        rec.values["store.misses"] = stats["misses"]
        remote = service_stats()
        rec.values["service.remote_hits"] = remote["remote_hits"]
        rec.values["service.errors"] = remote["remote_errors"]

    def teardown(self):
        if self.service is not None:
            stop_process(self.service)
            self.service = None
        super().teardown()


# -- run_python / run_c -----------------------------------------------------

class RunKernels(Workload):
    """Pre-bound ``kernel.run()`` of the six figure kernels: time is
    in the emitted loop body.  With ``backend="c"`` requested, the
    kernels the C emitter cannot express fall back to python and are
    timed as such."""

    SAMPLES = {
        "python": {"fig1": 20000, "fig7": 200, "fig8": 50,
                   "fig9": 800, "fig10": 1800, "fig11": 400},
        "c": {"fig1": 20000, "fig7": 260, "fig8": 2000,
              "fig9": 1000, "fig10": 2400, "fig11": 520},
    }

    def __init__(self, be):
        super().__init__()
        self.be = be
        self.backend = BACKENDS[be]
        self.name = "run_" + self.backend

    def setup(self, inputs, tag):
        self.inputs = inputs
        self.kernels = {}
        self.kinds = []
        codegen.clear_fallback_events()
        for fig in P.FIGS:
            program, output = P.build(fig, inputs.tensors(fig))
            kernel = fl.compile_kernel(
                program, cache=False, backend=self.backend,
                name="run_%s_%s" % (self.be, tag))
            kernel.run()
            self.kernels[fig] = kernel
            self.kinds.append(Kind(
                fig, self.SAMPLES[self.backend][fig], kernel.run,
                check=self._check(fig, kernel, output),
                span="run.ms.%s.%s" % (fig, self.be)))
        if self.be == "c":
            native = [fig for fig, kernel in self.kernels.items()
                      if kernel.effective_backend == "c"]
            values = inputs.rec.values
            values["codegen.effective_c_share"] = \
                len(native) / len(P.FIGS)
            values["codegen.fallbacks"] = len(codegen.fallback_events())
            for fig in native:
                kernel = self.kernels[fig]
                values["codegen.c_bytes." + fig] = len(
                    kernel.c_source.encode())
                values["codegen.so_bytes." + fig] = os.path.getsize(
                    kernel.so_path)

    def _check(self, fig, kernel, output):
        expected = P.reference(fig, self.inputs.raw(fig))

        def check():
            kernel.run()
            got = P.value_of(output)
            good = P.matches(fig, got, expected)
            if good and kernel.effective_backend == "c":
                # The C backend's contract with the python backend is
                # bit-identity, not a tolerance.
                program, twin = P.build(fig, self.inputs.tensors(fig))
                fl.compile_kernel(program, cache=False).run()
                good = np.array_equal(got, P.value_of(twin))
            return 1, int(not good)

        return check

    def probe(self, rec):
        if self.be != "py":
            return
        for fig in P.FIGS:
            program = P.build(fig, self.inputs.tensors(fig))[0]
            rec.values["run.ops." + fig] = int(fl.compile_kernel(
                program, cache=False, instrument=True).run())
            baseline = _paper_baseline(fig, self.inputs.raw(fig))
            for _ in range(3):
                with rec.span("baselines.time." + fig):
                    baseline()


def _paper_baseline(fig, raw):
    """The paper's comparison point for one figure: the two-finger
    merge (fig1/7/8) or dense loops (fig9/10/11), in the same
    execution model as the python kernels."""
    from repro.baselines import dense_ref, twofinger
    from repro.bench import figures

    if fig == "fig1":
        a, b = twofinger.coords_of(raw["a"]), \
            twofinger.coords_of(raw["b"])
        return lambda: twofinger.dot_merge(*a, *b)
    if fig == "fig7":
        csr = twofinger.csr_of(raw["mat"])
        x = twofinger.coords_of(raw["vec"])
        rows = raw["mat"].shape[0]
        return lambda: twofinger.spmspv_merge(*csr, *x, rows)
    if fig == "fig8":
        pos, idx, _ = twofinger.csr_of(raw["adj"])
        n = raw["adj"].shape[0]
        return lambda: twofinger.triangle_count_merge(pos, idx, n)
    if fig == "fig9":
        return lambda: dense_ref.convolve2d_loops(raw["grid"],
                                                  raw["filt"])
    if fig == "fig10":
        return lambda: dense_ref.alpha_blend_loops(
            raw["img_b"], raw["img_c"], figures.FIG10_ALPHA,
            figures.FIG10_BETA)
    return lambda: dense_ref.all_pairs_loops(raw["images"])


# -- dispatch_small -------------------------------------------------------

def _scaled_clone(tensor, factor):
    """A tensor with ``tensor``'s structure and ``factor`` times its
    stored values (what a second ingest of scaled data would give)."""
    clone = copy.deepcopy(tensor)
    clone.element.val *= factor
    return clone


class DispatchSmall(Workload):
    """``kernel.run(A=..., B=...)`` and ``rebind`` + ``run`` over 64
    operand sets: the body is a few microseconds, so time is
    ``validate``/``bind``, name resolution and the ctypes marshal —
    per-request rebinding, which is also what a batch worker does."""

    name = "dispatch_small"
    SAMPLES = 25000
    SETS = 64
    PROGRAMS = ("fig1", "dot64")

    def setup(self, inputs, tag):
        self.kinds = []
        rng = np.random.default_rng([inputs.seed, 4])
        for name in self.PROGRAMS:
            base = inputs.tensors(name)
            base_ref = P.reference(name, inputs.raw(name))
            factors = rng.random((self.SETS, 2)) + 0.5
            factors[0] = 1.0
            operands = [
                (_scaled_clone(base["A"], fa), _scaled_clone(base["B"],
                                                             fb))
                for fa, fb in factors]
            expected = [base_ref * fa * fb for fa, fb in factors]
            for be, backend in BACKENDS.items():
                program, output = P.build(name, dict(
                    A=operands[0][0], B=operands[0][1]))
                kernel = fl.compile_kernel(
                    program, cache=False, backend=backend,
                    name="dispatch_%s_%s" % (be, tag))
                for mode in ("override", "rebind"):
                    self.kinds.append(self._kind(
                        name, be, mode, kernel, output, operands,
                        expected))
        for kind in self.kinds:
            kind.op(kind.prepare())

    def _kind(self, name, be, mode, kernel, output, operands,
              expected):
        cursor = [0]

        def prepare():
            cursor[0] = (cursor[0] + 1) % self.SETS
            return operands[cursor[0]]

        if mode == "override":
            def op(arg):
                kernel.run(A=arg[0], B=arg[1])
        else:
            def op(arg):
                kernel.rebind(A=arg[0], B=arg[1])
                kernel.run()

        def check():
            failed = 0
            for arg, want in zip(operands, expected):
                op(arg)
                failed += not P.matches(name, output.value, want)
            return len(operands), failed

        artifact = kernel.artifact
        suffix = "%s.%s" % (name, be)

        def decompose(rec, parent, arg, result):
            tensors = resolve_name_overrides(
                kernel.tensors, {"A": arg[0], "B": arg[1]})
            with rec.span("compiler.bind_us." + suffix, parent):
                args = artifact.bind(tensors)
            with rec.span("run.fn_us." + suffix, parent):
                artifact.fn(*args)

        return Kind("%s.%s" % (suffix, mode), self.SAMPLES, op,
                    prepare=prepare, check=check, decompose=decompose,
                    span="dispatch.%s.%s" % (suffix, mode))


# -- batch_map ------------------------------------------------------------

class BatchMap(Workload):
    """One ``KernelPool.map`` over a fixed 56-dataset batch: the only
    workload where ``exec/batch.py``, ``pool.py``, ``shm.py`` and
    ``worker.py`` do work.  GIL-bound python SpMSpV against
    GIL-releasing C triangle counting separates executor overhead
    from kernel time."""

    name = "batch_map"
    has_workers = True
    SAMPLES = {"spmspv.py": 10, "triangles.c": 50}
    COPIES = 8
    #: label -> (program, backend).  The cheap C program comes first,
    #: so the first map of each executor is mostly the pool's start.
    PROGRAMS = {"triangles.c": ("fig8", "c"),
                "spmspv.py": ("fig7", "python")}
    EXECUTORS = ("threads", "processes")
    #: kinds whose stage overheads are reported.
    STAGED = ("spmspv.py.processes", "triangles.c.threads")

    def __init__(self):
        super().__init__()
        self.pools = []
        self.worker_pool = self.arena = None

    def setup(self, inputs, tag):
        rec = inputs.rec
        seed = inputs.seed
        mats = P.batch_matrices(seed)
        vec = P.batch_vector(seed)
        factors = np.random.default_rng([seed, 5]).random(
            (len(mats), self.COPIES)) + 0.5
        factors[:, 0] = 1.0
        self.arena = fl.ShmArena()
        self.worker_pool = fl.WorkerPool(max_workers=WORKERS)
        self.kinds = []
        self.serial = {}
        rec.values["exec.batch_items"] = len(mats) * self.COPIES
        x = fl.from_numpy(vec, ("sparse",), name="x")
        bases = []
        for mat in mats:
            with rec.span("setup.ingest.batch"):
                bases.append(fl.from_numpy(mat, ("dense", "sparse"),
                                           name="A"))
        for label, (fig, backend) in self.PROGRAMS.items():
            datasets, expected = [], []
            for mat, base, row in zip(mats, bases, factors):
                for factor in row:
                    if fig == "fig7":
                        datasets.append({
                            "y": fl.zeros(mat.shape[0], name="y"),
                            "A": _scaled_clone(base, factor), "x": x})
                        expected.append((mat * factor) @ vec)
                    else:
                        twin = _scaled_clone(base, factor)
                        twin.name = "AT"
                        datasets.append({
                            "C": fl.Scalar(name="C"),
                            "A": _scaled_clone(base, factor),
                            "AT": twin})
                        expected.append(
                            float(((mat @ mat) * mat).sum())
                            * factor ** 3)
            with rec.span("exec.shm_adopt_ms"):
                for dataset in datasets:
                    share_dataset(dataset, self.arena)
            # The template's own output is a 57th tensor, so no
            # dataset shares an output buffer with it.
            kernel = fl.compile_kernel(
                P.build(fig, datasets[0])[0], cache=False,
                backend=backend, name="batch_" + tag)
            cold = len(self.pools) < len(self.EXECUTORS)
            for executor in self.EXECUTORS:
                with rec.span(("exec.pool_start_ms." if cold
                               else "setup.pool_warm.") + executor):
                    pool = fl.KernelPool(
                        kernel, executor=executor, max_workers=WORKERS,
                        worker_pool=(self.worker_pool
                                     if executor == "processes"
                                     else None))
                    pool.map(datasets)
                self.pools.append(pool)
                self.kinds.append(self._kind(
                    "%s.%s" % (label, executor), self.SAMPLES[label],
                    fig, pool, datasets, expected))
            self.serial[label] = (kernel, datasets)

    def _kind(self, name, samples, fig, pool, datasets, expected):
        def op():
            return pool.map(datasets)

        def verify(arg, result):
            if len(result) != len(expected) or result.failures \
                    or any(result.faults.values()):
                return False
            return all(
                P.matches(fig, np.reshape(item.outputs[0],
                                          np.shape(want)), want)
                for item, want in zip(result.items, expected))

        def decompose(rec, parent, arg, result):
            rec.counts["exec.faults"] += sum(
                bool(v) for v in result.faults.values())
            if name in self.STAGED:
                for stage, seconds in result.overhead.items():
                    rec.values.setdefault(
                        "exec.%s.%s" % (stage, name), []).append(
                            seconds)

        return Kind(name, samples, op, verify=verify,
                    decompose=decompose, span="exec.map." + name)

    def probe(self, rec):
        for label, (kernel, datasets) in self.serial.items():
            with fl.KernelPool(kernel, executor="serial") as pool:
                for _ in range(2):
                    with rec.span("exec.map.%s.serial" % label):
                        pool.map(datasets)

    def teardown(self):
        for pool in self.pools:
            pool.close()
        self.pools = []
        if self.worker_pool is not None:
            self.worker_pool.close()
            self.arena.close()
            self.worker_pool = self.arena = None
        super().teardown()


def make(name):
    """A fresh workload object by name."""
    return {
        "ingest": Ingest,
        "compile_cold": CompileCold,
        "compile_warm": CompileWarm,
        "run_python": lambda: RunKernels("py"),
        "run_c": lambda: RunKernels("c"),
        "dispatch_small": DispatchSmall,
        "batch_map": BatchMap,
    }[name]()


#: Workload names, in the order a user meets them.
NAMES = ("ingest", "compile_cold", "compile_warm", "run_python",
         "run_c", "dispatch_small", "batch_map")
