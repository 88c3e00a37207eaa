"""Concept guards: a concept this codebase removed stays removed.

Each row of ``GUARDS`` is one guard: a regex, the files it searches,
the paths where a hit is allowed, and the message a hit fails with.
A row searches the files ``grep -r`` would (``*.py`` only unless
``py_only`` is off; ``__pycache__`` is build output and never searched),
or the tracked files ``git grep`` would.  A row with ``only`` names the
one file its pattern must appear in, and no other.  Every row carries
an ``example``, one violating line it must fire on.

What the rows keep singular: one rebuild path (a spec comes back to an
artifact only through ``repro.compiler.tiers.rebuild``; the fuzz oracle
round-trips ``from_spec`` itself on purpose), one configure entry point
(the ``configure_store``/``configure_pool`` shims stay deleted), one
place that reads the environment (``util/config.py``; ``chaos/`` is
exempt: its ``FL_CHAOS``/``FL_CHAOS_STATE`` variables are parent->child
IPC it also writes, and its campaign points workers at a store), one
place that turns a format name into a class, a builder, a protocol
tuple or a leaf rule (``formats/``: the Level class and the FORMATS
registry; ``bench/`` is exempt, the figure configs pick formats by
name; "dense", "sparse" and "band" are left out of the pattern, they
are also data shapes and the demo's operands), one thing in the repo
that times anything (``perf/``, declared by BENCHMARK.json; the paper's
op-count claims are tier-1 tests in ``tests/paper/``; the brackets keep
the pattern from matching itself), one kind of kernel argument (every
argument is an ndarray: append outputs are arrays, so the builder
objects and their pickled transport stay deleted), two access
protocols with one spelling each (walk and gallop) and no search that
respells them (the autotuner and the store's tuning records stay
deleted), and a closed target
IR (no opaque Raw statement, and so no regex built over emitted text to
guess what a line reads and writes: a dense reset and a vectorized loop
are Slice/Reduce nodes, and effects are read off the nodes), and one
way to prepare a call (a bind-plan entry keeps it; the kernel entry
memoizes nothing), and one read of a binding (a bind reads each
tensor once, through ``kernel_pins()``, and takes no role dict).

Run alone with ``python -m pytest tests/test_concepts.py -q``.
"""

import functools
import os
import re
import subprocess
from dataclasses import dataclass
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

OPNAMES = ("add|sub|neg|mul|div|floordiv|mod|pow|min|max|eq|ne|lt|le|gt|"
           "ge|and|or|not|abs|sqrt|coalesce|ifelse|round_u8|search_ge|"
           "search_abs_ge")
CONSUMERS = ("src/repro/codegen/c_emit.py", "src/repro/ir/dtypes.py",
             "src/repro/ir/emit.py", "src/repro/ir/pretty.py",
             "src/repro/ir/runtime.py")


@dataclass(frozen=True)
class Guard:
    name: str
    pattern: str        # searched line by line
    paths: tuple        # files and directories searched ("." is the repo)
    message: str
    example: tuple      # (path, line): one violation the row must report
    allowed: str = None  # regex over a path: hits in it are allowed
    py_only: bool = True
    only: str = None     # the one file the pattern must appear in
    tracked: bool = False
    absent: str = None   # a file that must not exist


GUARDS = (
    Guard("from_spec", r"\bfrom_spec\(", ("src/repro",),
          "from_spec( called outside compiler/kernel.py, compiler/tiers.py"
          " and fuzz/conform.py",
          ("src/repro/lang.py", "artifact = CompiledKernel.from_spec(spec)"),
          allowed=r"^src/repro/(compiler/(kernel|tiers)|fuzz/conform)\.py$"),
    Guard("configure_shims", r"configure_store|configure_pool",
          ("src", "docs", "examples"),
          "the configure_store/configure_pool shims are gone: use"
          " fl.configure(...)",
          ("docs/execution.md", "fl.configure_pool(max_workers=2)"),
          py_only=False),
    Guard("os_environ", r"os\.environ", ("src/repro",),
          "os.environ read outside util/config.py: register an Option and"
          " use config.resolve(...)",
          ("src/repro/exec/pool.py", 'n = os.environ.get("FL_POOL_MAX")'),
          allowed=r"^src/repro/(util/config\.py|chaos/)"),
    Guard("level_builders", r"\b(_make_level|_BUILDERS)\b", ("src/repro",),
          "_make_level/_BUILDERS are gone: a format is its Level class"
          " (NAME, ARRAYS, build) plus a FORMATS line",
          ("src/repro/formats/__init__.py", "_BUILDERS = {}")),
    Guard("format_names",
          r"[\"'](sparse_list|vbl|rle|packbits|bitmap|ragged)[\"']",
          ("src/repro",),
          "format name outside formats/ and bench/: derive it from"
          " repro.formats.FORMATS / format_names()",
          ("src/repro/compiler/lower.py", 'if level.NAME == "rle":'),
          allowed=r"^src/repro/(formats|bench)/"),
    # One benchmark: every tracked file but the records and perf/.
    Guard("second_benchmark",
          r"check[_]regression|--bench[-]json|pytest[-]benchmark|"
          r"benchmarks[/]",
          (".",),
          "the second benchmark stack is gone: time things in perf/,"
          " assert op counts in tests/paper/",
          ("docs/compilation.md", "python -m pytest --bench" "-json o.json"),
          allowed=r"^(CHANGES\.md|ROADMAP\.md|ISSUE\.md|perf/)",
          py_only=False, tracked=True),
    Guard("output_builders", r"RunBuilder|SparseBuilder|obj_updates|"
          r"obj_outputs", ("src",),
          "append outputs are three ndarrays: no builder objects, no"
          " pickled obj transport",
          ("src/repro/tensors/output.py", "class RunBuilder:"),
          py_only=False),
    # One kind of kernel argument: every argument is an ndarray.  A
    # python kernel's element views are taken by its entry
    # (ir/runtime.python_entry), once per binding, from the view set
    # the artifact carries -- so no bind plan, spec, worker or C entry
    # ever holds one, the emitted source takes none, and both backends
    # prepare a bound call the one way (ir/runtime.make_entry): no View
    # statement, no fork on whether an entry can prepare.
    Guard("memoryview", r"memoryview", ("src/repro",),
          "memoryview outside ir/runtime.py: kernel arguments are"
          " ndarrays, views are taken by the python entry,"
          " runtime.python_entry",
          ("src/repro/compiler/kernel.py", "view = memoryview(buffer)"),
          only="src/repro/ir/runtime.py"),
    Guard("view_statement",
          r"class View\(|asm\.View|hasattr\(fn, \"prepare\"\)|"
          r"fn, \"prepare\"\)", ("src/repro",),
          "the View statement and the prepare fork are gone: a python"
          " entry views its binding (runtime.python_entry) and every"
          " entry has prepare()",
          ("src/repro/ir/asm.py", "class View(Stmt):")),
    # One way to prepare a call: a binding's prepared call is kept by
    # the bind-plan entry that checked it (compiler/kernel.PlanEntry),
    # and the kernel entry memoizes nothing -- no marshal that skips a
    # second memo, no miss filed across from one memo to the other.
    Guard("second_prepare", r"\b(prepare_new|_filing)\b",
          ("src/repro", "docs"),
          "prepare_new/_filing are gone: a bind-plan entry keeps its"
          " prepared call (CompiledKernel.plan_entry), and make_entry"
          " memoizes nothing",
          ("src/repro/ir/runtime.py", "entry.prepare_new = prepare_new"),
          py_only=False),
    Guard("raw_statement", r"\bRaw\b|raw_identifiers", ("src/repro",),
          "the opaque Raw statement is gone: build Slice/Reduce nodes"
          " (ir/nodes.py) and ask asm.effects",
          ("src/repro/ir/nodes.py", "class Raw(Stmt):"), py_only=False),
    # A pass is structural: it returns the node it was given when
    # nothing under it changed, and never reads source text.
    Guard("optimize_reads_text",
          r"repro\.ir\.emit|from repro\.ir import .*\bemit\b",
          ("src/repro/ir/optimize.py",),
          "ir/optimize.py imports repro.ir.emit: passes compare node"
          " identity, never source text",
          ("src/repro/ir/optimize.py", "from repro.ir import asm, emit")),
    # The lowerer emits folded code (ir/build.py's if_/for_, the
    # lowering context's let/accumulate): no pass folds constants or
    # deletes dead code after it.
    Guard("fold_pass", r"\b(fold_constants|_scalar_cleanup|dead_code)\b",
          ("src/repro",),
          "fold_constants/dead_code/_scalar_cleanup are gone: the lowerer"
          " folds as it builds (ir/build.py, compiler/context.py)",
          ("src/repro/ir/optimize.py", "def fold_constants(block):")),
    # A quoted operator name, or ``op.name`` anywhere but at the end of
    # an error message's ``% op.name)``.
    Guard("operator_by_name",
          r"[\"'](" + OPNAMES + r")[\"']"
          r"|^(?!.*% (expr\.)?op\.name\)$).*op\.name",
          CONSUMERS,
          "an operator is tested by name outside ir/ops.py: declare the"
          " fact on its Op (only error messages print op.name)",
          ("src/repro/ir/emit.py", "if op.name in lazy_ops:")),
    # Which parameters a python kernel views is one static pass over
    # numpy's promotion (ir/dtypes.py): no whole-kernel dtype gate, no
    # truth-value heuristic beside it.
    Guard("dtype_gate", r"\b_WIDE\b|\b_truth\(", ("src/repro/ir",),
          "the _WIDE gate and the _truth heuristic are gone: the dtype"
          " pass (ir/dtypes.py) decides each view",
          ("src/repro/ir/dtypes.py", "_WIDE = (np.float64,)")),
    # The C emitter types a kernel with that same pass: no lattice of
    # its own, and no operator declares a C type.
    Guard("c_type_lattice",
          r"\bc_type\b|\b(_infer_types|_RESULT_TYPES|_join_all)\b|"
          r"\bBOOL, I64, F64\b", ("src/repro",),
          "one type analysis: `c_emit` reads `ir/dtypes`",
          ("src/repro/codegen/c_emit.py", "ctype = op.c_type")),
    # min/max/coalesce print as conditional expressions (Op.python):
    # the kernel namespace binds no helper for them.
    Guard("coalesce_helper", r"_coalesce_runtime", ("src/repro",),
          "_coalesce_runtime is gone: coalesce prints as a lazy"
          " first-not-None chain (Op.python, ir/pretty.py)",
          ("src/repro/ir/runtime.py", "def _coalesce_runtime(*values):")),
    Guard("optimizer_tables",
          r"\b(_LAZY_OPS|_SAFE_OPS|_VEC_INFIX|_VEC_PAIRWISE|_VEC_UNARY|"
          r"_VEC_REDUCE|_ACCUM_SYMBOL)\b", ("src/repro/ir/optimize.py",),
          "the optimizer's per-operator tables are gone: read"
          " Op.lazy/.total/.numpy/.numpy_reduce/.accum",
          ("src/repro/ir/optimize.py", "_SAFE_OPS = frozenset()")),
    # Every optimizer step pays on a paper figure
    # (tests/ir/test_optimize.py::TestEveryStepPays); CSE did not.
    Guard("cse", r"\b(eliminate_common_subexprs|_cse_block|_Avail)\b",
          ("src/repro",),
          "CSE is gone: removing it changed no figure's run time"
          " (docs/compilation.md, the optimizer pipeline)",
          ("src/repro/ir/optimize.py", "def _cse_block(block):")),
    # A warm compile pays for its lookup: one walk over the program, a
    # code object only from the trusted store, one kept-alive
    # connection to the service.
    Guard("program_walks",
          r"\b(program_tensors|output_tensors|buffer_alias_groups)\(",
          ("src/repro/compiler/kernel.py",),
          "compile_kernel walks the program once: read the key, slots,"
          " outputs and alias groups off program_walk",
          ("src/repro/compiler/kernel.py", "outs = output_tensors(program)")),
    # One read of a binding: every bind reads each tensor once, through
    # kernel_pins(), and feeds parameters by position in that read --
    # no role dict is taken beside it.
    Guard("one_read_of_a_binding",
          r"\b(kernel_buffers|tensor_binding_buffers)\(",
          ("src/repro/compiler/kernel.py", "src/repro/exec/batch.py"),
          "a bind takes one kernel_pins() read per tensor (BindPlan.pins)"
          " and feeds parameters by position: no kernel_buffers() role"
          " dict in compiler/kernel.py or exec/batch.py",
          ("src/repro/exec/batch.py",
           "roles = [tensor_binding_buffers(t) for t in tensors]")),
    Guard("marshal", r"import marshal|marshal\.(loads|dumps)",
          ("src/repro",),
          "marshal outside store/disk.py: a code object is decoded by the"
          " .code sidecar reader, store/disk.decode_code, for the disk"
          " tier and a service fetch alike",
          ("src/repro/service/client.py", "import marshal"),
          only="src/repro/store/disk.py"),
    # A served entry crosses the wire as the store's bytes: the record
    # file and its sidecars, raw, framed by one header -- nothing is
    # re-encoded on either side.
    Guard("base64_wire", r"base64", ("src/repro/service",),
          "base64 under service/: GET /kernels sends the stored record"
          " and sidecar bytes as they are",
          ("src/repro/service/server.py", "import base64"), py_only=False),
    # A push is those bytes the other way: the server checks them with
    # readers that run nothing and files them verbatim -- no compile
    # queue, no rebuild of what it is sent.
    Guard("server_rebuilds",
          r"^\s*(from repro\.compiler\.tiers import|"
          r"import repro\.compiler\.tiers|import queue\b|from queue import)",
          ("src/repro/service/server.py",),
          "the service files the bytes it is sent; it rebuilds nothing",
          ("src/repro/service/server.py", "from queue import Queue")),
    # The store directory is the one kernel artifact a process hands
    # another: no pack format, loader or route beside it.
    Guard("pack_format",
          r"\b(flpack|load_pack|write_pack|read_pack|verify_pack|"
          r"fetch_pack|packs_dir|pack_downloads|PACK_VERSION)\b",
          ("src/repro",),
          "the .flpack pack is gone: CI ships, verifies and serves the"
          " store directory (python -m repro.store warm/verify)",
          ("src/repro/store/__init__.py", "def load_pack(path):")),
    # One recovery path: the worker pool retries a dataset whose worker
    # crashed or stalled (exec/pool.py).  Nothing re-runs a dataset in
    # the calling process on a lower executor -- a dataset that kills
    # its worker would take the caller down.
    Guard("degrade_ladder",
          r"\b(_DEGRADE_LADDER|StoreIOError)\b|[\"']degrade[\"']",
          ("src/repro",),
          "the degrade ladder and StoreIOError are gone: the worker"
          " pool's retry is the one recovery path (on_failure is raise or"
          " skip)",
          ("src/repro/exec/batch.py", 'on_failure = "degrade"')),
    Guard("urllib_client", r"urllib", ("src/repro/service/client.py",),
          "the service client keeps an http.client connection per"
          " process and thread: no urllib",
          ("src/repro/service/client.py", "import urllib.request")),
    # The protocols a program spells are the ones it compiles: no
    # search rewrites them, and the store keeps one record kind.
    Guard("autotuner", r"repro\.tune\b|FL_KERNEL_TUNE|\btune=|tunings",
          ("src/repro",),
          "the autotuner is gone: a program compiles with the protocols"
          " it spells, and the store keeps kernel entries only",
          ("src/repro/compiler/kernel.py",
           "opt_level=None, backend=None, tune=None,"),
          absent="src/repro/tune/__init__.py"),
    # Two protocols, one spelling each: follow and locate compiled
    # exactly like walk, an unmarked mode is stored as walk, and both
    # protocols lead a loop.  ``Level.locate``, the random access
    # writes use, is a method, not a quoted protocol name.
    Guard("protocol_names", r"[\"'](follow|locate)[\"']", ("src/repro",),
          "walk and gallop are the only protocols (cin/nodes.PROTOCOLS)",
          ("src/repro/formats/dense.py", 'PROTOCOLS = ("walk", "locate")')),
    Guard("protocol_defaults",
          r"\b(DEFAULT_PROTOCOL|LEADER_PROTOCOLS|_ensure_leader)\b",
          ("src/repro",),
          "an unmarked mode is walk and every protocol leads: no format"
          " default, no leader rule",
          ("src/repro/cin/nodes.py",
           'LEADER_PROTOCOLS = (None, "walk", "gallop", "follow")')),
    # One way to ask for a compile: keyword arguments, cache on or off,
    # and a spec that carries one python source.
    Guard("options_bundle",
          r"\b(CompileOptions|CACHE_MODES|raw_source)\b|\boptions=|"
          r"compiler\.options|cache *==? *[\"'](memory|disk)",
          ("src/repro",),
          "compile_kernel/execute/run_batch take keyword arguments only:"
          " no options bundle, no cache modes beyond True/False, no second"
          " source in the spec",
          ("src/repro/compiler/kernel.py", "def compile(p, options=None):"),
          absent="src/repro/compiler/options.py"),
)


def _in_scope(guard, path):
    if guard.py_only and not path.endswith(".py"):
        return False
    if guard.allowed and re.search(guard.allowed, path):
        return False
    return any(root == "." or path == root or path.startswith(root + "/")
               for root in guard.paths)


@functools.lru_cache(maxsize=None)
def _tree():
    """Every file under the repo, as a sorted tuple of posix paths:
    the tracked ones when git can list them."""
    try:
        listed = subprocess.run(
            ["git", "ls-files", "-z"], cwd=ROOT, capture_output=True,
            check=True).stdout.decode().split("\0")
        tracked = frozenset(path for path in listed if path)
    except (OSError, subprocess.CalledProcessError):
        tracked = None
    files = []
    for top, dirs, names in os.walk(ROOT):
        dirs[:] = [d for d in dirs if d not in ("__pycache__", ".git")]
        files += [Path(top, name).relative_to(ROOT).as_posix()
                  for name in names]
    return tuple(sorted(files)), tracked


@functools.lru_cache(maxsize=None)
def _read(path):
    return (ROOT / path).read_text(encoding="utf-8", errors="replace")


def _files(guard):
    files, tracked = _tree()
    if guard.tracked and tracked is not None:
        files = [path for path in files if path in tracked]
    return {path: _read(path) for path in files if _in_scope(guard, path)}


def _violations(guard, texts, exists=lambda path: (ROOT / path).exists()):
    """What ``guard`` reports over ``texts`` (path -> file contents)."""
    pattern = re.compile(guard.pattern)
    anywhere = re.compile(guard.pattern, re.MULTILINE)
    hits = [
        "%s:%d: %s" % (path, number, line.strip())
        for path, text in texts.items()
        if _in_scope(guard, path) and anywhere.search(text)
        for number, line in enumerate(text.split("\n"), 1)
        if pattern.search(line)
    ]
    if guard.only is not None:
        files = sorted({hit.split(":", 1)[0] for hit in hits})
        return [] if files == [guard.only] else files or ["(no file)"]
    if guard.absent is not None and exists(guard.absent):
        hits.append("%s exists" % guard.absent)
    return hits


@pytest.mark.parametrize("guard", GUARDS, ids=lambda guard: guard.name)
def test_removed_concept_stays_removed(guard):
    found = _violations(guard, _files(guard))
    assert not found, "\n".join([guard.message] + found)


@pytest.mark.parametrize("guard", GUARDS, ids=lambda guard: guard.name)
def test_guard_fires_on_its_example(guard):
    path, line = guard.example
    assert _violations(guard, {path: line})
    if guard.absent is not None:
        assert _violations(guard, {}, exists=lambda path: True)
