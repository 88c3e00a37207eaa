"""Kernel assembly: compile a CIN program to an executable Python
function, once per program *structure*.

Compilation is decoupled from data.  ``compile_kernel`` analyzes the
program, lowers it, wraps the emitted statements in a function whose
parameters are the bound buffers, and ``exec``s the source — but the
result of all that work is a :class:`CompiledKernel` *artifact* that
depends only on the program's structural key (tree shape plus each
tensor's format signature; see
:func:`repro.cin.analyze.structural_key`), never on the concrete
arrays.  The artifact records a *binding plan* mapping every kernel
parameter to a ``(slot, role)`` pair — slot = the tensor's position in
first-use order, role = which of its buffers (``lvl0_pos``, ``val``,
``coords``, ...) — so the same artifact can be re-bound to any
tensors with matching signatures.

The compile-once/run-many lifecycle::

    kernel = compile_kernel(program)   # miss: lower + emit + exec
    kernel.run()                       # run against the bound tensors
    kernel.rebind({"A": other_A})      # re-point a slot at new data
    kernel.run()
    kernel.run(A=third_A)              # or override for a single call

Artifacts live in a process-wide LRU :class:`KernelCache` keyed by
the kernel's one identity, :class:`~repro.compiler.key.KernelKey`
(structural key, instrument, name, constant_loop_rewrite, opt_level,
backend); the tiers below it — disk store, fleet service — are
walked by :func:`repro.compiler.tiers.read_through`.  A
second ``compile_kernel``/``execute`` of a structurally-identical
program — same tree, same formats, fresh data — skips lowering,
emission, and ``exec`` entirely and just rebinds the cached artifact
(``cache=False`` opts out).  ``KernelCache.stats()`` exposes hit/miss
counters; the benchmark harness prints them alongside compile and run
times to show the amortization.

Buffers bound outside the tensor protocol (a custom format's unfurl
closure calling ``ctx.buffer`` on arrays its ``kernel_buffers`` does
not report) get a ``None`` plan entry and keep their compile-time
binding forever; such tensors are identity-pinned by their format
signature, so a cached artifact is never rebound across distinct
custom tensors.

Scalar (0-dimensional) tensors are optimized into local accumulator
variables, loaded once in the preamble and written back at the end.

With ``instrument=True`` the emitted kernel counts every executed
update, giving a deterministic work measure used by the benchmark
harness alongside wall-clock time.
"""

import functools
import threading
import time
from collections import OrderedDict

from repro.cin.analyze import (
    check_program,
    infer_extents,
    program_walk,
    tensor_binding_buffers,
    tensor_signature,
)
from repro.compiler.context import Context
from repro.compiler.key import KernelKey
from repro.compiler.lower import Lowerer
from repro.compiler.tiers import read_through
from repro.ir import asm, emit
from repro.ir.emit import scalar_views
from repro.ir.optimize import DEFAULT_OPT_LEVEL, optimize_kernel
from repro.ir.runtime import kernel_globals
from repro.tensors import share as _share
from repro.util import config as _config
from repro.util.errors import BindingError, SpecError

#: Version tag of the serialized-artifact format (see
#: :meth:`CompiledKernel.to_spec`); bumped whenever the spec layout
#: changes incompatibly.
#: Version 2 added ``constant_loop_rewrite``: the flag changes what
#: lowering emits, so any consumer keying artifacts by spec content
#: (the on-disk kernel store) needs it carried in the spec itself.
#: Version 3 added the backend axis: ``backend`` (the requested
#: backend), ``c_source`` (the generated C translation unit, or None
#: when the C emitter fell back), and ``c_param_dtypes`` (per-parameter
#: numpy dtype names the C entry validates bindings against).  Specs
#: stay JSON-safe: the shared object itself never rides in a spec —
#: receivers recompile from the carried C source (or load the store's
#: ``.so`` sibling when one is present).
#: Version 4 dropped the source as lowered, which is the ``source`` of
#: the same program compiled at ``opt_level=0``.
SPEC_VERSION = 4

#: Every key of a spec besides ``spec_version``, in spec order.  Each
#: is also the :class:`CompiledKernel` attribute and constructor
#: parameter of that name: ``to_spec`` and ``from_spec`` both walk
#: this table, so a new field is added here (and to ``__init__``).
SPEC_FIELDS = ("name", "source", "backend", "c_source",
               "c_param_dtypes", "opt_level", "plan", "signatures",
               "alias_groups", "instrument", "constant_loop_rewrite",
               "compile_seconds", "structural_key", "slot_names")
#: What ``from_spec`` reads for a field a spec leaves out; the fields
#: not listed are required.
_SPEC_DEFAULTS = {"backend": "python", "c_source": None,
                  "c_param_dtypes": None, "slot_names": None}


def _plain(value):
    """``value`` with nested tuples rewritten as lists (JSON-safe)."""
    if isinstance(value, tuple):
        return [_plain(item) for item in value]
    if isinstance(value, list):
        return [_plain(item) for item in value]
    return value


def _frozen(value):
    """The inverse of :func:`_plain`: nested lists back to tuples."""
    if isinstance(value, (list, tuple)):
        return tuple(_frozen(item) for item in value)
    return value


class CompiledKernel:
    """The data-independent artifact of one compilation.

    Holds the executable function, its source, the binding plan, and
    the per-slot format signatures needed to validate rebinds.  Shared
    (via the cache) between every :class:`Kernel` with the same
    structure; itself immutable after construction.
    """

    __slots__ = ("fn", "seed_args", "seed_tensors", "so_path", "code",
                 "_slot_params", "_alias_pairs") + SPEC_FIELDS

    def __init__(self, fn, name, source, opt_level, plan,
                 seed_args, seed_tensors, signatures, alias_groups,
                 instrument, compile_seconds, structural_key=None,
                 slot_names=None, constant_loop_rewrite=True,
                 backend="python", c_source=None, c_param_dtypes=None,
                 so_path=None, code=None):
        # ``fn`` is the *active* entry point: the C wrapper (and then
        # ``so_path`` names its shared object) when the C backend
        # produced one, the exec'd Python function otherwise (and then
        # ``code`` is the module code object ``source`` compiled to,
        # which the disk store keeps beside the entry).  Both take the
        # same positional buffers, so every runner (Kernel.run, the
        # batch workers) stays backend-agnostic.
        self.fn = fn
        self.backend = backend
        self.c_source = c_source
        self.c_param_dtypes = (None if c_param_dtypes is None
                               else list(c_param_dtypes))
        self.so_path = so_path
        self.code = code
        self.name = name
        self.source = source
        self.opt_level = opt_level
        self.plan = plan
        self.seed_args = seed_args
        self.seed_tensors = seed_tensors
        self.signatures = signatures
        self.alias_groups = alias_groups
        self.instrument = instrument
        self.compile_seconds = compile_seconds
        self.structural_key = structural_key
        self.slot_names = tuple(slot_names) if slot_names \
            else ("?",) * len(signatures)
        self.constant_loop_rewrite = bool(constant_loop_rewrite)
        # The flat bind program: the (parameter, role) pairs each
        # slot feeds, and each alias-group member beside the first.
        self._slot_params = [[] for _ in signatures]
        for param, entry in enumerate(plan):
            if entry is not None:
                self._slot_params[entry[0]].append((param, entry[1]))
        self._alias_pairs = [(group, group[0], other)
                             for group in alias_groups for other in group[1:]]

    @property
    def effective_backend(self):
        """The backend actually executing: ``"c"`` only when a native
        entry point is live in this process.  May differ from
        :attr:`backend` (the *requested* backend) after an emitter
        fallback or on a machine without a C toolchain."""
        return "c" if self.so_path is not None else "python"

    def to_spec(self, slot_names=None):
        """The artifact as a plain, JSON-serializable dict.

        The spec carries everything a fresh process needs to rebuild
        an equivalent artifact — the optimized source, the binding
        plan, the per-slot format signatures, and the structural key —
        but never the compiled function object or any bound data.
        :meth:`from_spec` re-``exec``\\ s the source on the other side,
        so the function itself never crosses a process boundary.

        ``slot_names`` overrides the display names carried in the spec
        and in error messages.  The artifact's own stored names come
        from whichever binding *compiled* it; a cache-hit kernel is
        bound to different tensors, so callers that know their current
        binding (:meth:`Kernel.to_spec`, the batch engine) pass the
        live names instead.

        Raises :class:`~repro.util.errors.SpecError` for kernels that
        cannot leave the process: those whose binding plan pins
        compile-time buffers (custom formats binding arrays outside
        the tensor protocol) and those whose signatures are keyed by
        object identity (opaque tensors).
        """
        if slot_names is None:
            slot_names = self.slot_names
        else:
            slot_names = tuple(slot_names)
        if any(entry is None for entry in self.plan):
            raise SpecError(
                "kernel %r binds buffers outside the tensor protocol "
                "(a custom format called ctx.buffer directly); such "
                "kernels are pinned to their compile-time data and "
                "cannot be serialized" % self.name,
                structural_key=self.structural_key,
                slot_names=slot_names)
        if self.seed_tensors:
            raise SpecError(
                "kernel %r has identity-keyed tensor signatures; an "
                "identity cannot be rebuilt in another process, so "
                "the artifact cannot be serialized" % self.name,
                structural_key=self.structural_key,
                slot_names=slot_names)
        spec = {"spec_version": SPEC_VERSION}
        for key in SPEC_FIELDS:
            spec[key] = _plain(getattr(self, key))
        spec["slot_names"] = list(slot_names)
        return spec

    @classmethod
    def from_spec(cls, spec, so_path=None, code=None):
        """Rebuild an artifact from :meth:`to_spec` output.

        Builds the entry point from the serialized source (the only
        non-declarative step), and freezes the plan/signature lists
        back into the tuple forms ``bind`` compares against.  The
        result is rebindable to any tensors whose signatures match,
        exactly like the original.

        A spec carrying C source is recompiled on load (memoized per
        process by source digest); ``so_path`` — the kernel store's
        persisted shared object — is tried first, and any failure
        (missing toolchain, foreign or truncated ``.so``) degrades to
        the python backend with a logged fallback, never an error.
        ``code`` — the store's verified code object of ``source`` — is
        ``exec``'d instead of compiling the source again.
        """
        version = spec.get("spec_version")
        if version != SPEC_VERSION:
            raise SpecError(
                "kernel spec version %r is not supported (expected %d)"
                % (version, SPEC_VERSION))
        spec = {**_SPEC_DEFAULTS, **spec}
        fields = {key: _frozen(spec[key]) for key in SPEC_FIELDS}
        fn, built_path, code = _entry_point(
            fields["name"], fields["source"],
            fields["c_source"] if fields["backend"] == "c" else None,
            fields["c_param_dtypes"], so_path=so_path, code=code)
        return cls(fn=fn, so_path=built_path, code=code,
                   seed_args=(None,) * len(fields["plan"]),
                   seed_tensors=(), **fields)

    def validate(self, tensors):
        """Check that ``tensors`` fill every slot with matching format
        signatures; raises :class:`BindingError` otherwise.

        The shared fail-fast half of :meth:`bind`, also used by the
        batch engine to reject bad datasets before dispatching any
        work.
        """
        if len(tensors) != len(self.signatures):
            raise BindingError(
                "kernel has %d tensor slots, got %d tensors"
                % (len(self.signatures), len(tensors)))
        for slot, tensor in enumerate(tensors):
            self._check_signature(slot, tensor)

    def _check_signature(self, slot, tensor):
        """Raise unless ``tensor`` has ``slot``'s format signature; a
        tensor's memoized tuple matches itself or its copy with ``is``."""
        actual = tensor_signature(tensor)
        expected = self.signatures[slot]
        if actual is not expected and actual != expected:
            raise BindingError(
                "slot %d (%s): format signature %r does not match "
                "the compiled kernel's %r"
                % (slot, getattr(tensor, "name", "?"), actual,
                   expected))

    def bind(self, tensors, buffers=None):
        """Positional kernel arguments for ``tensors`` (one per slot).

        Validates format signatures and the buffer-aliasing pattern,
        then resolves every plan entry to the new tensor's buffer.
        ``buffers`` holds each tensor's ``kernel_buffers()`` when the
        caller already took them (:func:`~repro.cin.analyze.
        program_walk`).
        """
        tensors = list(tensors)
        self.validate(tensors)
        return self._point(tensors, range(len(tensors)),
                           [None] * len(tensors) if buffers is None
                           else buffers)

    def _point(self, tensors, slots, roles, args=None):
        """The one bind pass: ``args`` (default: a fresh list) with the
        parameters ``slots`` feed re-pointed at ``tensors`` (signatures
        already checked), then checked whole for the aliasing pattern.
        ``roles`` holds each slot's ``kernel_buffers()`` walk, None
        where not taken."""
        if args is None:
            args = list(self.seed_args)
        for slot in slots:
            if roles[slot] is None:
                roles[slot] = tensor_binding_buffers(tensors[slot])
            buffers = roles[slot]
            for param, role in self._slot_params[slot]:
                args[param] = buffers[role]
        for group, (slot_a, role_a), (slot_b, role_b) in self._alias_pairs:
            for slot in (slot_a, slot_b):
                if roles[slot] is None:
                    roles[slot] = tensor_binding_buffers(tensors[slot])
            if roles[slot_a][role_a] is not roles[slot_b][role_b]:
                raise BindingError(
                    "buffers %s shared one array at compile time but "
                    "the new tensors bind distinct arrays" % (group,))
        # Distinct parameters were distinct arrays at compile time
        # (aliased buffers collapse into one parameter), so any
        # aliasing here is new — the emitted code assumes separate
        # storage (e.g. output resets would wipe inputs).  The loop
        # runs only to name the offending pair.
        if len(set(map(id, args))) != len(args):
            seen = {}  # id(buffer) -> (slot, role)
            for entry, buf in zip(self.plan, args):
                if entry is None:
                    continue
                other = seen.setdefault(id(buf), entry)
                if other != entry:
                    raise BindingError(
                        "slots %s and %s bind one array, but the "
                        "kernel was compiled for distinct buffers; "
                        "use distinct arrays or recompile with the "
                        "shared tensors" % (other, entry))
        return args


class Kernel:
    """A compiled CIN program bound to tensors — a cheap, rebindable
    view over a shared :class:`CompiledKernel` artifact."""

    def __init__(self, artifact, tensors, program, from_cache=False,
                 tuned=False, walk=None):
        """Bind ``artifact`` to ``tensors``, ``program``'s tensors in
        slot order.  ``walk`` is the program's :func:`~repro.cin.
        analyze.program_walk` when the caller already made it (and
        ``tensors`` then its very list, whose buffers it took)."""
        if walk is None:
            walk = program_walk(program)
        self._artifact = artifact
        if tensors is walk.tensors:
            self._bind(tensors, walk.buffers)
        else:
            self._bind(list(tensors))
        self.program = program
        self.from_cache = from_cache
        #: True when the autotuner's winners table rewrote the program
        #: (``compile_kernel(..., tune="apply")`` with a hit).
        self.tuned = tuned
        self._output_slots = walk.output_slots

    @property
    def artifact(self):
        """The shared :class:`CompiledKernel` behind this view."""
        return self._artifact

    def to_spec(self):
        """Serialize the underlying artifact; see
        :meth:`CompiledKernel.to_spec`.

        The spec (and any :class:`SpecError`) names the tensors of
        *this* binding — the shared artifact may have been compiled
        against differently named tensors before a cache hit rebound
        it here.
        """
        return self._artifact.to_spec(
            slot_names=tuple(getattr(t, "name", "?")
                             for t in self._tensors))

    @property
    def source(self):
        """The emitted source actually executed (post-optimization)."""
        return self._artifact.source

    @property
    def opt_level(self):
        return self._artifact.opt_level

    @property
    def backend(self):
        """The backend this kernel was compiled *for* (cache-key axis)."""
        return self._artifact.backend

    @property
    def effective_backend(self):
        """The backend actually executing; ``"python"`` after a C
        fallback (unsupported construct or no toolchain)."""
        return self._artifact.effective_backend

    @property
    def c_source(self):
        """The generated C99 source, or None (python backend or
        fallback before emission)."""
        return self._artifact.c_source

    @property
    def so_path(self):
        """Path of the compiled shared object, or None (python
        backend, or C fallback before the toolchain ran)."""
        return self._artifact.so_path

    @property
    def instrument(self):
        return self._artifact.instrument

    @property
    def compile_seconds(self):
        """Wall-clock seconds spent lowering/emitting this artifact."""
        return self._artifact.compile_seconds

    @property
    def output_slots(self):
        """Slot positions of the output tensors, in first-write order."""
        return self._output_slots

    @property
    def outputs(self):
        """The currently-bound output tensors, in first-write order."""
        return [self._tensors[slot] for slot in self._output_slots]

    @property
    def tensors(self):
        """The currently-bound tensors, in slot (first-use) order."""
        return list(self._tensors)

    def run(self, **overrides):
        """Execute the kernel; returns the op count when instrumented.

        Keyword arguments override bindings by tensor name for this
        call only: ``kernel.run(A=other_A)`` executes against
        ``other_A`` without changing the kernel's stored binding.
        """
        # Only here are bound arrays executed, so only here is an
        # adoption (share_tensor re-pointing them) caught up with.
        if self._epoch != _share._adoptions:
            self.rebind(self._tensors)
        if overrides:
            result = self._artifact.fn(*self._with_overrides(overrides)[1])
        else:
            if self._call is None:      # the binding's call, prepared once
                fn = self._artifact.fn
                self._call = fn.prepare(self._args) if hasattr(
                    fn, "prepare") else functools.partial(fn, *self._args)
            result = self._call()
        return result if self._artifact.instrument else None

    def rebind(self, tensors=None, **named):
        """Persistently re-point binding slots at new tensors.

        ``tensors`` may be a full slot-ordered sequence or a mapping of
        tensor names to replacements; keyword arguments are shorthand
        for the mapping form.  Replacements must have the same format
        signature as the tensors they replace.  Returns ``self``.
        """
        if tensors is None or isinstance(tensors, dict):
            mapping = {**(tensors or {}), **named}
            self._tensors, self._args = self._with_overrides(mapping)
            for name, tensor in mapping.items():
                if getattr(tensor, "name", None) != name:
                    self._by_name = None    # a slot's name moved
        else:
            if named:
                raise BindingError(
                    "pass either a full tensor sequence or name "
                    "overrides, not both")
            self._bind(list(tensors))
        self._call = None
        return self

    def _bind(self, tensors, buffers=None):
        """Bind every slot to ``tensors`` (a list this kernel keeps)."""
        self._args = self._artifact.bind(tensors, buffers)
        self._tensors = tensors
        self._epoch = _share._adoptions
        self._by_name = None  # name -> slots, built on first override
        self._call = None   # prepared by the next run()

    def _with_overrides(self, mapping):
        """``(tensors, args)`` with the named slots replaced: only
        those are validated and re-resolved, the rest stay as bound."""
        if self._by_name is None:
            self._by_name = _slots_by_name(self._tensors)
        tensors = list(self._tensors)
        slots = []
        for name, replacement in mapping.items():
            slots.append(_named_slot(self._by_name, name))
            tensors[slots[-1]] = replacement
        for slot in sorted(slots):
            self._artifact._check_signature(slot, tensors[slot])
        return tensors, self._artifact._point(
            tensors, slots, [None] * len(tensors), list(self._args))

    def __call__(self, **overrides):
        return self.run(**overrides)


def resolve_name_overrides(template, mapping):
    """``template`` (a slot-ordered tensor list) with named slots
    replaced per ``mapping``.

    Shared by :meth:`Kernel.rebind`/:meth:`Kernel.run` overrides and
    the batch engine's per-dataset resolution
    (:func:`repro.exec.batch.run_batch`): a name must resolve to
    exactly one slot, otherwise a full slot-ordered sequence is
    required.
    """
    by_name = _slots_by_name(template)
    tensors = list(template)
    for name, replacement in mapping.items():
        tensors[_named_slot(by_name, name)] = replacement
    return tensors


def _slots_by_name(tensors):
    """Tensor name -> the slots of ``tensors`` bearing it."""
    by_name = {}
    for slot, tensor in enumerate(tensors):
        by_name.setdefault(getattr(tensor, "name", None),
                           []).append(slot)
    return by_name


def _named_slot(by_name, name):
    """The one slot ``name`` resolves to, else a BindingError."""
    slots = by_name.get(name, ())
    if len(slots) == 1:
        return slots[0]
    if not slots:
        raise BindingError(
            "no tensor named %r bound by this kernel (have: %s)"
            % (name, ", ".join(sorted(str(n) for n in by_name))))
    raise BindingError(
        "tensor name %r is bound to %d slots; rebind with a full "
        "tensor sequence instead" % (name, len(slots)))


class KernelCache:
    """A thread-safe LRU cache of compiled artifacts.

    Keys are :attr:`KernelKey.memory <repro.compiler.key.KernelKey.
    memory>` tuples; values are :class:`CompiledKernel` artifacts.
    ``maxsize`` bounds the number of artifacts; the least recently
    used entry is evicted first.  ``stats()`` reports hits, misses,
    evictions, and occupancy.
    """

    def __init__(self, maxsize=256):
        self._lock = threading.RLock()
        self._entries = OrderedDict()
        self._maxsize = int(maxsize)
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    @property
    def maxsize(self):
        return self._maxsize

    def lookup(self, key):
        """The cached artifact for ``key``, or None (counts a miss)."""
        with self._lock:
            artifact = self._entries.get(key)
            if artifact is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return artifact

    def store(self, key, artifact):
        with self._lock:
            if self._maxsize <= 0:
                return
            self._entries[key] = artifact
            self._entries.move_to_end(key)
            while len(self._entries) > self._maxsize:
                self._entries.popitem(last=False)
                self._evictions += 1

    def resize(self, maxsize):
        """Change the size cap, evicting LRU entries if shrinking."""
        with self._lock:
            self._maxsize = int(maxsize)
            while len(self._entries) > max(self._maxsize, 0):
                self._entries.popitem(last=False)
                self._evictions += 1

    def clear(self):
        """Drop all entries and reset the statistics counters."""
        with self._lock:
            self._entries.clear()
            self._hits = 0
            self._misses = 0
            self._evictions = 0

    def stats(self):
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "size": len(self._entries),
                "maxsize": self._maxsize,
            }

    def __len__(self):
        with self._lock:
            return len(self._entries)

    def __contains__(self, key):
        with self._lock:
            return key in self._entries


def artifact_cache_key(artifact):
    """The :data:`KERNEL_CACHE` key of a live :class:`CompiledKernel`
    (:attr:`KernelKey.memory <repro.compiler.key.KernelKey.memory>`)
    — what an out-of-band cache warmer stores it under."""
    return KernelKey.of(artifact).memory


#: The process-wide artifact cache used by ``compile_kernel``.
KERNEL_CACHE = KernelCache()


def kernel_cache():
    """The process-wide :class:`KernelCache`."""
    return KERNEL_CACHE


def _entry_point(name, source, c_source, c_param_dtypes, so_path=None,
                 code=None):
    """The active entry point of one kernel, as ``(fn, so_path,
    code)``: the native entry and its shared object when ``c_source``
    loads or compiles (``so_path``, a persisted ``.so``, is tried
    first); else the python function — ``exec``'d only here, when no C
    entry is live — and the module code object it came from (``code``
    when given, which must be ``source`` compiled: the store hands
    back the one it kept).  A toolchain failure is a logged fallback,
    never an error, and the artifact keeps its C source: another
    process loading its spec may have a working toolchain."""
    if c_source:
        from repro import codegen

        try:
            return codegen.kernel_entry(c_source, name, c_param_dtypes,
                                        so_path=so_path) + (None,)
        except codegen.ToolchainError as exc:
            codegen.note_fallback(name, str(exc))
    if code is None:
        code = compile(source, "<repro-kernel>", "exec")
    namespace = kernel_globals()
    exec(code, namespace)
    return namespace[name], None, code


def _compile_artifact(program, walk, instrument, name,
                      constant_loop_rewrite, opt_level, backend="python"):
    """Lower, optimize, emit, and exec one program; package the
    artifact.  ``walk`` is the program's :func:`~repro.cin.analyze.
    program_walk`: its slots, outputs, alias groups and key.

    With ``backend="c"`` the optimized target AST is additionally
    lowered to C99 and compiled into a shared object
    (:mod:`repro.codegen`); the python source is always emitted — it
    is ``kernel.source`` and the fallback entry — but ``exec``'d only
    when no C entry came up (:func:`_entry_point`)."""
    start = time.perf_counter()
    tensors = walk.tensors
    ctx = Context(instrument=instrument,
                  constant_loop_rewrite=constant_loop_rewrite)
    ctx.register_tensors(tensors)
    ctx.extents = infer_extents(program)

    body = Lowerer(ctx).lower_kernel(
        program, [tensors[slot] for slot in walk.output_slots])
    params = [name_ for name_, _ in ctx.bound_buffers()]
    returns = (ctx.ops_var.name,) if instrument else ()
    func = asm.FuncDef(name, params, body, returns=returns)
    if opt_level > 0:
        func = optimize_kernel(func, opt_level, ctx.bound_buffers())
        # The python source alone reads through views; the C emitter
        # below takes ``func`` as the optimizer left it.
        source = emit(scalar_views(func, ctx.bound_buffers(),
                                   ctx.binding_plan()))
    else:
        source = emit(func)

    c_source = None
    c_param_dtypes = None
    if backend == "c":
        from repro import codegen

        try:
            dtype_map = {pname: str(array.dtype)
                         for pname, array in ctx.bound_buffers()}
            c_source = codegen.emit_c(func, dtype_map)
            c_param_dtypes = [dtype_map[p] for p in func.params]
        except codegen.CUnsupportedError as exc:
            codegen.note_fallback(name, str(exc))
    fn, so_path, code = _entry_point(name, source, c_source,
                                     c_param_dtypes)

    plan = ctx.binding_plan()
    # Keep first-run buffers only where rebinding can never replace
    # them (None plan entries); rebindable parameters must not pin
    # their seed data in the process-wide cache.
    seed_args = tuple(
        array if entry is None else None
        for entry, (_, array) in zip(plan, ctx.bound_buffers()))
    signatures = tuple(tensor_signature(t) for t in tensors)
    return CompiledKernel(
        fn=fn,
        name=name,
        source=source,
        opt_level=opt_level,
        plan=plan,
        seed_args=seed_args,
        # Pin only identity-keyed tensors: their format signatures
        # embed id(tensor), which must stay unrecycled for as long as
        # the artifact can be looked up.
        seed_tensors=tuple(
            tensor for tensor, sig in zip(tensors, signatures)
            if _identity_pinned(tensor, sig)),
        signatures=signatures,
        alias_groups=walk.alias_groups,
        instrument=instrument,
        compile_seconds=time.perf_counter() - start,
        structural_key=walk.key,
        slot_names=tuple(getattr(t, "name", "?") for t in tensors),
        constant_loop_rewrite=constant_loop_rewrite,
        backend=backend,
        c_source=c_source,
        c_param_dtypes=c_param_dtypes,
        so_path=so_path,
        code=code,
    )


def _identity_pinned(tensor, signature):
    """True when ``signature`` embeds ``id(tensor)`` (opaque or custom
    tensors), which then must outlive the artifact."""
    target = id(tensor)

    def contains(part):
        if isinstance(part, tuple):
            return any(contains(item) for item in part)
        return part == target

    return contains(signature)


def compile_kernel(program, instrument=False, name="kernel",
                   constant_loop_rewrite=True, cache=None,
                   opt_level=None, backend=None, tune=None,
                   remote=None, store=None):
    """Compile one CIN program into a :class:`Kernel`.

    ``opt_level``, ``backend`` and ``tune`` left at None resolve
    through the package precedence rule (per-call kwarg >
    ``fl.configure`` > ``FL_*`` env > default; see
    :mod:`repro.util.config`), as do ``store`` and ``remote``.

    With ``cache=True`` (the default) the compiled artifact is looked
    up in — and stored into — every configured cache tier:
    the process-wide :class:`KernelCache` first, then the persistent
    on-disk :class:`~repro.store.KernelStore` (``fl.configure(
    store_path=...)`` / ``FL_KERNEL_STORE``; re-point per call with
    ``store=``), then the remote kernel service
    (:mod:`repro.service`; ``fl.configure(service_url=...)`` /
    ``FL_SERVICE_URL`` / ``remote=``).  A disk or remote hit rebuilds
    the artifact from its serialized spec and promotes it into the
    tiers above; a full miss compiles fresh and writes the artifact
    behind into every tier (the remote push rides an async
    server-side compile queue).  An unreachable service degrades to
    the local tiers with a warn-once log line — the remote tier can
    never fail a compile.  ``store=False`` and ``remote=False`` leave
    out one tier; ``store=False, remote=False`` is served from memory
    alone.  ``cache=False`` always compiles fresh and leaves every
    cache (and its statistics) untouched.

    ``opt_level`` selects the target-IR optimizer pipeline
    (:mod:`repro.ir.optimize`): 0 emits the lowered code untouched, 1
    hoists loop invariants, and 2 — the default — adds dense-loop
    vectorization to numpy slice operations as the last step.  Every
    level starts from code the lowerer folded as it built it: literal
    branches decided, literal extents resolved, literal copies
    forwarded and the set-up of regions that cannot run left out, so
    no level runs a constant-folding or dead-code pass.  The level is
    part of the cache key, so kernels compiled at different levels
    never share an artifact; any other value (``7``, ``2.7``,
    ``True``) raises ``ValueError``.

    ``backend`` selects how the optimized kernel is executed:
    ``"python"`` (the default) ``exec``s the emitted Python source,
    ``"c"`` additionally lowers the same optimized target AST to C99,
    compiles it into a per-kernel shared object, and calls it through
    :mod:`ctypes` (releasing the GIL during each call).  Kernels the
    C emitter cannot express — slice operations (dense resets,
    vectorized loops), buffers outside int64/float64/bool — and
    environments with no C compiler fall back to the python backend
    loudly but gracefully (one warning per distinct reason; see
    :func:`repro.codegen.fallback_events`); the resulting
    :class:`Kernel` reports the request as ``.backend`` and the
    reality as ``.effective_backend``.  The backend joins
    ``opt_level`` in every cache key, so the two backends never share
    an artifact slot.

    ``tune="apply"`` consults the persisted autotuner winners table
    (:mod:`repro.tune`) before compiling, at the row of the resolved
    ``opt_level`` and ``backend``: a hit rewrites the program's access
    protocols to the winning schedule and changes nothing else; a miss
    compiles the program exactly as written.  The rewritten program
    has its own structural key, so the winning variant occupies its
    own cache/store slot (zero extra compiles in a process whose store
    already holds the winner's artifact).  It resolves to ``"off"``
    by default.  The returned kernel reports a table hit as ``.tuned``.
    """
    check_program(program)
    # Identity, not equality: ``1 == True`` would pass.
    if cache is None:
        cache = True
    elif cache is not True and cache is not False:
        raise ValueError(
            "cache must be True or False; got %r (store=False or "
            "remote=False leaves out the disk or remote tier)" % (cache,))
    opt_level = _config.resolve("opt_level", override=opt_level)
    if opt_level is None:
        opt_level = DEFAULT_OPT_LEVEL
    backend = _config.resolve("backend", override=backend)
    tuned = False
    if _config.resolve("tune", override=tune) == "apply":
        # Imported lazily: repro.tune compiles candidates through this
        # module, so a top-level import would be circular.
        from repro import tune as _tune

        tuning = _tune.lookup_schedule(
            program, opt_level, backend,
            constant_loop_rewrite=constant_loop_rewrite)
        if tuning is not None:
            program = _tune.apply_schedule(program, tuning)
            tuned = True
    walk = program_walk(program)

    def build():
        return _compile_artifact(program, walk, instrument, name,
                                 constant_loop_rewrite, opt_level,
                                 backend=backend)

    artifact, tier = read_through(
        KernelKey(walk.key, instrument, name, constant_loop_rewrite,
                  opt_level, backend),
        build,
        memory=KERNEL_CACHE if cache else None,
        store=store if cache else False,
        remote=remote if cache else False)
    return Kernel(artifact, walk.tensors, program,
                  from_cache=tier is not None, tuned=tuned, walk=walk)


def execute(program, instrument=False, cache=None, opt_level=None,
            backend=None):
    """Compile and run a program once.

    Returns the op count when instrumented, else None.  Results land in
    the program's output tensors.  Routed through the kernel cache, so
    executing the same program structure repeatedly pays for lowering
    only once.  See :func:`compile_kernel` for the keyword arguments,
    the cache key and the backend fallback.
    """
    return compile_kernel(program, instrument=instrument, cache=cache,
                          opt_level=opt_level, backend=backend).run()
