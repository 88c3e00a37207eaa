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
parameter to a ``(slot, position)`` pair — slot = the tensor's position
in first-use order, position = where its buffer is in the tensor's one
read, ``kernel_pins()`` (the signature, then the arrays it binds) — so
the same artifact can be re-bound to any tensors with matching
signatures, each read once per compile and once per bind.

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
closure calling ``ctx.buffer`` on arrays its ``kernel_pins`` does not
read) get a ``None`` plan entry and keep their compile-time binding
forever; such tensors are identity-pinned by their format
signature, so a cached artifact is never rebound across distinct
custom tensors.

Scalar (0-dimensional) tensors are optimized into local accumulator
variables, loaded once in the preamble and written back at the end.

With ``instrument=True`` the emitted kernel counts every executed
update, giving a deterministic work measure used by the benchmark
harness alongside wall-clock time.
"""

import threading
import time
from collections import OrderedDict, namedtuple

from repro.cin.analyze import check_program, infer_extents, program_walk
from repro.compiler.context import Context
from repro.compiler.key import SPEC_VERSION, KernelKey
from repro.compiler.lower import Lowerer
from repro.compiler.tiers import compile_source, read_through
from repro.ir import asm, emit
from repro.ir.dtypes import viewable
from repro.ir.optimize import DEFAULT_OPT_LEVEL, optimize_kernel
from repro.ir.runtime import kernel_globals, python_entry
from repro.tensors import share as _share
from repro.util import config as _config
from repro.util.errors import BindingError, SpecError

#: Every key of a spec besides ``spec_version``, in spec order.  Each
#: is also the :class:`CompiledKernel` attribute and constructor
#: parameter of that name: ``to_spec`` and ``from_spec`` both walk
#: this table, so a new field is added here (and to ``__init__``).
#: Every field is required: a spec that lacks one does not rebuild.
SPEC_FIELDS = ("name", "source", "views", "backend", "c_source",
               "c_param_dtypes", "opt_level", "plan", "signatures",
               "widths", "alias_groups", "instrument",
               "constant_loop_rewrite", "compile_seconds",
               "structural_key", "slot_names")


def _plain(value):
    """``value`` with nested tuples rewritten as lists (JSON-safe)."""
    if isinstance(value, tuple):
        return [_plain(item) for item in value]
    if isinstance(value, list):
        return [_plain(item) for item in value]
    return value


def _frozen(value):
    """The inverse of :func:`_plain`: nested lists back to tuples."""
    if type(value) in (list, tuple):
        return tuple(map(_frozen, value))
    return value


class CompiledKernel:
    """The data-independent artifact of one compilation.

    Holds the executable function, its source, the binding plan, and
    the per-slot format signatures needed to validate rebinds.  Shared
    (via the cache) between every :class:`Kernel` with the same
    structure; itself immutable after construction.
    """

    __slots__ = ("fn", "seed_args", "seed_tensors", "so_path", "code",
                 "_slot_params", "_alias_pairs", "_held", "_whole",
                 "_arity") + SPEC_FIELDS

    def __init__(self, fn, name, source, opt_level, plan,
                 seed_args, seed_tensors, signatures, widths, alias_groups,
                 instrument, compile_seconds, structural_key=None,
                 slot_names=None, constant_loop_rewrite=True,
                 backend="python", c_source=None, c_param_dtypes=None,
                 so_path=None, code=None, views=()):
        # ``fn`` is the *active* entry point: the C one (and then
        # ``so_path`` names its shared object) when the C backend
        # produced one, the exec'd Python function's otherwise (and
        # then ``code`` is the module code object ``source`` compiled
        # to, which the disk store keeps beside the entry).  Both take
        # the same positional buffers and prepare a binding's call
        # (:func:`repro.ir.runtime.make_entry`), so every runner
        # (Kernel.run, the batch workers) stays backend-agnostic.
        # ``views`` names the parameters the python entry views.
        self.fn = fn
        self.views = tuple(views)
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
        self.widths = widths        # each slot's read length
        self.alias_groups = alias_groups
        self.instrument = instrument
        self.compile_seconds = compile_seconds
        self.structural_key = structural_key
        self.slot_names = tuple(slot_names) if slot_names \
            else ("?",) * len(signatures)
        self.constant_loop_rewrite = bool(constant_loop_rewrite)
        # The flat bind program: the (parameter, position) pairs each
        # slot feeds, and each alias-group member beside the first with
        # the parameter the group collapsed into (none if unbound).
        self._slot_params = [[] for _ in signatures]
        for param, entry in enumerate(plan):
            if entry is not None:
                self._slot_params[entry[0]].append((param, entry[1]))
        self._alias_pairs = [(group, group[0], other, plan.index(group[0]))
                             for group in alias_groups if group[0] in plan
                             for other in group[1:]]
        # The parameters passing each slot's arrays: those it feeds, and
        # the one each alias group it is a later member of became.
        self._held = [[param for param, _ in params]
                      for params in self._slot_params]
        for _, _, other, param in self._alias_pairs:
            self._held[other[0]].append(param)
        self._arity = len(plan)
        slots = range(len(signatures))
        self._whole = self._plan_of(tuple(zip(slots, slots)))

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
    def from_spec(cls, spec, so_path=None, code=None,
                  structural_key=None):
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
        ``code`` — a verified code object of ``source``, from a store
        sidecar or a service fetch — is ``exec``'d instead of compiling
        the source again.
        ``structural_key`` — the frozen key a tier lookup was keyed by,
        whose digest the spec's recorded key matched — replaces the
        spec's own copy, which then is never walked.
        """
        version = spec.get("spec_version")
        if version != SPEC_VERSION:
            raise SpecError(
                "kernel spec version %r is not supported (expected %d)"
                % (version, SPEC_VERSION))
        fields = {key: _frozen(spec[key]) for key in SPEC_FIELDS
                  if key != "structural_key"}
        fields["structural_key"] = (_frozen(spec["structural_key"])
                                    if structural_key is None
                                    else structural_key)
        fn, built_path, code = _entry_point(
            fields["name"], fields["source"], fields["views"],
            fields["c_source"] if fields["backend"] == "c" else None,
            fields["c_param_dtypes"], so_path=so_path, code=code)
        return cls(fn=fn, so_path=built_path, code=code,
                   seed_args=(None,) * len(fields["plan"]),
                   seed_tensors=(), **fields)

    def _plan_of(self, slots):
        """The :class:`BindPlan` replacing the ``(name, slot)`` pairs
        ``slots``, whose reads follow each other, :attr:`widths` long;
        a member left bound holds what its alias group's parameter does."""
        starts, feeds, at = {}, [], 0
        for _, slot in slots:
            starts[slot] = at
            feeds += [(param, at + position)
                      for param, position in self._slot_params[slot]]
            at += self.widths[slot]

        def held(slot, position, param):
            return starts[slot] + position if slot in starts else at + param

        return BindPlan(
            tuple(slots), tuple((slot, starts[slot]) for _, slot in slots),
            tuple(feeds),
            tuple((group, held(*first, param), held(*other, param))
                  for group, first, other, param in self._alias_pairs
                  if first[0] in starts or other[0] in starts),
            IdentityMemo())

    def validate(self, tensors):
        """Check that ``tensors`` bind (:meth:`bind`): one per slot,
        each of the slot's format signature, the aliasing pattern kept;
        raises :class:`BindingError` otherwise."""
        self.bind(tensors)

    def bind(self, tensors, pinned=None):
        """Positional kernel arguments for ``tensors`` (one per slot),
        checked and fed from one read of each (``pinned``, the reads in
        slot order, when :func:`~repro.cin.analyze.program_walk` took
        them)."""
        tensors = list(tensors)
        if len(tensors) != len(self.signatures):
            raise BindingError(
                "kernel has %d tensor slots, got %d tensors"
                % (len(self.signatures), len(tensors)))
        if pinned is None:
            pinned = self._whole.pins(tensors)
        return self.new_entry(self._whole, tensors, self.seed_args,
                              pinned).args

    def _point(self, pinned, plan, args):
        """The one bind pass: a copy of ``args`` with the parameters
        ``plan`` feeds taken from ``pinned``, the replacements' read
        (signatures already checked), then checked whole for the
        aliasing pattern."""
        if plan.alias_pairs:
            held = [*pinned, *args]
            for group, first, other in plan.alias_pairs:
                if held[first] is not held[other]:
                    raise BindingError(
                        "buffers %s shared one array at compile time but "
                        "the new tensors bind distinct arrays" % (group,))
        args = list(args)
        for param, index in plan.feeds:
            args[param] = pinned[index]
        # Distinct parameters were distinct arrays at compile time
        # (aliased buffers collapse into one parameter), so any
        # aliasing here is new — the emitted code assumes separate
        # storage (e.g. output resets would wipe inputs).  The loop
        # runs only to name the offending pair.
        if len(set(map(id, args))) != self._arity:
            seen = {}  # id(buffer) -> (slot, position)
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

    def new_entry(self, plan, tensors, args, pinned):
        """An unfiled :class:`PlanEntry` binding ``tensors`` (the slot
        list, ``plan``'s replacements placed) onto a copy of ``args``
        from ``pinned``, the replacements' read.  Signatures are checked
        in the read's order, so a replacement of another format (another
        read length) is refused before a later slot is looked for past
        it; a tensor's memoized tuple matches itself or its copy with
        ``is``."""
        for slot, index in plan.checks:
            actual, expected = pinned[index], self.signatures[slot]
            if actual is not expected and actual != expected:
                raise BindingError(
                    "slot %d (%s): format signature %r does not match "
                    "the compiled kernel's %r"
                    % (slot, getattr(tensors[slot], "name", "?"), actual,
                       expected))
        return PlanEntry(self._point(pinned, plan, args), pinned)

    def slot_identities(self, entry, tensors):
        """Per slot of ``tensors``, bound by ``entry``, the identities
        of the arrays its arguments pass for the slot: those the slot
        feeds and, for a later member of an alias group, the group's
        one parameter.  A slot that binds no array (an opaque or custom
        tensor) is its tensor alone."""
        args = entry.args
        return [[id(args[param]) for param in held] or [id(tensor)]
                for tensor, held in zip(tensors, self._held)]


#: Bind-plan entries memoized per plan (LRU).
BINDING_MEMO_CAP = 64


class IdentityMemo(OrderedDict):
    """An LRU of at most :data:`BINDING_MEMO_CAP` values keyed by
    object identities, least recently used first.  Each value must
    hold references to the objects its key names: a memoized identity
    can then never be recycled while it is still served.

    A hit (:meth:`Kernel.bind`) takes no lock, so a concurrent eviction
    only costs it its recency; :meth:`put` takes one to insert and
    evict."""

    __slots__ = ("_lock",)

    def __init__(self):
        super().__init__()
        self._lock = threading.Lock()

    def put(self, key, value):
        """File ``value`` under ``key``, evicting past the cap."""
        with self._lock:
            self[key] = value
            while len(self) > BINDING_MEMO_CAP:
                self.popitem(last=False)


class PlanEntry:
    """One checked binding: ``args``, its prepared ``call`` once a run
    made it, and ``pinned``, what its memo key names.  Two runs racing
    on an unprepared entry each prepare a valid call; either is kept."""

    __slots__ = ("args", "call", "pinned")

    def __init__(self, args, pinned=()):
        self.args = args
        self.call = None
        self.pinned = pinned


class BindPlan(namedtuple("BindPlan",
                          "slots checks feeds alias_pairs memo")):
    """How one tuple of override names binds, resolved once per
    binding (:meth:`Kernel.bind_plan`): ``slots`` the ``(name, slot)``
    pairs in the names' order, which is the order of the replacements'
    read (:meth:`pins`); ``checks`` each slot's ``(slot, index)`` of
    its signature in the read, ``feeds`` the ``(parameter, index)``
    pairs, and ``alias_pairs`` the compile-time alias pairs touching
    the slots, as ``(group, index, index)`` into the read followed by
    the bound arguments.  An artifact's whole binding
    (``CompiledKernel._whole``) is the plan that feeds every slot, each
    named by its own number: its replacements are a slot-ordered list.

    ``memo`` (an :class:`IdentityMemo`) maps the identities of the
    replacements' read to their :class:`PlanEntry`
    (:meth:`Kernel.bind`).  A kernel's plan belongs to
    one binding: a change that reaches the slots the plan leaves as
    bound clears it.  The whole plan leaves none, so its memo is the
    artifact's."""

    __slots__ = ()

    def pins(self, mapping):
        """The replacements ``mapping`` read, in ``slots`` order: each
        one's ``kernel_pins()``, its format signature and then the
        arrays it binds."""
        pinned = []
        for name, _ in self.slots:
            pinned += mapping[name].kernel_pins()
        return pinned


def _bind_plan(artifact, tensors, names):
    """The :class:`BindPlan` of ``names`` over ``tensors`` (bound to
    ``artifact``): a name must resolve to exactly one slot, otherwise
    a full slot-ordered sequence is required."""
    by_name = {}
    for slot, tensor in enumerate(tensors):
        by_name.setdefault(getattr(tensor, "name", None),
                           []).append(slot)
    slots = []
    for name in names:
        bearing = by_name.get(name, ())
        if not bearing:
            raise BindingError(
                "no tensor named %r bound by this kernel (have: %s)"
                % (name, ", ".join(sorted(str(n) for n in by_name))))
        if len(bearing) > 1:
            raise BindingError(
                "tensor name %r is bound to %d slots; rebind with a "
                "full tensor sequence instead" % (name, len(bearing)))
        slots.append((name, bearing[0]))
    if artifact is None:
        return BindPlan(tuple(slots), (), (), (), None)
    return artifact._plan_of(slots)


class Kernel:
    """A compiled CIN program bound to tensors — a cheap, rebindable
    view over a shared :class:`CompiledKernel` artifact."""

    def __init__(self, artifact, tensors, program, from_cache=False,
                 walk=None):
        """Bind ``artifact`` to ``tensors``, ``program``'s tensors in
        slot order.  ``walk`` is the program's :func:`~repro.cin.
        analyze.program_walk` when the caller already made it (and
        ``tensors`` then its very list, whose pins it read)."""
        if walk is None:
            walk = program_walk(program)
        self._artifact = artifact
        if tensors is walk.tensors:
            self._bind(tensors, [pin for read in walk.pins for pin in read])
        else:
            self._bind(list(tensors))
        self.program = program
        self.from_cache = from_cache
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
        ``other_A`` without changing the kernel's stored binding.  A
        repeated override of the same buffers makes the call prepared
        for them the first time (:class:`BindPlan`).
        """
        # Only here are bound arrays executed, so only here (through
        # bind) is an adoption (share_tensor re-pointing them) caught
        # up with.
        if overrides or self._epoch != _share._adoptions:
            entry = self.bind(overrides)[0]
        else:
            entry = self._entry
        call = entry.call
        if call is None:        # an entry's call, prepared once
            call = entry.call = self._artifact.fn.prepare(entry.args)
        result = call()
        return result if self._artifact.instrument else None

    def bind(self, dataset, filed=True):
        """``(entry, tensors)``: the checked :class:`PlanEntry` of
        ``dataset`` — a name -> tensor mapping over this binding, or a
        full slot-ordered sequence — and the slot-ordered tensors it
        binds.  ``run(**overrides)``, ``rebind(mapping)`` and
        :class:`~repro.exec.batch.KernelPool` all bind here.

        Each replacement is read once (:meth:`BindPlan.pins`), and the
        identities of that read key the entry in its plan's memo: a
        known key needs no check (its entry pins what the key names,
        which passed every check against the binding as it still is;
        a change clears the memo), a new one is checked and filed.
        Unless ``filed`` is false (the processes executor, whose
        shared-memory arrays no memo may pin): then the entry is always
        bound afresh and kept nowhere.  A binding an adoption has
        re-pointed since it was made is rebound first.
        """
        if self._epoch != _share._adoptions:
            self._bind(list(self._tensors))
        artifact = self._artifact
        if isinstance(dataset, dict):
            if not dataset:
                return self._entry, list(self._tensors)
            names = tuple(dataset)
            plan = self._plans.get(names)
            if plan is None:
                plan = self.bind_plan(names)
            args = self._entry.args
        else:
            dataset = list(dataset)
            if len(dataset) != len(self._tensors):
                artifact.validate(dataset)      # the count's error
            plan, args = artifact._whole, artifact.seed_args
        tensors = list(self._tensors)
        for name, slot in plan.slots:
            tensors[slot] = dataset[name]
        pinned = plan.pins(dataset)
        if not filed:
            return artifact.new_entry(plan, tensors, args, pinned), tensors
        key = tuple(map(id, pinned))
        memo = plan.memo
        entry = memo.get(key)
        if entry is None:
            entry = artifact.new_entry(plan, tensors, args, pinned)
            memo.put(key, entry)
        else:
            try:
                memo.move_to_end(key)
            except KeyError:    # evicted meanwhile: a hit all the same
                pass
        return entry, tensors

    def rebind(self, tensors=None, **named):
        """Persistently re-point binding slots at new tensors.

        ``tensors`` may be a full slot-ordered sequence or a mapping of
        tensor names to replacements; keyword arguments are shorthand
        for the mapping form.  Replacements must have the same format
        signature as the tensors they replace.  Returns ``self``.
        """
        if tensors is None or isinstance(tensors, dict):
            mapping = named if tensors is None else {**tensors, **named}
            # A memo hit brings its prepared call, if a run made one; a
            # miss is filed unprepared, for the next run() to prepare.
            self._entry, self._tensors = self.bind(mapping)
            # The other plans leave bound slots this one just re-pointed;
            # this plan's untouched slots are as they were.
            if len(self._plans) > 1:
                plan = self._plans.get(tuple(mapping))
                for other in self._plans.values():
                    if other is not plan:
                        other.memo.clear()
            for name, tensor in mapping.items():
                if getattr(tensor, "name", None) != name:
                    self._plans = {}    # a slot's name moved
        else:
            if named:
                raise BindingError(
                    "pass either a full tensor sequence or name "
                    "overrides, not both")
            self._bind(list(tensors))
        return self

    def _bind(self, tensors, pinned=None):
        """Bind every slot to ``tensors`` (a list this kernel keeps)."""
        self._entry = PlanEntry(self._artifact.bind(tensors, pinned))
        self._tensors = tensors
        self._epoch = _share._adoptions
        self._plans = {}    # names -> BindPlan, built on first use

    def bind_plan(self, names):
        """The :class:`BindPlan` of the override names ``names`` (a
        tuple) against this binding, built on first use; raises
        :class:`BindingError` for a name that resolves to no slot or to
        several."""
        plan = self._plans.get(names)
        if plan is None:
            plan = self._plans[names] = _bind_plan(
                self._artifact, self._tensors, names)
        return plan

    def __call__(self, **overrides):
        return self.run(**overrides)


def resolve_name_overrides(template, mapping):
    """``template`` (a slot-ordered tensor list) with named slots
    replaced per ``mapping``.

    The name resolution of :meth:`Kernel.bind_plan`, for callers that
    hold no kernel: a name must resolve to exactly one slot, otherwise
    a full slot-ordered sequence is required.
    """
    tensors = list(template)
    for name, slot in _bind_plan(None, template, tuple(mapping)).slots:
        tensors[slot] = mapping[name]
    return tensors


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


def _entry_point(name, source, views, c_source, c_param_dtypes,
                 so_path=None, code=None):
    """The active entry point of one kernel, as ``(fn, so_path,
    code)``: the native entry and its shared object when ``c_source``
    loads or compiles (``so_path``, a persisted ``.so``, is tried
    first); else the python function's entry, viewing the parameters
    ``views`` names — the function ``exec``'d only here, when no C
    entry is live — and the module code object it came from (``code``
    when given, which must be ``source`` compiled: a store or a
    service hands back the one it kept).  A toolchain failure is a
    logged fallback, never an error, and the artifact keeps its C
    source: another process loading its spec may have a working
    toolchain."""
    if c_source:
        from repro import codegen

        try:
            return codegen.kernel_entry(c_source, name, c_param_dtypes,
                                        so_path=so_path) + (None,)
        except codegen.ToolchainError as exc:
            codegen.note_fallback(name, str(exc))
    if code is None:
        code = compile_source(source)
    namespace = kernel_globals()
    exec(code, namespace)
    return python_entry(namespace[name], views), None, code


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
    ctx.register_tensors(tensors, walk.pins)
    ctx.extents = infer_extents(program)

    body = Lowerer(ctx).lower_kernel(
        program, [tensors[slot] for slot in walk.output_slots])
    params = [name_ for name_, _ in ctx.bound_buffers()]
    returns = (ctx.ops_var.name,) if instrument else ()
    func = asm.FuncDef(name, params, body, returns=returns)
    views = ()
    if opt_level > 0:
        func = optimize_kernel(func, opt_level, ctx.bound_buffers())
        views = viewable(func, ctx.bound_buffers(), ctx.binding_plan(),
                         ctx.value_params)
    source = emit(func, views)

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
    fn, so_path, code = _entry_point(name, source, views, c_source,
                                     c_param_dtypes)

    plan = ctx.binding_plan()
    # Keep first-run buffers only where rebinding can never replace
    # them (None plan entries); rebindable parameters must not pin
    # their seed data in the process-wide cache.
    seed_args = tuple(
        array if entry is None else None
        for entry, (_, array) in zip(plan, ctx.bound_buffers()))
    signatures = tuple(read[0] for read in walk.pins)
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
        widths=tuple(map(len, walk.pins)),
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
        views=views,
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
                   opt_level=None, backend=None,
                   remote=None, store=None):
    """Compile one CIN program into a :class:`Kernel`.

    ``opt_level`` and ``backend`` left at None resolve
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
    behind into every tier (the remote push sends the entry's bytes,
    which the service files as they are).  An unreachable service
    degrades to the local tiers with a warn-once log line — the
    remote tier can never fail a compile.  ``store=False`` and ``remote=False`` leave
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
                  from_cache=tier is not None, walk=walk)


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
