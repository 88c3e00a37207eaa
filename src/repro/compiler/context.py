"""Compilation context: name supply, buffer binding, code emission.

One :class:`Context` lives for the duration of one kernel compilation.
Formats and lowering passes use it to

* allocate fresh runtime variable names (``freshen``),
* bind numpy arrays as kernel parameters (``buffer``),
* emit statements into the current block (``emit`` / ``scope``), and
* resolve scalar (0-dimensional) tensors to local accumulator
  variables.
"""

import contextlib

import numpy as np

from repro.ir import asm
from repro.ir.nodes import Literal, Load, Var
from repro.ir.runtime import reserved_names
from repro.util.errors import LoweringError
from repro.util.namer import Namer


class Context:
    """Mutable state threaded through one kernel compilation."""

    def __init__(self, instrument=False, constant_loop_rewrite=True):
        self.namer = Namer(reserved=reserved_names())
        self.instrument = instrument
        # Figure 5's last rule (sum a constant region in O(1)); exposed
        # as a toggle so the ablation benchmarks can switch it off.
        self.constant_loop_rewrite = constant_loop_rewrite
        self._buffers = {}          # id(array) -> (name, array)
        self._buffer_order = []     # names in binding order
        self._plan = []             # (slot, role) or None, in binding order
        self._slot_roles = {}       # id(buffer) -> (slot, role)
        self._scalars = {}          # id(tensor) -> (Var, tensor, writeback)
        self._scalar_order = []
        self._blocks = [[]]
        self.extents = {}
        self.ops_var = Var(self.namer.fresh("_ops"))

    # -- names ---------------------------------------------------------
    def freshen(self, hint):
        return self.namer.fresh(hint)

    # -- buffers --------------------------------------------------------
    def register_tensors(self, tensors):
        """Declare the program's tensors as binding *slots*.

        Every buffer a tensor exposes through ``kernel_buffers`` is
        mapped back to ``(slot, role)``, so :meth:`binding_plan` can
        later tell the kernel how to rebind its positional arguments to
        a fresh set of tensors of the same formats.
        """
        from repro.cin.analyze import tensor_binding_buffers

        for slot, tensor in enumerate(tensors):
            for role, buf in tensor_binding_buffers(tensor).items():
                self._slot_roles.setdefault(id(buf), (slot, role))

    def buffer(self, array, hint="buf"):
        """Bind ``array`` as a kernel parameter; returns its Var."""
        key = id(array)
        if key not in self._buffers:
            name = self.namer.fresh(hint)
            self._buffers[key] = (name, array)
            self._buffer_order.append(key)
            self._plan.append(self._slot_roles.get(key))
        return Var(self._buffers[key][0])

    def bound_buffers(self):
        """``(name, array)`` pairs in binding order."""
        return [self._buffers[key] for key in self._buffer_order]

    def binding_plan(self):
        """Per-parameter ``(slot, role)`` entries, in binding order.

        ``None`` marks a buffer bound outside the tensor protocol
        (e.g. by a custom format's unfurl function); such parameters
        keep their compile-time binding when the kernel is rebound.
        """
        return tuple(self._plan)

    # -- scalar tensors ---------------------------------------------------
    def scalar_ref(self, tensor):
        """The local accumulator Var standing in for a 0-dim tensor."""
        key = id(tensor)
        if key not in self._scalars:
            var = Var(self.namer.fresh(tensor.name + "_acc"))
            self._scalars[key] = (var, tensor, False)
            self._scalar_order.append(key)
        return self._scalars[key][0]

    def mark_scalar_output(self, tensor):
        var = self.scalar_ref(tensor)
        key = id(tensor)
        _, tensor, _ = self._scalars[key]
        self._scalars[key] = (var, tensor, True)
        return var

    def scalar_bindings(self):
        """``(var, tensor, is_output)`` triples in first-use order."""
        return [self._scalars[key] for key in self._scalar_order]

    # -- emission ---------------------------------------------------------
    def emit(self, stmt):
        if stmt is not None:
            self._blocks[-1].append(stmt)

    @contextlib.contextmanager
    def scope(self):
        """Collect emitted statements into a separate block."""
        self._blocks.append([])
        try:
            yield
        finally:
            stmts = self._blocks.pop()
            self._last_scope = asm.Block(stmts)

    def scoped(self, fn, *args, **kwargs):
        """Run ``fn`` with emission redirected; return the Block."""
        with self.scope():
            fn(*args, **kwargs)
        return self._last_scope

    def current_block(self):
        return asm.Block(self._blocks[-1])

    def take_block(self):
        if len(self._blocks) != 1:
            raise LoweringError("unbalanced emission scopes")
        stmts = self._blocks[0]
        self._blocks = [[]]
        return asm.Block(stmts)

    # -- instrumentation ---------------------------------------------------
    def count_op(self):
        """Statement incrementing the work counter (or None)."""
        if not self.instrument:
            return None
        from repro.ir import ops

        return asm.AccumStmt(self.ops_var, ops.ADD, Literal(1))


def fill_literal(tensor):
    """The fill value of a tensor as an IR literal."""
    fill = tensor.fill
    if isinstance(fill, np.generic):
        fill = fill.item()
    return Literal(fill)


def element_store(ctx, tensor, pos):
    """Assignment target ``val[pos]`` for a tensor's element level."""
    buf = ctx.buffer(tensor.element.val, tensor.name + "_val")
    return Load(buf, pos)
