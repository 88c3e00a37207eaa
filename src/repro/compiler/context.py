"""Compilation context: name supply, buffer binding, code emission.

One :class:`Context` lives for the duration of one kernel compilation.
Formats and lowering passes use it to

* allocate fresh runtime variable names (``freshen``),
* bind numpy arrays as kernel parameters (``buffer``),
* emit statements into the current block (``emit`` / ``scope``),
  naming a computed value once (``let``), and
* resolve scalar (0-dimensional) tensors to local accumulator
  variables.
"""

import contextlib

import numpy as np

from repro.ir import asm, ops
from repro.ir.nodes import Literal, Load, Var
from repro.ir.runtime import reserved_names
from repro.rewrite import simplify_expr
from repro.rewrite.rules import integer_valued, value_range
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
        self._plan = []             # (slot, position, role) or None
        self._slot_roles = {}       # id(buffer) -> (slot, position, role)
        self._scalars = {}          # id(tensor) -> (Var, tensor, writeback)
        self._scalar_order = []
        self._blocks = [[]]
        self.extents = {}
        self.let_names = set()      # the variables `let` assigned once
        self.ops_var = Var(self.namer.fresh("_ops"))
        # Per open block: the scalars whose value where it ends is a
        # known literal (the work counter starts at zero).
        self._known = [{self.ops_var.name: Literal(0)}]

    # -- names ---------------------------------------------------------
    def freshen(self, hint):
        return self.namer.fresh(hint)

    # -- buffers --------------------------------------------------------
    def register_tensors(self, tensors):
        """Declare the program's tensors as binding *slots*.

        Every buffer a tensor exposes through ``kernel_buffers`` is
        mapped back to its slot, its position in the tensor's
        :func:`~repro.cin.analyze.tensor_pins` and its role, so
        :meth:`binding_plan` can later tell the kernel how to rebind
        its positional arguments to a fresh set of tensors of the same
        formats.
        """
        from repro.cin.analyze import tensor_binding_buffers

        for slot, tensor in enumerate(tensors):
            roles = tensor_binding_buffers(tensor).items()
            for position, (role, buf) in enumerate(roles, 1):
                self._slot_roles.setdefault(id(buf), (slot, position, role))

    def buffer(self, array, hint="buf", bounds=None):
        """Bind ``array`` as a kernel parameter; returns its Var, which
        carries ``bounds``, the closed range of its elements, when given
        (a level's declared coordinate bounds), and is ``integral`` when
        its dtype is."""
        key = id(array)
        if key not in self._buffers:
            name = self.namer.fresh(hint)
            self._buffers[key] = (name, array)
            self._buffer_order.append(key)
            self._plan.append(self._slot_roles.get(key))
        return Var(self._buffers[key][0], bounds,
                   integral=_integral_dtype(array.dtype))

    def bound_buffers(self):
        """``(name, array)`` pairs in binding order."""
        return [self._buffers[key] for key in self._buffer_order]

    def binding_plan(self):
        """Per-parameter ``(slot, position)`` entries, in binding order.

        ``None`` marks a buffer bound outside the tensor protocol
        (e.g. by a custom format's unfurl function); such parameters
        keep their compile-time binding when the kernel is rebound.
        """
        return tuple(entry and entry[:2] for entry in self._plan)

    def binding_roles(self):
        """:meth:`binding_plan` with roles for positions (the dtype
        pass reads a parameter's role)."""
        return tuple(entry and (entry[0], entry[2]) for entry in self._plan)

    # -- scalar tensors ---------------------------------------------------
    def scalar_ref(self, tensor):
        """The local accumulator Var standing in for a 0-dim tensor."""
        key = id(tensor)
        if key not in self._scalars:
            var = Var(self.namer.fresh(tensor.name + "_acc"),
                      integral=_integral_dtype(tensor.dtype))
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
        if stmt is None:
            return
        self._blocks[-1].append(stmt)
        known = self._known[-1]
        for piece in stmt.stmts if isinstance(stmt, asm.Block) else [stmt]:
            if isinstance(piece, asm.AssignStmt) \
                    and isinstance(piece.target, Var) \
                    and isinstance(piece.value, Literal):
                known[piece.target.name] = piece.value
            else:
                for name in asm.effects(piece).writes & known.keys():
                    del known[name]

    def let(self, hint, value):
        """``value`` as an operand: itself if a literal or a variable,
        else a fresh variable assigned it once, bounded by the value's
        range and integral when it is."""
        value = simplify_expr(value)
        if isinstance(value, (Literal, Var)):
            return value
        var = Var(self.freshen(hint), value_range(value),
                  integral=integer_valued(value))
        self.let_names.add(var.name)
        self.emit(asm.AssignStmt(var, value))
        return var

    def assign(self, hint, value):
        """A fresh variable assigned ``value`` here, free to be assigned
        again (a cursor): unlike :meth:`let`, never ``value`` itself and
        unbounded; integral when ``value`` is."""
        var = Var(self.freshen(hint), integral=integer_valued(value))
        self.emit(asm.AssignStmt(var, value))
        return var

    @contextlib.contextmanager
    def scope(self, repeats=False):
        """Collect emitted statements into the list it yields, to run
        right after what is emitted here so far; a loop body
        ``repeats``: no value known here is known at its top."""
        self._blocks.append([])
        self._known.append({} if repeats else dict(self._known[-1]))
        try:
            yield self._blocks[-1]
        finally:
            self._known.pop()
            self._blocks.pop()

    def scoped(self, fn, *args, repeats=False, **kwargs):
        """Run ``fn`` with emission redirected; return the Block."""
        with self.scope(repeats) as stmts:
            fn(*args, **kwargs)
        return asm.Block(stmts)

    def take_block(self):
        if len(self._blocks) != 1:
            raise LoweringError("unbalanced emission scopes")
        stmts = self._blocks[0]
        self._blocks = [[]]
        return asm.Block(stmts)

    def accumulate(self, target, op, value):
        """``target <op>= value``, emitted next; an assignment of the
        folded literal where both values are known literals."""
        prior = self._known[-1].get(getattr(target, "name", None))
        if prior is not None and isinstance(value, Literal) \
                and prior.value is not ops.MISSING \
                and value.value is not ops.MISSING:
            return asm.AssignStmt(target,
                                  Literal(op.fold(prior.value, value.value)))
        return asm.AccumStmt(target, op, value)

    # -- instrumentation ---------------------------------------------------
    def count_op(self):
        """Statement incrementing the work counter (or None)."""
        if not self.instrument:
            return None
        return self.accumulate(self.ops_var, ops.ADD, Literal(1))


def _integral_dtype(dtype):
    """Whether every value of ``dtype`` is an integer (a bool included)."""
    return np.dtype(dtype).kind in "biu"


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
