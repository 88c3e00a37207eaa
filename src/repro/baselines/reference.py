"""A reference interpreter for CIN programs.

Executes a CIN program directly — nested Python loops over *densified*
inputs — with the same semantics the compiler implements: index
modifiers, ``missing`` propagation, ``coalesce``, sieves, wheres and
multis.  Append outputs (``RunOutput`` / ``SparseOutput``) are
overwrite-only targets with a dense result.  It is deliberately naive;
it exists to be an independently simple oracle that every compiled
kernel is checked against.
"""

import numpy as np

from repro.cin.analyze import infer_extents, output_tensors
from repro.cin.nodes import (
    Access,
    Assign,
    Forall,
    Multi,
    OffsetExpr,
    Pass,
    PermitExpr,
    Sieve,
    Where,
    WindowExpr,
)
from repro.ir.nodes import Call, Literal, Load, Var
from repro.ir.ops import MISSING
from repro.tensors.output import _AppendOutput
from repro.tensors.tensor import Tensor
from repro.util.errors import ReproError


class Interpreter:
    """Interprets one program; results land in ``self.results``."""

    def __init__(self, program):
        self.program = program
        self.extents = infer_extents(program)
        self.outputs = output_tensors(program)
        self.dense = {}
        self.results = {}
        for tensor in self.outputs:
            self.results[id(tensor)] = np.full(
                tensor.shape, tensor.fill, dtype=tensor.dtype)

    def run(self):
        self._stmt(self.program, {})
        return self

    def result_for(self, tensor):
        out = self.results[id(tensor)]
        if out.shape == ():
            return out[()]
        return out

    # -- statements -----------------------------------------------------
    def _stmt(self, stmt, env):
        if isinstance(stmt, Pass):
            return
        if isinstance(stmt, Assign):
            self._assign(stmt, env)
        elif isinstance(stmt, Forall):
            self._forall(stmt, env)
        elif isinstance(stmt, Where):
            for tensor in output_tensors(stmt.producer):
                self.results[id(tensor)].fill(tensor.fill)
            self._stmt(stmt.producer, env)
            self._stmt(stmt.consumer, env)
        elif isinstance(stmt, Multi):
            for child in stmt.stmts:
                self._stmt(child, env)
        elif isinstance(stmt, Sieve):
            if self._expr(stmt.cond, env):
                self._stmt(stmt.body, env)
        else:
            raise ReproError("cannot interpret %r" % (stmt,))

    def _forall(self, stmt, env):
        ext = stmt.ext or self.extents.get(stmt.index.name)
        if ext is None:
            raise ReproError("no extent for %r" % stmt.index.name)
        start = self._expr(ext.start, env)
        stop = self._expr(ext.stop, env)
        for value in range(start, stop):
            inner = dict(env)
            inner[stmt.index.name] = value
            self._stmt(stmt.body, inner)

    def _assign(self, stmt, env):
        value = self._expr(stmt.rhs, env)
        if stmt.op is not None and isinstance(stmt.lhs.tensor,
                                              _AppendOutput):
            raise ReproError(
                "append outputs support overwrite assignment only")
        target = self.results[id(stmt.lhs.tensor)]
        coords = tuple(self._expr(idx, env) for idx in stmt.lhs.idxs)
        if stmt.op is None:
            target[coords] = value
        else:
            # The element as a numpy scalar, as a kernel reads it: a
            # ``float32`` term adds to a ``float64`` one in ``float64``.
            target[coords] = stmt.op.fold(target[coords], value)

    # -- expressions -----------------------------------------------------
    def _expr(self, expr, env):
        if isinstance(expr, Literal):
            return expr.value
        if isinstance(expr, Var):
            if expr.name not in env:
                raise ReproError("unbound variable %r" % expr.name)
            return env[expr.name]
        if isinstance(expr, Access):
            return self._access(expr, env)
        if isinstance(expr, Call):
            args = [self._expr(arg, env) for arg in expr.args]
            return expr.op.fold(*args)
        if isinstance(expr, Load):
            raise ReproError("raw loads cannot appear in source programs")
        raise ReproError("cannot interpret expression %r" % (expr,))

    def _access(self, access, env):
        tensor = access.tensor
        if not isinstance(tensor, Tensor):
            raise ReproError("interpreter requires whole-tensor accesses")
        if id(tensor) in self.results:
            dense = self.results[id(tensor)]
        else:
            if id(tensor) not in self.dense:
                self.dense[id(tensor)] = tensor.to_numpy()
            dense = self.dense[id(tensor)]
        coords = []
        for mode, idx in enumerate(access.idxs):
            value = self._index(idx, env, (0, tensor.shape[mode]))
            if value is MISSING:
                return MISSING
            coords.append(value)
        if tensor.ndim == 0:
            return dense[()] if hasattr(dense, "shape") else dense
        return dense[tuple(coords)]

    def _index(self, idx, env, domain):
        """Evaluate one index expression with modifier semantics.

        ``domain`` is the valid coordinate range in the *current*
        coordinate system (the tensor side of the modifier chain); it
        transforms as modifiers stack, exactly as the compiler
        transforms looplet extents (see ``repro.compiler.unfurl``).
        ``None`` bounds mean unbounded (inside a permit).
        """
        lo, hi = domain
        if isinstance(idx, PermitExpr):
            value = self._index(idx.base, env, (None, None))
            if value is MISSING:
                return MISSING
            if lo is not None and value < lo:
                return MISSING
            if hi is not None and value >= hi:
                return MISSING
            return value
        if isinstance(idx, OffsetExpr):
            delta = self._expr(idx.delta, env)
            inner = (None if lo is None else lo + delta,
                     None if hi is None else hi + delta)
            base = self._index(idx.base, env, inner)
            if base is MISSING:
                return MISSING
            return base - delta
        if isinstance(idx, WindowExpr):
            win_lo = self._expr(idx.lo, env)
            win_hi = self._expr(idx.hi, env)
            clip_lo = win_lo if lo is None else max(lo, win_lo)
            clip_hi = win_hi if hi is None else min(hi, win_hi)
            inner = (clip_lo - win_lo, clip_hi - win_lo)
            base = self._index(idx.base, env, inner)
            if base is MISSING:
                return MISSING
            return win_lo + base
        value = self._expr(idx, env)
        if value is MISSING:
            return MISSING
        if (lo is not None and value < lo) or (hi is not None
                                               and value >= hi):
            raise ReproError(
                "index %r out of bounds for domain [%r, %r) (use permit "
                "for padded accesses)" % (value, lo, hi))
        return value


def interpret(program):
    """Run the reference interpreter; returns the Interpreter (use
    ``result_for(tensor)`` to read outputs)."""
    return Interpreter(program).run()
