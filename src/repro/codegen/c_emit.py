"""Lower the optimized target AST to C99.

The emitter consumes exactly the :mod:`repro.ir.asm` statement tree the
python backend would render (:mod:`repro.ir.emit`) — *after* the
optimizer pipeline ran — and produces one self-contained C99
translation unit exporting ``int64_t <name>(void **args)``.  Every
kernel parameter arrives as one slot of the ``args`` pointer array and
is cast to its typed pointer in the prologue; buffer element types are
fixed at compile time from the seed arrays' dtypes, which is sound
because format signatures pin dtypes across rebinds (see
:meth:`repro.compiler.kernel.CompiledKernel.bind`).

Semantics contract: emitted C must be **bit-identical** to the python
backend on every supported kernel (the ``c_backend`` fuzz oracle and
``tests/codegen`` enforce this).  The translation therefore reproduces
Python arithmetic exactly where C differs:

* ``/`` always divides in ``double`` (``fl_div``),
* ``//`` and ``%`` use floor-division / sign-of-divisor semantics
  (``fl_floordiv_*`` / ``fl_mod_*``); an integer one by zero sets
  ``fl_status`` like ``round_u8`` below,
* ``min``/``max`` return the *first* minimal/maximal argument like the
  Python builtins (ternary helpers, not ``fmin``/``fmax``),
* ``round_u8`` rounds half-to-even (``rint`` under the default
  rounding mode, matching Python's ``round``); on NaN or an infinity it
  sets the kernel's ``fl_status``, the kernel returns it, and the entry
  raises what ``round`` raises (:data:`STATUS_ERRORS`),
* the ``search_ge``/``search_abs_ge`` protocol helpers are the same
  binary searches as :mod:`repro.ir.ops`, over the typed pointer.

How each operator lowers — an infix symbol, a prelude helper, one of the
named custom renderers below — is declared on its
:class:`repro.ir.ops.Op` (``c``); this module dispatches on that
declaration and never tests an operator by name.  Types come from the
dtype pass the python backend's views use (:func:`repro.ir.dtypes.sites`):
an expression's C type is the widest Python counterpart of the numpy
types it may have, so a local, a typed helper's ``_i64``/``_f64``
variant and ``abs`` all read the one analysis.

Anything the emitter cannot translate with that guarantee raises
:class:`CUnsupportedError` while it renders — slice operations (the
``Slice``/``Reduce`` nodes of a dense output's reset and of vectorized
loops: no C lowering *yet*), ``missing``, operators that declare no C
lowering, buffers outside :data:`SUPPORTED_DTYPES`, a buffer parameter
read as a scalar or reassigned, loop variables read after their loop
(Python leaves ``stop - 1``, C leaves ``stop``), and the types C
computes differently: a float loop bound or index, a truth-valued
index, ``and``/``or`` over a non-bool, ``round_u8`` of a bool, a
search over a non-``int64`` buffer, and arithmetic on truth values
alone.  The caller falls back to the python backend.
"""

import operator
from collections import Counter

import numpy as np

from repro.ir import asm, dtypes
from repro.ir.nodes import Call, Literal, Load, Reduce, Slice, Var
from repro.ir.ops import MISSING
from repro.util.errors import ReproError

#: numpy dtype names the C backend accepts as kernel buffers, and their
#: C element types.  numpy ``bool_`` is one byte, same as C99 ``bool`` on
#: every mainstream ABI, and C assignment to ``bool`` normalizes nonzero
#: to ``true`` exactly like numpy boolean-array stores.
SUPPORTED_DTYPES = {"int64": "int64_t", "float64": "double", "bool": "bool"}

_CZERO = {"bool": "false", "int64_t": "INT64_C(0)", "double": "0.0"}

#: C keywords plus identifiers the prelude reserves; colliding kernel
#: names get a ``v_`` prefix (consistently, via the rename map).
_RESERVED = frozenset("""
    auto break case char const continue default do double else enum
    extern float for goto if inline int long register restrict return
    short signed sizeof static struct switch typedef union unsigned
    void volatile while _Bool bool true false
""".split())

_ATOM = 100


def _by_zero(fn):
    """The error ``fn(1, 0)`` raises in the running interpreter."""
    try:
        fn(1, 0)
    except ZeroDivisionError as exc:
        return ZeroDivisionError, str(exc)


#: A kernel's negative return value, set by a ``checked`` helper: the
#: error Python raises at the same point (``round(nan)``,
#: ``round(inf)``, ``1 // 0``, ``1 % 0``).  The division messages are
#: the running interpreter's: 3.11 words ``%`` apart from ``//``.
STATUS_ERRORS = {
    -1: (ValueError, "cannot convert float NaN to integer"),
    -2: (OverflowError, "cannot convert float infinity to integer"),
    -3: _by_zero(operator.floordiv),
    -4: _by_zero(operator.mod),
}


class CUnsupportedError(ReproError):
    """The C emitter cannot translate this kernel bit-identically."""


_PRELUDE = r"""#include <stdint.h>
#include <stdbool.h>
#include <math.h>

static inline double fl_div(double a, double b) { return a / b; }

static inline int64_t fl_fail(int64_t *status, int64_t code) {
    if (!*status) *status = code;
    return 0;
}

static inline int64_t fl_floordiv_i64(int64_t a, int64_t b,
                                      int64_t *status) {
    if (b == 0) return fl_fail(status, -3);
    int64_t q = a / b;
    if ((a % b != 0) && ((a < 0) != (b < 0))) q -= 1;
    return q;
}

static inline int64_t fl_mod_i64(int64_t a, int64_t b, int64_t *status) {
    if (b == 0) return fl_fail(status, -4);
    int64_t r = a % b;
    if (r != 0 && ((r < 0) != (b < 0))) r += b;
    return r;
}

static inline double fl_floordiv_f64(double a, double b) {
    return floor(a / b);
}

static inline double fl_mod_f64(double a, double b) {
    double r = fmod(a, b);
    if (r != 0.0 && ((r < 0.0) != (b < 0.0))) r += b;
    return r;
}

static inline int64_t fl_min_i64(int64_t a, int64_t b) {
    return b < a ? b : a;
}

static inline int64_t fl_max_i64(int64_t a, int64_t b) {
    return b > a ? b : a;
}

static inline double fl_min_f64(double a, double b) {
    return b < a ? b : a;
}

static inline double fl_max_f64(double a, double b) {
    return b > a ? b : a;
}

static inline int64_t fl_abs_i64(int64_t a) { return a < 0 ? -a : a; }

static inline int64_t fl_round_u8(double v, int64_t *status) {
    if (isnan(v) || isinf(v)) return fl_fail(status, isnan(v) ? -1 : -2);
    double r = rint(v);
    if (r < 0.0) return 0;
    if (r > 255.0) return 255;
    return (int64_t) r;
}

static inline int64_t fl_search_ge(const int64_t *idx, int64_t lo,
                                   int64_t hi, int64_t key) {
    while (lo < hi) {
        int64_t mid = (lo + hi) / 2;
        if (idx[mid] < key) lo = mid + 1;
        else hi = mid;
    }
    return lo;
}

static inline int64_t fl_search_abs_ge(const int64_t *idx, int64_t lo,
                                       int64_t hi, int64_t key) {
    while (lo < hi) {
        int64_t mid = (lo + hi) / 2;
        int64_t v = idx[mid];
        if ((v < 0 ? -v : v) < key) lo = mid + 1;
        else hi = mid;
    }
    return lo;
}
"""


def _locals(func):
    """The scalar names ``func`` assigns (a ``for`` assigns its
    variable), in order of first assignment."""
    names = {}
    for stmt in asm.walk_statements(func):
        if isinstance(stmt, asm.ForLoop):
            names[stmt.var.name] = None
        elif isinstance(stmt, (asm.AssignStmt, asm.AccumStmt)) \
                and isinstance(stmt.target, Var):
            names[stmt.target.name] = None
    return [name for name in names if name not in func.params]


def _mentions(stmt, seen, inside):
    """One walk: ``seen[name]`` counts the statements mentioning a name
    in a header or an assignment (a ``for`` mentions its variable), and
    ``inside[loop]`` those mentioning a ``ForLoop``'s variable within it."""
    names = set().union(
        *(expr.free_vars() for expr in asm.statement_exprs(stmt)))
    if isinstance(stmt, asm.ForLoop):
        names.add(stmt.var.name)
        before = seen[stmt.var.name]
    seen.update(names)
    for child in asm.child_statements(stmt):
        _mentions(child, seen, inside)
    if isinstance(stmt, asm.ForLoop):
        inside[stmt] = seen[stmt.var.name] - before


class _Emitter:
    """One emission pass over one kernel function."""

    def __init__(self, func, param_dtypes):
        self.func = func
        self.params = tuple(func.params)
        self.param_types = {}
        for name in self.params:
            dtype = str(param_dtypes.get(name))
            ctype = SUPPORTED_DTYPES.get(dtype)
            if ctype is None:
                raise CUnsupportedError(
                    "buffer %r has dtype %s (C backend supports %s)"
                    % (name, dtype,
                       "/".join(sorted(SUPPORTED_DTYPES))))
            self.param_types[name] = ctype
        self.kinds = dtypes.sites(func, {
            name: param_dtypes[name] for name in self.params})[3]
        self.locals = _locals(func)
        self.stored = asm.effects(func).stores
        self.renames = {}
        self._build_renames()
        self._temp = 0
        self.checked = False    # a helper reports through ``fl_status``

    # -- analysis ------------------------------------------------------
    def _reads(self, expr):
        """The Python types the values of ``expr`` compute like."""
        return {dtypes.read_as(kind) for kind in self.kinds(expr)}

    def _ctype(self, expr):
        """The C type of ``expr``: the widest of the Python types its
        values compute like (``bool`` < ``int`` < ``float``), and
        ``int64_t`` for none."""
        read = self._reads(expr)
        if type(None) in read:
            raise CUnsupportedError(
                "missing-valued expression (coalesce/permit)")
        if np.ndarray in read:
            raise CUnsupportedError(
                "buffer parameter %r used as a scalar value"
                % getattr(expr, "name", expr))
        if not read <= {bool, int, float}:
            raise CUnsupportedError("cannot type %r" % (expr,))
        if float in read:
            return "double"
        return "bool" if read == {bool} else "int64_t"

    def _check_loop_vars(self):
        """Reject loop variables read outside their loop.

        Python's ``for`` leaves the variable at ``stop - 1`` after the
        loop; the emitted C ``for`` leaves it at ``stop``.  Any mention
        of the variable outside the loop's own subtree could observe
        the difference, so such kernels fall back.
        """
        total, inside = Counter(), {}
        _mentions(self.func, total, inside)
        for node in asm.walk_statements(self.func):
            if isinstance(node, asm.ForLoop):
                name = node.var.name
                if name in asm.effects(node.body).writes:
                    raise CUnsupportedError(
                        "loop variable %r reassigned inside its loop" % name)
                if total[name] != inside[node]:
                    raise CUnsupportedError(
                        "loop variable %r used outside its loop" % name)

    def _build_renames(self):
        taken = set()
        for name in list(self.params) + self.locals:
            safe = name
            if (name in _RESERVED or name.startswith("fl_")
                    or name.startswith("v_")):
                safe = "v_" + name
            while safe in taken:
                safe += "_"
            taken.add(safe)
            self.renames[name] = safe

    def _cname(self, name):
        return self.renames.get(name, name)

    def _local(self, name):
        """The C name of the scalar an assignment writes."""
        if name in self.params:
            raise CUnsupportedError(
                "kernel reassigns buffer parameter %r" % name)
        return self._cname(name)

    def _buffer(self, buffer, what):
        """The C element type of the parameter ``buffer`` names."""
        if not isinstance(buffer, Var) or buffer.name not in self.params:
            raise CUnsupportedError(
                "%s %r is not a kernel buffer parameter"
                % (what, getattr(buffer, "name", buffer)))
        return self.param_types[buffer.name]

    def _integer(self, expr, refusal):
        """``expr`` rendered, refused with ``refusal`` when C would
        compute it as a ``double``."""
        rendered = self._render(expr)[0]
        if self._ctype(expr) == "double":
            raise CUnsupportedError(refusal)
        return rendered

    def _fresh_temp(self):
        self._temp += 1
        return "fl_stop_%d" % self._temp

    # -- expression rendering ------------------------------------------
    def _render(self, expr):
        """``(source, precedence)`` of one expression, C syntax."""
        if isinstance(expr, Literal):
            if expr.value is MISSING:
                raise CUnsupportedError(
                    "missing-valued expression (coalesce/permit)")
            return self._render_literal(expr.value), _ATOM
        if isinstance(expr, Var):
            if expr.name in self.params:
                raise CUnsupportedError(
                    "buffer parameter %r used as a scalar value"
                    % expr.name)
            return self._cname(expr.name), _ATOM
        if isinstance(expr, Load):
            return self._element(expr, "load from"), _ATOM
        if isinstance(expr, Call):
            return self._render_call(expr)
        if isinstance(expr, (Slice, Reduce)):
            raise CUnsupportedError(
                "%s node (the slice operation of a dense reset or a "
                "vectorized loop) has no C lowering yet"
                % type(expr).__name__)
        raise CUnsupportedError("cannot render %r" % (expr,))

    def _element(self, target, what):
        """``buffer[index]`` of a load or a store target."""
        self._buffer(target.buffer, what)
        index = self._integer(target.index, "float-typed buffer index")
        # numpy reads ``buf[False]`` as a mask, C as element 0.
        if bool in self._reads(target.index):
            raise CUnsupportedError("truth-valued buffer index")
        return "%s[%s]" % (self._cname(target.buffer.name), index)

    def _render_literal(self, value):
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, int):
            return "INT64_C(%d)" % value
        text = repr(float(value))
        if text == "inf":
            return "INFINITY"
        if text == "-inf":
            return "(-INFINITY)"
        if text == "nan":
            return "NAN"
        if "." not in text and "e" not in text:
            text += ".0"
        return text

    def _render_call(self, expr):
        """Dispatch on the operator's declared C form: the form's name
        picks the ``_render_<form>`` method, the rest are its data."""
        op = expr.op
        if op.c is None:
            for arg in expr.args:   # an untranslatable operand first
                self._render(arg)
            raise CUnsupportedError(
                "operator %r has no C lowering" % op.name)
        rendered = getattr(self, "_render_" + op.c[0])(expr, *op.c[1:])
        # numpy computes some operators over ``bool`` operands alone
        # logically (``True + True`` is ``True``); C, like Python,
        # promotes them to int.  Refused when every operand may be one.
        on_bools = Call(op, [Literal(True)] * len(expr.args))
        if expr.args and self.kinds(on_bools) == {int} and all(
                bool in self._reads(arg) for arg in expr.args):
            raise CUnsupportedError("arithmetic on truth values alone")
        return rendered

    def _render_args(self, args):
        return ", ".join(self._render(arg)[0] for arg in args)

    def _render_infix(self, expr, symbol, precedence):
        parts = []
        for position, arg in enumerate(expr.args):
            source, prec = self._render(arg)
            if prec < precedence or (prec == precedence
                                     and position > 0):
                source = "(%s)" % source
            parts.append(source)
        return (" %s " % symbol).join(parts), precedence

    def _render_logical(self, expr, symbol, precedence):
        rendered = self._render_infix(expr, symbol, precedence)
        if any(self._reads(arg) != {bool} for arg in expr.args):
            raise CUnsupportedError(
                "non-boolean operand to %r (Python returns an "
                "operand, C returns 0/1)" % expr.op.name)
        return rendered

    def _render_prefix(self, expr, symbol, precedence):
        inner, prec = self._render(expr.args[0])
        if prec < precedence:
            inner = "(%s)" % inner
        return symbol + inner, precedence

    def _render_helper(self, expr, helper):
        return "%s(%s)" % (helper, self._render_args(expr.args)), _ATOM

    def _render_checked(self, expr, helper):
        """A helper that reports an error through the kernel's
        ``fl_status`` (:data:`STATUS_ERRORS`)."""
        self.checked = True
        rendered = self._render_args(expr.args)
        if any(bool in self._reads(arg) for arg in expr.args):
            raise CUnsupportedError(
                "%s of a truth value (numpy's bool has no __round__)"
                % expr.op.name)
        return "%s(%s, &fl_status)" % (helper, rendered), _ATOM

    def _render_typed(self, expr, stem, checked=None):
        """A binary prelude helper with an ``_i64`` and an ``_f64``
        variant; more arguments left-fold into nested calls.  A
        ``checked`` ``_i64`` variant also reports through
        ``fl_status``."""
        if len(expr.args) > 2:
            folded = expr.args[0]
            for arg in expr.args[1:]:
                folded = Call(expr.op, [folded, arg])
            return self._render_call(folded)
        rendered = self._render_args(expr.args)
        if "double" in map(self._ctype, expr.args):
            return "%s_f64(%s)" % (stem, rendered), _ATOM
        if checked:
            self.checked = True
            rendered += ", &fl_status"
        return "%s_i64(%s)" % (stem, rendered), _ATOM

    def _render_magnitude(self, expr):
        (arg,) = expr.args
        rendered = self._render(arg)[0]
        helper = "fabs" if self._ctype(arg) == "double" else "fl_abs_i64"
        return "%s(%s)" % (helper, rendered), _ATOM

    def _render_conditional(self, expr):
        cond, then, otherwise = (self._render(arg)[0]
                                 for arg in expr.args)
        return "(%s ? %s : %s)" % (cond, then, otherwise), _ATOM

    def _render_search(self, expr, helper):
        # The first argument is the index buffer itself, not a value.
        rest = self._render_args(expr.args[1:])
        elem = self._buffer(expr.args[0], "%s index buffer" % expr.op.name)
        if elem != "int64_t":
            raise CUnsupportedError(
                "%s over a non-int64 buffer" % expr.op.name)
        buffer = self._cname(expr.args[0].name)
        return "%s(%s, %s)" % (helper, buffer, rest), _ATOM

    # -- statement rendering -------------------------------------------
    def _emit(self, stmt, depth, lines):
        pad = "    " * depth
        if stmt is None or stmt.is_nop():
            return
        if isinstance(stmt, asm.Block):
            for child in stmt.stmts:
                self._emit(child, depth, lines)
        elif isinstance(stmt, asm.Comment):
            for line in str(stmt.text).splitlines():
                lines.append("%s/* %s */" % (pad, line))
        elif isinstance(stmt, asm.AssignStmt):
            lines.append(pad + self._assignment(stmt.target,
                                                stmt.value))
        elif isinstance(stmt, asm.AccumStmt):
            lines.append(pad + self._accumulation(stmt))
        elif isinstance(stmt, asm.ForLoop):
            refusal = "float-typed loop bound in for-loop over %r" \
                % stmt.var.name
            start, stop = (self._integer(bound, refusal)
                           for bound in (stmt.start, stmt.stop))
            var = self._local(stmt.var.name)
            temp = self._fresh_temp()
            lines.append("%s{" % pad)
            lines.append("%s    int64_t %s = %s;" % (pad, temp, stop))
            lines.append("%s    for (%s = %s; %s < %s; %s++) {" % (
                pad, var, start, var, temp, var))
            self._emit(stmt.body, depth + 2, lines)
            lines.append("%s    }" % pad)
            lines.append("%s}" % pad)
        elif isinstance(stmt, asm.WhileLoop):
            lines.append("%swhile (%s) {" % (
                pad, self._render(stmt.cond)[0]))
            self._emit(stmt.body, depth + 1, lines)
            lines.append("%s}" % pad)
        elif isinstance(stmt, asm.If):
            self._emit_if(stmt, depth, lines)
        else:
            raise CUnsupportedError("cannot emit %r" % (stmt,))

    def _assignment(self, target, value):
        rendered = self._render(value)[0]
        if isinstance(target, Var):
            return "%s = %s;" % (self._local(target.name), rendered)
        if isinstance(target, Slice):
            self._render(target)    # refused by kind
        return "%s = (%s)(%s);" % (
            self._element(target, "store target"),
            self.param_types[target.buffer.name], rendered)

    def _accumulation(self, stmt):
        target, op = stmt.target, stmt.op
        combined = Call(op, [target, stmt.value])
        if not isinstance(target, Var):
            return self._assignment(target, combined)
        rendered = self._render_call(combined)[0]
        if op.accum is not None and op.c[0] == "infix":
            return "%s %s= %s;" % (self._cname(target.name), op.c[1],
                                   self._render(stmt.value)[0])
        return "%s = %s;" % (self._cname(target.name), rendered)

    def _emit_if(self, stmt, depth, lines):
        pad = "    " * depth
        if stmt.branches and stmt.branches[0][0] is None:
            # A leading else-branch is unconditionally taken (optimizer
            # passes prune fully; mirror the python emitter).
            self._emit(stmt.branches[0][1], depth, lines)
            return
        first = True
        for cond, body in stmt.branches:
            if cond is None:
                if body.is_nop():
                    continue
                lines.append("%s} else {" % pad)
            else:
                keyword = "if" if first else "} else if"
                lines.append("%s%s (%s) {" % (
                    pad, keyword, self._render(cond)[0]))
            self._emit(body, depth + 1, lines)
            first = False
        lines.append("%s}" % pad)

    # -- top level -----------------------------------------------------
    def render(self):
        body_lines = []
        self._emit(self.func.body, 1, body_lines)
        self._check_loop_vars()
        lines = [
            "/* generated by repro.codegen.c_emit; do not edit */",
            _PRELUDE,
            "#ifdef _WIN32",
            "#define FL_EXPORT __declspec(dllexport)",
            "#else",
            "#define FL_EXPORT __attribute__((visibility(\"default\")))",
            "#endif",
            "",
            "FL_EXPORT int64_t %s(void **fl_args) {"
            % self.func.name,
        ]
        for position, name in enumerate(self.params):
            ctype = self.param_types[name]
            const = "" if name in self.stored else "const "
            lines.append(
                "    %s%s *%s = (%s%s *) fl_args[%d];"
                % (const, ctype, self._cname(name), const, ctype,
                   position))
        for name in self.locals:
            ctype = self._ctype(Var(name))
            lines.append("    %s %s = %s;" % (
                ctype, self._cname(name), _CZERO[ctype]))
        if self.checked:
            lines.append("    int64_t fl_status = 0;")
        lines.extend(body_lines)
        if len(self.func.returns) > 1:
            raise CUnsupportedError(
                "multi-value kernel return %r" % (self.func.returns,))
        value = (self._cname(self.func.returns[0]) if self.func.returns
                 else "0")
        if self.checked:
            value = "fl_status ? fl_status : %s" % value
        lines.append("    return %s;" % value)
        lines.append("}")
        return "\n".join(lines) + "\n"


def emit_c(func, param_dtypes):
    """Render one :class:`repro.ir.asm.FuncDef` as a C99 source string.

    ``param_dtypes`` maps every kernel parameter name to its numpy
    dtype name (``"int64"`` / ``"float64"`` / ``"bool"``).  Raises
    :class:`CUnsupportedError` when the kernel cannot be translated
    bit-identically; the caller is expected to fall back to the python
    backend.
    """
    if not isinstance(func, asm.FuncDef):
        raise CUnsupportedError("C emission needs a FuncDef, got %r"
                                % (func,))
    missing = [name for name in func.params
               if name not in param_dtypes]
    if missing:
        raise CUnsupportedError(
            "no dtype recorded for parameter(s) %s"
            % ", ".join(missing))
    return _Emitter(func, param_dtypes).render()
