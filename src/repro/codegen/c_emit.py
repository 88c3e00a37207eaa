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
  (``fl_floordiv_*`` / ``fl_mod_*``),
* ``min``/``max`` return the *first* minimal/maximal argument like the
  Python builtins (ternary helpers, not ``fmin``/``fmax``),
* ``round_u8`` rounds half-to-even (``rint`` under the default
  rounding mode, matching Python's ``round``); on NaN or an infinity it
  sets the kernel's ``fl_status``, the kernel returns it, and the entry
  raises what ``round`` raises (:data:`STATUS_ERRORS`),
* the ``search_ge``/``search_abs_ge`` protocol helpers are the same
  binary searches as :mod:`repro.ir.ops`, over the typed pointer.

How each operator lowers — an infix symbol, a prelude helper, one of the
named custom renderers below — and how its result is typed is declared
on its :class:`repro.ir.ops.Op` (``c`` / ``c_type``); this module
dispatches on that declaration and never tests an operator by name.

Anything the emitter cannot translate with that guarantee raises
:class:`CUnsupportedError` — slice operations (the ``Slice``/``Reduce``
nodes of a dense output's reset and of vectorized loops: no C lowering
*yet*), ``missing``, operators that declare no C lowering, buffers
outside :data:`SUPPORTED_DTYPES`, and loop variables read after their
loop (Python leaves ``stop - 1``, C leaves ``stop``).  The caller falls
back to the python backend.
"""

from collections import Counter

from repro.ir import asm
from repro.ir.nodes import Call, Literal, Load, Reduce, Slice, Var
from repro.ir.ops import MISSING
from repro.util.errors import ReproError

#: Internal type lattice: BOOL < I64 < F64 (join = promotion).
BOOL, I64, F64 = "bool", "i64", "f64"

_RANK = {BOOL: 0, I64: 1, F64: 2}

#: numpy dtype names the C backend accepts as kernel buffers.  numpy
#: ``bool_`` is one byte, same as C99 ``bool`` on every mainstream ABI,
#: and C assignment to ``bool`` normalizes nonzero to ``true`` exactly
#: like numpy boolean-array stores.
SUPPORTED_DTYPES = {"int64": I64, "float64": F64, "bool": BOOL}

_CTYPE = {BOOL: "bool", I64: "int64_t", F64: "double"}
_CZERO = {BOOL: "false", I64: "INT64_C(0)", F64: "0.0"}

#: C keywords plus identifiers the prelude reserves; colliding kernel
#: names get a ``v_`` prefix (consistently, via the rename map).
_RESERVED = frozenset("""
    auto break case char const continue default do double else enum
    extern float for goto if inline int long register restrict return
    short signed sizeof static struct switch typedef union unsigned
    void volatile while _Bool bool true false
""".split())

_ATOM = 100
_TERNARY = 3

#: A kernel's negative return value, set by a ``checked`` helper: the
#: error Python raises at the same point (``round(nan)``,
#: ``round(inf)``).
STATUS_ERRORS = {
    -1: (ValueError, "cannot convert float NaN to integer"),
    -2: (OverflowError, "cannot convert float infinity to integer"),
}


class CUnsupportedError(ReproError):
    """The C emitter cannot translate this kernel bit-identically."""


_PRELUDE = r"""#include <stdint.h>
#include <stdbool.h>
#include <math.h>

static inline double fl_div(double a, double b) { return a / b; }

static inline int64_t fl_floordiv_i64(int64_t a, int64_t b) {
    int64_t q = a / b;
    if ((a % b != 0) && ((a < 0) != (b < 0))) q -= 1;
    return q;
}

static inline int64_t fl_mod_i64(int64_t a, int64_t b) {
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
    if (isnan(v) || isinf(v)) {
        if (!*status) *status = isnan(v) ? -1 : -2;
        return 0;
    }
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


def _join(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return a if _RANK[a] >= _RANK[b] else b


def _join_all(*types):
    joined = None
    for t in types:
        joined = _join(joined, t)
    return joined


def _arith(*types):
    """Result type of +, -, * over ``types`` (bools promote to int, but
    numpy computes over bools alone logically: ``True + True`` is
    ``True``)."""
    if types and all(t is BOOL for t in types):
        raise CUnsupportedError("arithmetic on truth values alone")
    joined = _join_all(*types)
    return _join(joined, I64) if joined is not None else None


#: The result-type rules an operator's ``c_type`` may name.
_RESULT_TYPES = {
    "arith": _arith,
    "join": _join_all,
    "f64": lambda *types: F64,
    "i64": lambda *types: I64,
    "bool": lambda *types: BOOL,
}


class _Emitter:
    """One emission pass over one kernel function."""

    def __init__(self, func, param_dtypes):
        self.func = func
        self.params = tuple(func.params)
        self.param_types = {}
        for name in self.params:
            dtype = str(param_dtypes.get(name))
            elem = SUPPORTED_DTYPES.get(dtype)
            if elem is None:
                raise CUnsupportedError(
                    "buffer %r has dtype %s (C backend supports %s)"
                    % (name, dtype,
                       "/".join(sorted(SUPPORTED_DTYPES))))
            self.param_types[name] = elem
        self.env = {}           # scalar name -> lattice type
        self.decl_order = []    # scalar names in first-assignment order
        self.stored = asm.effects(func).stores
        self.renames = {}
        self._temp = 0
        self.checked = False    # a helper reports through ``fl_status``

    # -- analysis ------------------------------------------------------
    def analyze(self):
        self._infer_types()
        self._check_loop_vars()
        self._build_renames()

    def _infer_types(self):
        for _ in range(8):
            before = dict(self.env)
            self._sweep(self.func.body)
            if self.env == before:
                break
        for name in self.env:
            if self.env[name] is None:
                self.env[name] = I64

    def _sweep(self, stmt):
        if isinstance(stmt, asm.Block):
            for child in stmt.stmts:
                self._sweep(child)
        elif isinstance(stmt, asm.AssignStmt):
            value = self._expr_type(stmt.value)
            if isinstance(stmt.target, Var):
                self._assign(stmt.target.name, value)
            else:
                self._store_target(stmt.target)
        elif isinstance(stmt, asm.AccumStmt):
            if isinstance(stmt.target, Var):
                self._assign(stmt.target.name, self._call_type(
                    Call(stmt.op, [stmt.target, stmt.value])))
            else:
                self._expr_type(stmt.value)
                self._store_target(stmt.target)
        elif isinstance(stmt, asm.ForLoop):
            for bound in (stmt.start, stmt.stop):
                if self._expr_type(bound) is F64:
                    raise CUnsupportedError(
                        "float-typed loop bound in for-loop over %r"
                        % stmt.var.name)
            self._assign(stmt.var.name, I64)
            self._sweep(stmt.body)
        elif isinstance(stmt, asm.WhileLoop):
            self._expr_type(stmt.cond)
            self._sweep(stmt.body)
        elif isinstance(stmt, asm.If):
            for cond, body in stmt.branches:
                if cond is not None:
                    self._expr_type(cond)
                self._sweep(body)
        elif isinstance(stmt, asm.FuncDef):
            self._sweep(stmt.body)

    def _assign(self, name, value_type):
        if name in self.params:
            raise CUnsupportedError(
                "kernel reassigns buffer parameter %r" % name)
        if name not in self.env:
            self.env[name] = None
            self.decl_order.append(name)
        self.env[name] = _join(self.env[name], value_type)

    def _store_target(self, target):
        if isinstance(target, Slice):
            self._expr_type(target)     # refused by kind
        self._param_elem(target.buffer, "store target")
        self._index_type(target.index)

    def _param_elem(self, buffer, what):
        if not isinstance(buffer, Var) or buffer.name not in self.params:
            raise CUnsupportedError(
                "%s %r is not a kernel buffer parameter"
                % (what, getattr(buffer, "name", buffer)))
        return self.param_types[buffer.name]

    def _index_type(self, index):
        if self._expr_type(index) is F64:
            raise CUnsupportedError("float-typed buffer index")
        return I64

    def _expr_type(self, expr):
        if isinstance(expr, Literal):
            value = expr.value
            if value is MISSING:
                raise CUnsupportedError(
                    "missing-valued expression (coalesce/permit)")
            if isinstance(value, bool):
                return BOOL
            if isinstance(value, int):
                return I64
            if isinstance(value, float):
                return F64
            raise CUnsupportedError(
                "literal %r has no C type" % (value,))
        if isinstance(expr, Var):
            name = expr.name
            if name in self.params:
                raise CUnsupportedError(
                    "buffer parameter %r used as a scalar value" % name)
            # Unknown until its assignment is swept; the fixpoint
            # converges because types only move up the lattice.
            return self.env.get(name)
        if isinstance(expr, Load):
            elem = self._param_elem(expr.buffer, "load from")
            self._index_type(expr.index)
            return elem
        if isinstance(expr, Call):
            return self._call_type(expr)
        if isinstance(expr, (Slice, Reduce)):
            raise CUnsupportedError(
                "%s node (the slice operation of a dense reset or a "
                "vectorized loop) has no C lowering yet"
                % type(expr).__name__)
        raise CUnsupportedError("cannot type %r" % (expr,))

    def _c_form(self, op):
        if op.c is None:
            raise CUnsupportedError(
                "operator %r has no C lowering" % op.name)
        return op.c

    def _call_type(self, expr):
        """A custom form's own ``_type_<form>`` rule, else the
        operator's declared ``c_type`` rule over the operand types."""
        op = expr.op
        custom = op.c and getattr(self, "_type_" + op.c[0], None)
        if custom:
            return custom(expr)
        types = [self._expr_type(arg) for arg in expr.args]
        self._c_form(op)    # an untranslatable operand is reported first
        return _RESULT_TYPES[op.c_type](*types)

    def _type_logical(self, expr):
        for t in [self._expr_type(arg) for arg in expr.args]:
            if t not in (BOOL, None):
                raise CUnsupportedError(
                    "non-boolean operand to %r (Python returns an "
                    "operand, C returns 0/1)" % expr.op.name)
        return BOOL

    def _type_conditional(self, expr):
        _, then, otherwise = [self._expr_type(arg) for arg in expr.args]
        return _join(then, otherwise)

    def _type_checked(self, expr):
        types = [self._expr_type(arg) for arg in expr.args]
        if BOOL in types:
            raise CUnsupportedError(
                "%s of a truth value (numpy's bool has no __round__)"
                % expr.op.name)
        return _RESULT_TYPES[expr.op.c_type](*types)

    def _type_search(self, expr):
        # First argument is the index buffer itself, not a scalar
        # value; type only the bounds and the key.
        for arg in expr.args[1:]:
            self._expr_type(arg)
        elem = self._param_elem(expr.args[0],
                                "%s index buffer" % expr.op.name)
        if elem is not I64:
            raise CUnsupportedError(
                "%s over a non-int64 buffer" % expr.op.name)
        return I64

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
        for name in list(self.params) + self.decl_order:
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

    def _fresh_temp(self):
        self._temp += 1
        return "fl_stop_%d" % self._temp

    # -- expression rendering ------------------------------------------
    def _render(self, expr):
        """``(source, precedence)`` of one expression, C syntax."""
        if isinstance(expr, Literal):
            return self._render_literal(expr.value), _ATOM
        if isinstance(expr, Var):
            return self._cname(expr.name), _ATOM
        if isinstance(expr, Load):
            index, _ = self._render(expr.index)
            return "%s[%s]" % (self._cname(expr.buffer.name),
                               index), _ATOM
        if isinstance(expr, Call):
            return self._render_call(expr)
        raise CUnsupportedError("cannot render %r" % (expr,))

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
        form = self._c_form(expr.op)
        return getattr(self, "_render_" + form[0])(expr, *form[1:])

    def _render_infix(self, expr, symbol, precedence):
        parts = []
        for position, arg in enumerate(expr.args):
            source, prec = self._render(arg)
            if prec < precedence or (prec == precedence
                                     and position > 0):
                source = "(%s)" % source
            parts.append(source)
        return (" %s " % symbol).join(parts), precedence

    _render_logical = _render_infix

    def _render_prefix(self, expr, symbol, precedence):
        inner, prec = self._render(expr.args[0])
        if prec < precedence:
            inner = "(%s)" % inner
        return symbol + inner, precedence

    def _render_helper(self, expr, helper):
        rendered = ", ".join(self._render(arg)[0] for arg in expr.args)
        return "%s(%s)" % (helper, rendered), _ATOM

    def _render_checked(self, expr, helper):
        """A helper that reports an error through the kernel's
        ``fl_status`` (:data:`STATUS_ERRORS`)."""
        self.checked = True
        rendered = ", ".join(self._render(arg)[0] for arg in expr.args)
        return "%s(%s, &fl_status)" % (helper, rendered), _ATOM

    def _render_typed(self, expr, stem):
        """A binary prelude helper with an ``_i64`` and an ``_f64``
        variant; more arguments left-fold into nested calls."""
        if len(expr.args) > 2:
            folded = expr.args[0]
            for arg in expr.args[1:]:
                folded = Call(expr.op, [folded, arg])
            return self._render_call(folded)
        joined = _join_all(*[self._expr_type(arg) for arg in expr.args])
        suffix = "f64" if joined is F64 else "i64"
        return self._render_helper(expr, "%s_%s" % (stem, suffix))

    def _render_magnitude(self, expr):
        if self._expr_type(expr.args[0]) is F64:
            return self._render_helper(expr, "fabs")
        return self._render_helper(expr, "fl_abs_i64")

    def _render_conditional(self, expr):
        cond, then, otherwise = (self._render(arg)[0]
                                 for arg in expr.args)
        return "(%s ? %s : %s)" % (cond, then, otherwise), _ATOM

    def _render_search(self, expr, helper):
        buffer = self._cname(expr.args[0].name)
        rest = ", ".join(self._render(arg)[0] for arg in expr.args[1:])
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
            stop = self._fresh_temp()
            var = self._cname(stmt.var.name)
            lines.append("%s{" % pad)
            lines.append("%s    int64_t %s = %s;" % (
                pad, stop, self._render(stmt.stop)[0]))
            lines.append("%s    for (%s = %s; %s < %s; %s++) {" % (
                pad, var, self._render(stmt.start)[0], var, stop,
                var))
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
            return "%s = %s;" % (self._cname(target.name), rendered)
        elem = self.param_types[target.buffer.name]
        index = self._render(target.index)[0]
        return "%s[%s] = (%s)(%s);" % (
            self._cname(target.buffer.name), index, _CTYPE[elem],
            rendered)

    def _accumulation(self, stmt):
        form = self._c_form(stmt.op)
        if isinstance(stmt.target, Var) and stmt.op.accum is not None \
                and form[0] == "infix":
            return "%s %s= %s;" % (self._cname(stmt.target.name),
                                   form[1], self._render(stmt.value)[0])
        combined = Call(stmt.op, [stmt.target, stmt.value])
        return self._assignment(stmt.target, combined)

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
            elem = self.param_types[name]
            const = "" if name in self.stored else "const "
            lines.append(
                "    %s%s *%s = (%s%s *) fl_args[%d];"
                % (const, _CTYPE[elem], self._cname(name), const,
                   _CTYPE[elem], position))
        for name in self.decl_order:
            elem = self.env[name]
            lines.append("    %s %s = %s;" % (
                _CTYPE[elem], self._cname(name), _CZERO[elem]))
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
    dtype name (``"int64"`` / ``"float64"``).  Raises
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
    emitter = _Emitter(func, param_dtypes)
    emitter.analyze()
    return emitter.render()
