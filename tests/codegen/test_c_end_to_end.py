"""End-to-end tests for the C kernel backend.

The contract under test (docs/backends.md): a kernel compiled with
``backend="c"`` is *bit-identical* to the same kernel on the python
backend — over every level format and every access protocol the
format accepts — and when no C toolchain is available the compile
degrades to the python backend loudly (one ledger entry per fallback)
but gracefully (results stay correct).

Data is integer-valued throughout, so every comparison is exact
``==``; there is no tolerance for a divergence to hide behind.
"""

import math
import os
import struct
import subprocess
import sys

import numpy as np
import pytest

import repro
import repro.lang as fl
from repro import codegen
from repro.codegen import toolchain
from repro.formats import FORMATS
from repro.fuzz.gen import FORMATS_INNER
from repro.ir import Load, Var, asm, build, ops, optimize

needs_cc = pytest.mark.skipif(
    not codegen.have_toolchain(), reason="no C compiler on PATH")

#: Annotation builders keyed by protocol name (None = bare access).
_PROTO = {
    None: lambda i: i,
    "walk": fl.walk,
    "gallop": fl.gallop,
}

MATRIX = [(fmt, proto)
          for fmt in FORMATS_INNER
          for proto in (None,) + FORMATS[fmt].PROTOCOLS]

#: The fallback reason of a kernel with a dense output, whose reset is
#: the one slice operation the C emitter meets.
_SLICE = "Slice node (a dense output's reset) has no C lowering yet"


def _vector_data(rng):
    """An integer-valued vector with runs, gaps, and a dense band."""
    a = np.zeros(64)
    a[5:15] = rng.integers(1, 9, 10)       # a dense band
    a[20:24] = 3.0                         # an actual run (rle/packbits)
    idx = rng.choice(np.arange(30, 60), 6, replace=False)
    a[idx] = rng.integers(1, 9, 6)         # scattered singletons
    return a


def _dot(fmt, proto, backend, a, b):
    """Compile the fmt/proto dot product on ``backend`` at the default
    level; run it.  The C emitter prints the hoisted scalar tree, so a
    dense region the python source vectorizes is a C loop."""
    A = fl.from_numpy(a, (fmt,), name="A")
    B = fl.from_numpy(b, ("sparse",), name="B")
    C = fl.Scalar(name="C")
    i = fl.indices("i")
    prog = fl.forall(i, fl.increment(
        C[()], fl.access(A, _PROTO[proto](i)) * fl.access(B, fl.walk(i))))
    kernel = fl.compile_kernel(prog, backend=backend)
    kernel.run()
    return float(C.value), kernel


@needs_cc
class TestDifferentialMatrix:
    """Every format x protocol: python vs C, exact equality."""

    @pytest.mark.parametrize(
        "fmt,proto", MATRIX,
        ids=["%s-%s" % (f, p or "plain") for f, p in MATRIX])
    def test_dot_bit_identical(self, fmt, proto):
        rng = np.random.default_rng(sum(map(ord, fmt + (proto or ""))))
        a = _vector_data(rng)
        b = np.zeros(64)
        b[rng.choice(64, 9, replace=False)] = rng.integers(1, 9, 9)
        py_val, py_kernel = _dot(fmt, proto, "python", a, b)
        c_val, c_kernel = _dot(fmt, proto, "c", a, b)
        assert py_kernel.effective_backend == "python"
        assert c_kernel.effective_backend == "c", (
            "C emitter fell back on %s/%s: %r"
            % (fmt, proto, codegen.fallback_events()[-3:]))
        assert c_val == py_val          # bit-identity, no tolerance
        assert py_val == float(np.sum(np.rint(a * b)))

    def test_reduce_2d_bit_identical(self):
        rng = np.random.default_rng(11)
        m = np.zeros((12, 16))
        m[rng.random((12, 16)) < 0.3] = 1.0
        m *= rng.integers(1, 7, (12, 16))
        v = np.zeros(16)
        v[rng.choice(16, 5, replace=False)] = rng.integers(1, 7, 5)
        i, j = fl.indices("i", "j")

        def run(backend):
            A = fl.from_numpy(m, ("dense", "sparse"), name="A")
            x = fl.from_numpy(v, ("sparse",), name="x")
            C = fl.Scalar(name="C")
            prog = fl.forall(i, fl.forall(j, fl.increment(
                C[()], fl.access(A, i, fl.gallop(j)) *
                fl.access(x, fl.gallop(j)))))
            kernel = fl.compile_kernel(prog, backend=backend)
            kernel.run()
            return float(C.value), kernel

        py_val, _ = run("python")
        c_val, c_kernel = run("c")
        assert c_kernel.effective_backend == "c"
        assert c_val == py_val == float(np.sum(m @ v))

    def test_fig1_list_x_band_runs_native(self):
        # The headline kernel at the default opt level: its scalar
        # merge loop is nothing the vectorizer can touch, so it must
        # reach the C emitter whole (no silent fallback) and agree
        # with the python backend to the last bit.
        from repro.bench.figures import fig1_inputs, fig1_looplet_program

        values = {}
        for backend in ("python", "c"):
            prog, C = fig1_looplet_program(*fig1_inputs())
            kernel = fl.compile_kernel(prog, backend=backend)
            kernel.run()
            assert kernel.effective_backend == backend, \
                codegen.fallback_events()[-3:]
            values[backend] = float(C.value)
        assert values["c"] == values["python"]

    def test_spmv_dense_output_falls_back_bit_identical(self):
        # Tensor-output kernels reset their value buffer with a slice
        # assignment, which the C emitter does not lower yet, so the
        # whole kernel takes the designed fallback — and must still be
        # bit-identical.
        codegen.clear_fallback_events()
        rng = np.random.default_rng(12)
        m = np.zeros((8, 10))
        m[rng.random((8, 10)) < 0.4] = 2.0
        v = rng.integers(0, 5, 10).astype(float)
        i, j = fl.indices("i", "j")

        def run(backend):
            A = fl.from_numpy(m, ("dense", "sparse"), name="A")
            x = fl.from_numpy(v, ("dense",), name="x")
            y = fl.from_numpy(np.zeros(8), ("dense",), name="y")
            prog = fl.forall(i, fl.forall(j, fl.increment(
                y[i], fl.access(A, i, fl.gallop(j)) *
                fl.access(x, j))))
            kernel = fl.compile_kernel(prog, backend=backend,
                                       cache=False)
            kernel.run()
            return y.to_numpy().copy(), kernel

        py_out, _ = run("python")
        c_out, c_kernel = run("c")
        assert c_kernel.backend == "c"
        assert c_kernel.effective_backend == "python"
        assert [r for _, r in codegen.fallback_events()] == [_SLICE]
        np.testing.assert_array_equal(c_out, py_out)
        np.testing.assert_array_equal(py_out, m @ v)

    @pytest.mark.parametrize("cls,fmt", [(fl.RunOutput, "rle"),
                                         (fl.SparseOutput, "sparse")],
                             ids=["RunOutput", "SparseOutput"])
    def test_append_output_copy_is_native(self, cls, fmt):
        # An append output is three arrays and its appends are plain
        # stores, so a float64 copy kernel needs nothing from the C
        # emitter that a scalar kernel does not.
        mat = np.zeros((4, 9))
        mat[0, 2:5] = 3.0
        mat[1, :] = 7.0     # joins the run of 7s opening row 2
        mat[2, :2] = 7.0
        mat[3, 8] = 1.5
        i, j = fl.indices("i", "j")

        def run(backend):
            M = fl.from_numpy(mat, ("dense", fmt), name="M")
            out = cls((4, 9), name="out")
            kernel = fl.compile_kernel(
                fl.forall(i, fl.forall(j, fl.store(out[i, j], M[i, j]))),
                backend=backend, instrument=True)
            ops = kernel.run()
            tensor = out.to_tensor()
            streams = [tensor.levels[-1].buffers(), tensor.element.val]
            return kernel, ops, out.to_numpy(), out.state.tolist(), streams

        py_kernel, py_ops, py_out, py_state, py_streams = run("python")
        c_kernel, c_ops, c_out, c_state, c_streams = run("c")
        assert py_kernel.effective_backend == "python"
        assert c_kernel.effective_backend == "c", \
            codegen.fallback_events()[-3:]
        assert c_ops == py_ops
        assert c_state == py_state
        assert c_out.tobytes() == py_out.tobytes() == mat.tobytes()
        for name, array in py_streams[0].items():
            np.testing.assert_array_equal(c_streams[0][name], array)
        np.testing.assert_array_equal(c_streams[1], py_streams[1])


@needs_cc
class TestBackendPlumbing:
    def test_backends_occupy_distinct_cache_slots(self):
        a = np.zeros(32)
        a[::3] = 2.0

        def compile_one(backend):
            A = fl.from_numpy(a, ("sparse",), name="A")
            C = fl.Scalar(name="C")
            i = fl.indices("i")
            return fl.compile_kernel(
                fl.forall(i, fl.increment(C[()], fl.access(A, i))),
                backend=backend)

        k_py = compile_one("python")
        k_c = compile_one("c")
        assert k_py.backend == "python" and k_c.backend == "c"
        assert k_c.artifact is not k_py.artifact
        # Same backend again is a cache hit: the artifact is shared.
        assert compile_one("c").artifact is k_c.artifact

    def test_spec_round_trip_recompiles_c(self):
        from repro.compiler.kernel import CompiledKernel

        a = np.zeros(32)
        a[4:9] = 3.0
        A = fl.from_numpy(a, ("sparse",), name="A")
        C = fl.Scalar(name="C")
        i = fl.indices("i")
        kernel = fl.compile_kernel(
            fl.forall(i, fl.increment(C[()], fl.access(A, i))),
            backend="c", cache=False)
        assert kernel.effective_backend == "c"
        spec = kernel.to_spec()
        assert spec["backend"] == "c"
        assert "int64_t" in spec["c_source"]      # C source travels
        assert "so_path" not in spec              # the .so never does
        rebuilt = CompiledKernel.from_spec(spec)
        assert rebuilt.so_path is not None        # recompiled on load
        assert rebuilt.backend == "c"

    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv("FL_KERNEL_BACKEND", "c")
        a = np.zeros(16)
        a[3:7] = 4.0
        A = fl.from_numpy(a, ("band",), name="A")
        C = fl.Scalar(name="C")
        i = fl.indices("i")
        kernel = fl.compile_kernel(
            fl.forall(i, fl.increment(C[()], fl.access(A, i))),
            cache=False)
        assert kernel.backend == "c"
        assert kernel.effective_backend == "c"
        kernel.run()
        assert float(C.value) == 16.0

    def test_store_keeps_so_sidecar(self, tmp_path):
        from repro.util import config

        fl.configure(store_path=str(tmp_path))
        try:
            a = np.zeros(24)
            a[2:12] = 5.0
            A = fl.from_numpy(a, ("vbl",), name="A")
            C = fl.Scalar(name="C")
            i = fl.indices("i")
            prog = fl.forall(i, fl.increment(C[()], fl.access(A, i)))
            kernel = fl.compile_kernel(prog, backend="c")
            assert kernel.effective_backend == "c"
            sidecars = list(tmp_path.rglob("*.so"))
            assert len(sidecars) == 1
            # A warm start loads the sidecar: no recompile, same dir.
            fl.kernel_cache().clear()
            warm = fl.compile_kernel(prog, backend="c")
            assert warm.effective_backend == "c"
            assert warm.so_path == str(sidecars[0])
        finally:
            config.clear("store_path")


class TestNoCompilerFallback:
    """backend="c" with no toolchain: loud, graceful, correct."""

    @pytest.fixture
    def broken_toolchain(self, monkeypatch):
        monkeypatch.setenv("FL_CC", "/nonexistent/definitely-not-a-cc")
        toolchain.reset()
        # Nor is an earlier test's shared object served by source digest
        # (two kernels differing in a folded-away literal share a source).
        monkeypatch.setattr(toolchain, "_entries", {})
        codegen.clear_fallback_events()
        yield
        monkeypatch.undo()
        toolchain.reset()

    def test_falls_back_loudly_and_correctly(self, broken_toolchain):
        assert not codegen.have_toolchain()
        a = np.zeros(40)
        a[7:19] = 2.0
        A = fl.from_numpy(a, ("sparse",), name="A")
        C = fl.Scalar(name="C")
        i = fl.indices("i")
        kernel = fl.compile_kernel(
            fl.forall(i, fl.increment(C[()], fl.access(A, i))),
            backend="c", cache=False)
        assert kernel.backend == "c"                 # the request
        assert kernel.effective_backend == "python"  # the reality
        assert kernel.so_path is None
        kernel.run()
        assert float(C.value) == 24.0                # still correct
        events = codegen.fallback_events()
        assert events, "fallback must be recorded in the ledger"
        name, reason = events[-1]
        assert "no C compiler" in reason

    @needs_cc
    def test_toolchain_failure_at_from_spec_yields_python_entry(
            self, monkeypatch):
        """The python function is built only when no C entry is live —
        including the case where C *would* have been live but the
        receiving process cannot compile or load it."""
        from repro.cin.analyze import program_tensors
        from repro.compiler.kernel import CompiledKernel

        a = np.zeros(40)
        a[7:19] = 2.0
        A = fl.from_numpy(a, ("sparse",), name="A")
        C = fl.Scalar(name="C")
        i = fl.indices("i")
        program = fl.forall(i, fl.increment(C[()], fl.access(A, i)))
        kernel = fl.compile_kernel(program, backend="c", cache=False)
        assert kernel.effective_backend == "c"
        spec = kernel.to_spec()

        def no_toolchain(c_source, name="kernel"):
            raise codegen.ToolchainError("no C compiler found")

        monkeypatch.setattr(toolchain, "compile_shared", no_toolchain)
        codegen.clear_fallback_events()
        rebuilt = CompiledKernel.from_spec(spec)
        assert rebuilt.backend == "c"
        assert rebuilt.effective_backend == "python"
        assert rebuilt.so_path is None
        assert rebuilt.source == kernel.source
        assert rebuilt.c_source == kernel.c_source  # kept for others
        assert rebuilt.code.co_filename == "<repro-kernel>"
        rebuilt.fn(*rebuilt.bind(program_tensors(program)))
        assert float(C.value) == 24.0
        assert "no C compiler" in codegen.fallback_events()[-1][1]

    def test_fallback_warns_once_per_reason(self, broken_toolchain, caplog):
        import logging

        a = np.zeros(16)
        a[1:5] = 1.0
        i = fl.indices("i")
        with caplog.at_level(logging.WARNING, logger="repro.codegen"):
            for _ in range(3):
                A = fl.from_numpy(a, ("sparse",), name="A")
                C = fl.Scalar(name="C")
                fl.compile_kernel(
                    fl.forall(i, fl.increment(C[()], fl.access(A, i))),
                    backend="c", cache=False)
        warnings = [r for r in caplog.records
                    if "C backend unavailable" in r.getMessage()]
        assert len(warnings) == 1                    # warn-once


class TestLoopVariableEscape:
    """Python's ``for`` leaves ``stop - 1`` in its variable, C's leaves
    ``stop``: the emitter refuses any kernel that could tell."""

    @staticmethod
    def emit(*stmts):
        func = asm.FuncDef("k", ("out",), asm.Block(stmts))
        return codegen.emit_c(func, {"out": "float64"})

    @staticmethod
    def loop(var, body):
        return asm.ForLoop(var, 0, 4, body)

    def test_uses_inside_the_loop_compile(self):
        store = asm.AssignStmt(Load("out", Var("i")), 1.0)
        guarded = asm.If([(build.lt(Var("j"), 2),
                           asm.AssignStmt(Load("out", Var("j")), 2.0))])
        source = self.emit(self.loop("i", store), self.loop("j", guarded))
        assert source.count("for (") == 2

    def test_read_after_the_loop_is_refused(self):
        store = asm.AssignStmt(Load("out", Var("i")), 1.0)
        after = asm.AssignStmt(Load("out", 0), Var("i"))
        with pytest.raises(codegen.CUnsupportedError,
                           match="'i' used outside its loop"):
            self.emit(self.loop("i", store), after)
        # A second loop over the same name counts as a use, too.
        with pytest.raises(codegen.CUnsupportedError,
                           match="'i' used outside its loop"):
            self.emit(self.loop("i", store), self.loop("i", store))

    def test_reassignment_inside_the_loop_is_refused(self):
        with pytest.raises(codegen.CUnsupportedError,
                           match="'i' reassigned inside its loop"):
            self.emit(self.loop("i", asm.AssignStmt("i", 0)))


class TestRefusalReasons:
    """Each kernel C cannot compute as Python does is refused with its
    reason, built by hand since no lowered kernel has it."""

    @staticmethod
    def refusal(*stmts, idx="int64"):
        func = asm.FuncDef("k", ("out", "idx"), asm.Block(stmts))
        with pytest.raises(codegen.CUnsupportedError) as caught:
            codegen.emit_c(func, {"out": "float64", "idx": idx})
        return str(caught.value)

    def test_float_loop_bound(self):
        loop = asm.ForLoop("i", 0, 2.5, asm.AssignStmt(Load("out", Var("i")),
                                                       1.0))
        assert self.refusal(loop) \
            == "float-typed loop bound in for-loop over 'i'"

    def test_float_buffer_index(self):
        assert self.refusal(asm.AssignStmt(
            Load("out", 0), Load("out", 1.5))) == "float-typed buffer index"

    def test_truth_valued_buffer_index(self):
        # numpy reads ``out[False]`` as a mask, C as element 0.
        index = build.call("lt", Load("idx", 0), 0)
        assert self.refusal(asm.AssignStmt(
            Load("out", 0), Load("out", index))) \
            == "truth-valued buffer index"

    def test_search_over_a_float_buffer(self):
        search = build.call("search_ge", Var("idx"), 0, 4, 2)
        assert self.refusal(asm.AssignStmt(Load("out", 0), search),
                            idx="float64") \
            == "search_ge over a non-int64 buffer"

    def test_buffer_read_as_a_scalar(self):
        assert self.refusal(asm.AssignStmt(Load("out", 0), Var("idx"))) \
            == "buffer parameter 'idx' used as a scalar value"

    def test_reassigned_parameter(self):
        assert self.refusal(asm.AssignStmt("out", 1.0)) \
            == "kernel reassigns buffer parameter 'out'"

    def test_load_from_a_name_that_is_no_parameter(self):
        assert self.refusal(asm.AssignStmt(Load("out", 0), Load("q", 0))) \
            == "load from 'q' is not a kernel buffer parameter"


@needs_cc
class TestTypesReachTheirFixpoint:
    """A float travels one local per trip down a chain of copies: every
    local it reaches is a ``double``, however long the chain."""

    def test_long_copy_chain(self):
        from repro.ir.emit import emit
        from repro.ir.runtime import kernel_globals

        names = ["v%d" % k for k in range(11)]
        copies = [asm.AssignStmt(name, Var(source))
                  for name, source in zip(names, names[1:])]
        func = asm.FuncDef("chain", ("out",), asm.Block(
            [asm.AssignStmt(name, 0) for name in names]
            + [asm.ForLoop("t", 0, 12, asm.Block(
                copies + [asm.AssignStmt(names[-1], 1.5)])),
               asm.AssignStmt(Load("out", 0), Var("v0"))]))
        namespace = kernel_globals()
        exec(emit(func), namespace)
        py_out, c_out = np.zeros(1), np.zeros(1)
        namespace["chain"](py_out)
        entry, _ = codegen.kernel_entry(
            codegen.emit_c(func, {"out": "float64"}), "chain", ["float64"])
        entry(c_out)
        assert py_out[0] == c_out[0] == 1.5


_NON_FINITE = {"inf": float("inf"), "-inf": float("-inf"),
               "nan": float("nan")}


def _scalar_accumulator(v):
    """min-plus style: both the accumulator's start and the operand's
    fill are the non-finite value."""
    a = np.full(8, v)
    a[[1, 4]] = [1.0, 3.0]
    A = fl.from_numpy(a, ("sparse",), fill=v, name="A")
    C = fl.Scalar(v, name="C")
    i = fl.indices("i")
    return fl.forall(i, fl.reduce_into(C[()], "min", A[i])), C


def _dense_output_reset(v):
    x = fl.from_numpy(np.arange(5.0), ("dense",), name="x")
    Y = fl.zeros((5,), fill=v, name="Y")
    i = fl.indices("i")
    return fl.forall(i, fl.reduce_into(Y[i], "min", x[i])), Y


def _vectorised_operand(v):
    x = fl.from_numpy(np.arange(5.0), ("dense",), name="x")
    Y = fl.zeros((5,), name="Y")
    i = fl.indices("i")
    return fl.forall(i, fl.store(
        Y[i], fl.minimum(x[i], fl.literal(v)))), Y


class TestNonFiniteLiterals:
    """``inf``/``-inf``/``nan`` literals reach emitted code (a min-plus
    accumulator, a dense output's fill, a broadcast operand); both
    backends must spell them as something their namespace defines and
    agree with the reference interpreter bit for bit."""

    @pytest.mark.parametrize("backend", ["python", pytest.param(
        "c", marks=needs_cc)])
    @pytest.mark.parametrize("make", [
        _scalar_accumulator, _dense_output_reset, _vectorised_operand],
        ids=["scalar-accumulator", "dense-reset", "vector-operand"])
    @pytest.mark.parametrize("name", sorted(_NON_FINITE))
    def test_bit_identical_to_reference(self, name, make, backend):
        from repro.baselines.reference import interpret

        for opt_level in (0, 2):
            prog, out = make(_NON_FINITE[name])
            want = np.asarray(interpret(prog).result_for(out))
            kernel = fl.compile_kernel(prog, backend=backend,
                                       opt_level=opt_level, cache=False)
            if backend == "c" and make is _scalar_accumulator:
                # A scalar output compiles natively: a python fallback
                # here means the prelude left a spelling undeclared.
                assert kernel.effective_backend == "c", opt_level
            kernel.run()
            got = np.asarray(out.to_numpy() if out.ndim else out.value,
                             dtype=want.dtype)
            assert got.tobytes() == want.tobytes(), (opt_level, got, want)


@needs_cc
class TestRoundU8Errors:
    """``C[] += round_u8(x[i])``: Python's ``round`` raises on NaN and
    the infinities, and the native kernel raises the same error through
    its status return; finite values agree as numbers."""

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf"), 300.0, 2.5])
    def test_python_and_c_agree(self, value):
        outcomes = {}
        for backend in ("python", "c"):
            x = fl.from_numpy(np.array([1.4, value, 0.0, 3.5]), ("sparse",),
                              name="x")
            C = fl.Scalar(name="C")
            i = fl.indices("i")
            kernel = fl.compile_kernel(
                fl.forall(i, fl.increment(C[()], fl.call("round_u8", x[i]))),
                backend=backend, cache=False)
            assert kernel.effective_backend == backend
            try:
                kernel.run()
                outcomes[backend] = C.value
            except (ValueError, OverflowError) as exc:
                outcomes[backend] = (type(exc), str(exc))
        assert outcomes["python"] == outcomes["c"]

    def test_truth_value_arithmetic_falls_back(self):
        # numpy adds two bools to ``True``; C would add them to 2.
        x = fl.from_numpy(np.array([1.0, -2.0, 3.0]), ("dense",), name="x")
        y = fl.Scalar(name="y")
        i = fl.indices("i")
        kernel = fl.compile_kernel(
            fl.forall(i, fl.increment(y[()], fl.call(
                "gt", x[i], 0.0) + fl.call("gt", x[i], 2.0))),
            backend="c", cache=False)
        assert kernel.effective_backend == "python"
        kernel.run()
        assert y.value == 2.0

    def test_a_truth_value_falls_back(self):
        # numpy's bool has no ``__round__``: python raises, so C may not
        # return 0 or 1.
        x = fl.from_numpy(np.array([1.0, -2.0, 3.0]), ("dense",), name="x")
        y = fl.Scalar(name="y")
        i = fl.indices("i")
        kernel = fl.compile_kernel(
            fl.forall(i, fl.increment(y[()], fl.call(
                "round_u8", fl.call("gt", x[i], 0.0)))),
            backend="c", cache=False)
        assert kernel.effective_backend == "python"
        with pytest.raises(TypeError):
            kernel.run()


_NATIVE_CALL = """
import numpy as np
from repro.codegen import c_emit, toolchain
from repro.ir import Call, Load, Literal, asm, ops

name, dtype, operands = %r, %r, %r
params = ["out"] + ["a%%d" %% k for k in range(len(operands))]
func = asm.FuncDef("native", params, asm.AssignStmt(
    Load("out", Literal(0)),
    Call(ops.get_op(name), [Load(p, Literal(0)) for p in params[1:]])))
dtypes = [dtype] * len(params)
entry, _ = toolchain.kernel_entry(
    c_emit.emit_c(func, dict(zip(params, dtypes))), "native", dtypes)
out = np.zeros(1, dtype=dtype)
try:
    entry(out, *[np.array([value], dtype=dtype) for value in operands])
    print("=", repr(out[0].item()))
except Exception as exc:
    print(type(exc).__name__, exc)
"""


def native_call(name, dtype, *operands):
    """What ``out[0] = name(a0[0], ...)`` prints in a child process
    running the native kernel: ``= value`` or the error it raises."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(
        repro.__file__)) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c",
         _NATIVE_CALL % (name, dtype, [repr(value) for value in operands])],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, (proc.returncode, proc.stderr)
    return proc.stdout.strip()


@needs_cc
class TestIntegerDivisionByZero:
    """``out[0] = a[0] // b[0]`` with ``b = [0]``: the native kernel
    raises what Python raises on ints (the python kernel's element
    views) instead of dying of ``SIGFPE``.  The C call runs in a child
    process, so a regression fails this test rather than the run."""

    @pytest.mark.parametrize("name", ["floordiv", "mod"])
    def test_native_kernel_raises_like_python(self, name):
        with pytest.raises(ZeroDivisionError) as python:
            ops.get_op(name).fn(7, 0)
        assert native_call(name, "int64", 7, 0) \
            == "ZeroDivisionError %s" % python.value


@needs_cc
class TestTrappingOperands:
    """The other operands C leaves undefined or answers unlike Python,
    each run in a child process as above."""

    @pytest.mark.parametrize("name", ["floordiv", "mod"])
    def test_int64_min_by_minus_one_wraps_like_numpy(self, name):
        # ``INT64_MIN // -1`` traps on x86.  On int64 value operands (a
        # python kernel never views them) numpy wraps the quotient to
        # INT64_MIN; the remainder is 0, as on Python ints.
        low = np.iinfo(np.int64).min
        with np.errstate(all="ignore"):
            want = ops.get_op(name).fn(np.int64(low), np.int64(-1))
        assert native_call(name, "int64", int(low), -1) == "= %d" % want
        assert native_call(name, "int64", 7, -1) \
            == "= %d" % ops.get_op(name).fn(7, -1)

    @pytest.mark.parametrize("value", [-1.0, -math.inf, -1e-300])
    def test_sqrt_of_a_negative_raises_like_math(self, value):
        with pytest.raises(ValueError) as python:
            math.sqrt(value)
        assert native_call("sqrt", "float64", value) \
            == "ValueError %s" % python.value

    @pytest.mark.parametrize("value", [math.nan, -0.0, 0.0, 2.25,
                                       math.inf])
    def test_sqrt_of_anything_else_is_sqrt(self, value):
        assert native_call("sqrt", "float64", value) \
            == "= %r" % math.sqrt(value)



#: What each figure's headline kernel runs as under ``backend="c"``,
#: and the ledger's reasons when it falls back.  A C lowering that
#: lands moves its figures to ``("c", [])`` here.
FIGURE_C_STATUS = {
    "fig1_dot": ("c", []),
    "fig7_spmspv": ("python", [_SLICE]),
    "fig8_triangles": ("c", []),
    "fig9_convolution": ("python", [_SLICE]),
    "fig10_alpha": ("python", ["buffer 'A_vals' has dtype uint8 (C "
                               "backend supports bool/float64/int64)"]),
    "fig11_allpairs": ("python", [_SLICE]),
}


@needs_cc
@pytest.mark.parametrize("figure", sorted(FIGURE_C_STATUS))
def test_each_figure_runs_c_or_says_why_not(figure):
    """A C-requested figure kernel either runs native C with an empty
    ledger, or falls back to python with exactly its pinned reasons."""
    from repro.bench.figures import warm_start_programs

    programs = {row[0]: row[1:] for row in warm_start_programs()}
    assert set(programs) == set(FIGURE_C_STATUS)
    label, make_program, opts = programs[figure]
    codegen.clear_fallback_events()
    kernel = fl.compile_kernel(make_program(), backend="c", cache=False,
                               **opts)
    backend, reasons = FIGURE_C_STATUS[figure]
    assert kernel.effective_backend == backend, label
    assert [r for _, r in codegen.fallback_events()] == reasons, label


def _fig8_graphs():
    """Each ``fig8_suite()`` graph, then the seven matrices of the
    batch workload: the HB-like suite, its values redrawn as integers."""
    from repro.bench.figures import fig7_suite, fig8_suite

    rng = np.random.default_rng(2)
    graphs = dict(fig8_suite())
    for name, mat in fig7_suite().items():
        mat = np.asarray(mat, dtype=float).copy()
        mat[mat != 0] = rng.integers(1, 9, int((mat != 0).sum()))
        graphs["batch:" + name] = mat
    return graphs


@needs_cc
@pytest.mark.parametrize("protocol", ["gallop", "walk"])
def test_each_fig8_spelling_runs_c_like_python(protocol):
    """Figure 8 as written (``k`` gallops) and walking everywhere, on
    every graph: the C kernel runs natively and matches the python
    kernel in value and op count (SNIPPETS §1–2's discipline)."""
    from repro.bench.kernels import triangle_count_program

    for name, adj in _fig8_graphs().items():
        seen = {}
        for backend in ("python", "c"):
            prog, C = triangle_count_program(adj, protocol)
            kernel = fl.compile_kernel(prog, instrument=True,
                                       backend=backend, cache=False)
            assert kernel.effective_backend == backend, name
            seen[backend] = (kernel.run(), float(C.value))
        assert seen["c"] == seen["python"], name


@needs_cc
class TestScalarTreeGoesNative:
    """C prints the tree ``vectorize`` has not touched: a dense loop the
    python source turns into numpy is a native C loop."""

    @staticmethod
    def _dense_dot(backend, **opts):
        rng = np.random.default_rng(9)
        a = rng.integers(-9, 10, 64).astype(float)
        b = rng.integers(-9, 10, 64).astype(float)
        A = fl.from_numpy(a, ("dense",), name="A")
        B = fl.from_numpy(b, ("dense",), name="B")
        C = fl.Scalar(name="C")
        i = fl.indices("i")
        prog = fl.forall(i, fl.increment(
            C[()], fl.access(A, i) * fl.access(B, i)))
        kernel = fl.compile_kernel(prog, backend=backend, cache=False,
                                   **opts)
        kernel.run()
        return float(C.value), kernel, float(a @ b)

    def test_a_vectorized_kernel_runs_native(self):
        codegen.clear_fallback_events()
        c_val, c_kernel, want = self._dense_dot("c")
        scalar, _, _ = self._dense_dot("python", opt_level=0)
        vector, py_kernel, _ = self._dense_dot("python")
        assert "_np.dot" in py_kernel.source
        assert c_kernel.effective_backend == "c"
        assert codegen.fallback_events() == []
        # Bit-identical to the scalar python loop; the vectorized one
        # sums in numpy's order, equal on integer-valued data.
        assert struct.pack("<d", c_val) == struct.pack("<d", scalar)
        assert c_val == vector == want

    def test_c_source_does_not_depend_on_vectorize(self, monkeypatch):
        _, kernel, _ = self._dense_dot("c")
        monkeypatch.setattr(optimize, "vectorize",
                            lambda func, buffers=None: func)
        _, unvectorized, _ = self._dense_dot("c")
        assert "_np.dot" not in unvectorized.source
        assert unvectorized.artifact.c_source == kernel.artifact.c_source

    #: Dense reductions into a scalar that ``vectorize`` turns into numpy
    #: calls in the python source: a whole-vector sum, an outer product
    #: (``A[i]`` hoisted out of the ``j`` loop) and a matrix-vector sum.
    REDUCTIONS = ("sum", "outer", "matvec")

    @staticmethod
    def _dense_reduction(shape, backend, **opts):
        rng = np.random.default_rng(11)
        a = rng.integers(-9, 10, 24).astype(float)
        m = rng.integers(-9, 10, (6, 24)).astype(float)
        A = fl.from_numpy(a, ("dense",), name="A")
        M = fl.from_numpy(m, ("dense", "dense"), name="M")
        C = fl.Scalar(name="C")
        i, j = fl.indices("i", "j")
        if shape == "sum":
            prog, want = fl.forall(i, fl.increment(C[()], A[i])), a.sum()
        elif shape == "outer":
            prog = fl.forall(i, fl.forall(j, fl.increment(
                C[()], A[i] * A[j])))
            want = a.sum() ** 2
        else:
            prog = fl.forall(i, fl.forall(j, fl.increment(
                C[()], M[i, j] * A[j])))
            want = (m @ a).sum()
        kernel = fl.compile_kernel(prog, backend=backend, cache=False,
                                   **opts)
        kernel.run()
        return float(C.value), kernel, float(want)

    @pytest.mark.parametrize("shape", REDUCTIONS)
    def test_a_vectorized_reduction_runs_native(self, shape):
        codegen.clear_fallback_events()
        c_val, c_kernel, want = self._dense_reduction(shape, "c")
        scalar, _, _ = self._dense_reduction(shape, "python", opt_level=0)
        vector, py_kernel, _ = self._dense_reduction(shape, "python")
        assert "_np." in py_kernel.source
        assert c_kernel.effective_backend == "c"
        assert "_np." not in c_kernel.artifact.c_source
        assert codegen.fallback_events() == []
        assert struct.pack("<d", c_val) == struct.pack("<d", scalar)
        assert c_val == vector == want

    @pytest.mark.parametrize("shape", REDUCTIONS)
    def test_c_source_of_a_reduction_does_not_depend_on_vectorize(
            self, shape, monkeypatch):
        _, kernel, _ = self._dense_reduction(shape, "c")
        monkeypatch.setattr(optimize, "vectorize",
                            lambda func, buffers=None: func)
        _, unvectorized, _ = self._dense_reduction(shape, "c")
        assert "_np." not in unvectorized.source
        assert unvectorized.artifact.c_source == kernel.artifact.c_source
