"""Unit tests for the C toolchain layer and the prelude's semantics.

The prelude helpers carry the bit-identity contract for the operators
whose C and Python semantics differ — floor division and modulo on
negative operands, banker's rounding — so they get direct probes here:
a tiny hand-written translation unit reusing the real ``_PRELUDE`` is
compiled and compared against the Python operators over a sign grid.
The prelude takes its types and math from the compiler's predefined
macros and builtins, or else from the system headers; the probe runs
through both branches.
"""

import bisect
import ctypes
import inspect
import os
import subprocess
import threading
import uuid

import numpy as np
import pytest

import repro.lang as fl
from repro import codegen
from repro.codegen import toolchain
from repro.codegen.c_emit import _PRELUDE, STATUS_ERRORS
from repro.exec.shm import ShmSegment
from repro.ir import asm, ops
from repro.ir.nodes import Call, Literal, Load

needs_cc = pytest.mark.skipif(
    not codegen.have_toolchain(), reason="no C compiler on PATH")

_PROBE = _PRELUDE + r"""
#define FL_EXPORT __attribute__((visibility("default")))

FL_EXPORT int64_t probe(void **fl_args) {
    const int64_t *iin = (const int64_t *) fl_args[0];
    int64_t *iout = (int64_t *) fl_args[1];
    const double *fin = (const double *) fl_args[2];
    double *fout = (double *) fl_args[3];
    iout[3] = 0;
    iout[0] = fl_floordiv_i64(iin[0], iin[1], &iout[3]);
    iout[4] = 0;
    iout[1] = fl_mod_i64(iin[0], iin[1], &iout[4]);
    iout[5] = 0;
    iout[2] = fl_round_u8(fin[0], &iout[5]);
    fout[0] = fl_div((double) iin[0], (double) iin[1]);
    fout[1] = fl_floordiv_f64(fin[0], fin[1]);
    fout[2] = fl_mod_f64(fin[0], fin[1]);
    iout[6] = 0;
    fout[3] = fl_sqrt(fin[0], &iout[6]);
    iout[7] = INT64_MIN;
    iout[8] = true + INT64_C(1);
    return 0;
}
"""


def _run_probe(a, b, f, g=1.0, so_path=None):
    if so_path is None:
        so_path = toolchain.compile_shared(_PROBE, name="probe")
    fn = toolchain.load_symbol(so_path, "probe")
    iin = np.array([a, b], dtype=np.int64)
    iout = np.zeros(9, dtype=np.int64)
    fin = np.array([f, g], dtype=np.float64)
    fout = np.zeros(4, dtype=np.float64)
    arrays = (iin, iout, fin, fout)
    ptrs = (ctypes.c_void_p * 4)(*(arr.ctypes.data for arr in arrays))
    fn(ptrs)
    return iout, fout


def _cc(tmp_path, *flags, source=_PROBE):
    """Run the compiler on ``source`` (the probe) with the kernel flags
    and ``flags``; the path it wrote."""
    c_path = os.path.join(tmp_path, "probe.c")
    out_path = os.path.join(tmp_path, "probe.out")
    with open(c_path, "w") as handle:
        handle.write(source)
    subprocess.run([toolchain.compiler_path(), *toolchain.CFLAGS, *flags,
                    "-o", out_path, c_path, *toolchain.LIBS],
                   check=True, capture_output=True)
    return out_path


def _every_spelling():
    """An emitted unit writing every identifier the emitter can: each
    operator with a scalar C form applied to int64 and to float64
    operands, and the non-finite literals; and how many values it
    stores."""
    stmts = []
    for buf in ("iin", "fin"):
        for op in ops.all_ops().values():
            if op.c is None or op.c[0] in ("search", "logical"):
                continue
            params = inspect.signature(op.fn).parameters.values()
            arity = 2 if any(p.kind is p.VAR_POSITIONAL
                             for p in params) else len(params)
            stmts.append(asm.AssignStmt(
                Load("fout", len(stmts)),
                Call(op, [Load(buf, k) for k in range(arity)])))
    for value in (float("inf"), float("-inf"), float("nan")):
        stmts.append(asm.AssignStmt(Load("fout", len(stmts)),
                                    Literal(value)))
    func = asm.FuncDef("every", ("iin", "fin", "fout"), asm.Block(stmts))
    dtypes = {"iin": "int64", "fin": "float64", "fout": "float64"}
    return codegen.emit_c(func, dtypes), len(stmts)


#: Operand grid of the branch comparison: signs, zeros, NaN, infinities.
_FLOATS = [2.5, -2.5, 7.0, -0.0, 0.0, float("nan"), float("inf"),
           float("-inf"), 1e300]


def _divmod_grid(seed=0, draws=12):
    """Float operands for ``//`` and ``%``: signed zeros, infinities,
    NaN, subnormals, and ``draws`` seeded values of either sign over
    many magnitudes."""
    rng = np.random.default_rng(seed)
    drawn = (rng.choice([-1.0, 1.0], draws) * rng.random(draws)
             * 10.0 ** rng.integers(-300, 300, draws))
    tiny = float(np.finfo(np.float64).smallest_subnormal)
    return [0.0, -0.0, float("inf"), float("-inf"), float("nan"),
            tiny, -tiny, 3 * tiny, 1.5, -2.5, 3.0, -6.0,
            *drawn.tolist()]


def _bits(value):
    return int(np.float64(value).view(np.int64))


@needs_cc
class TestPreludeSemantics:
    @pytest.mark.parametrize("a", [-7, -1, 0, 1, 7, 9223372036854])
    @pytest.mark.parametrize("b", [-3, -1, 1, 3])
    def test_floordiv_mod_match_python(self, a, b):
        iout, fout = _run_probe(a, b, 0.0)
        assert iout[0] == a // b
        assert iout[1] == a % b
        assert (iout[3], iout[4]) == (0, 0)
        assert fout[0] == a / b          # true division, always double

    @pytest.mark.parametrize("a", [-7, 0, 7])
    def test_integer_division_by_zero_sets_the_status(self, a):
        # No SIGFPE: the status Python's error stands for, and a 0.
        iout, _ = _run_probe(a, 0, 0.0)
        for result, status, fn in ((iout[0], iout[3], ops.FLOORDIV.fn),
                                   (iout[1], iout[4], ops.MOD.fn)):
            with pytest.raises(ZeroDivisionError) as exc:
                fn(a, 0)
            assert STATUS_ERRORS[status] == (ZeroDivisionError,
                                             str(exc.value))
            assert result == 0

    @pytest.mark.parametrize("f, g, quotient, remainder", [
        (float("inf"), 3.0, float("nan"), float("nan")),
        (-2.5, float("inf"), -1.0, float("inf")),
        (-6.0, 3.0, -2.0, 0.0),
    ])
    def test_float_floordiv_mod_follow_float_divmod(self, f, g, quotient,
                                                    remainder):
        # floor(a / b) and a bare fmod gave inf, -0.0 and -0.0 here.
        _, fout = _run_probe(1, 1, f, g)
        assert (str(f // g), str(f % g)) == (str(quotient), str(remainder))
        assert (str(fout[1]), str(fout[2])) == (str(quotient),
                                                str(remainder))

    @pytest.mark.parametrize(
        "f", [0.5, 1.5, 2.5, -0.5, -1.5, 3.4999, 254.5, 255.0, 999.0,
              float("nan"), float("inf"), float("-inf")])
    def test_round_u8_matches_python_runtime(self, f):
        iout, _ = _run_probe(1, 1, f)
        # Banker's rounding (ties-to-even, like np.rint), clamped to
        # the packbits byte range — same contract as the runtime; NaN
        # and the infinities set the status Python's error stands for.
        try:
            want = ops.ROUND_U8.fn(f)
        except (ValueError, OverflowError) as exc:
            assert STATUS_ERRORS[iout[5]] == (type(exc), str(exc))
        else:
            assert (iout[2], iout[5]) == (want, 0)


_SEARCH_PROBE = _PRELUDE + r"""
#define FL_EXPORT __attribute__((visibility("default")))

FL_EXPORT int64_t search_probe(void **fl_args) {
    const int64_t *idx = (const int64_t *) fl_args[0];
    const int64_t *query = (const int64_t *) fl_args[1];
    int64_t *out = (int64_t *) fl_args[2];
    int64_t count = ((const int64_t *) fl_args[3])[0];
    for (int64_t q = 0; q < count; q++) {
        const int64_t *lo_hi_key = query + 3 * q;
        out[2 * q] = fl_search_ge(idx, lo_hi_key[0], lo_hi_key[1],
                                  lo_hi_key[2]);
        out[2 * q + 1] = fl_search_abs_ge(idx, lo_hi_key[0],
                                          lo_hi_key[1], lo_hi_key[2]);
    }
    return 0;
}
"""


def _search_queries(idx, seed=0):
    """``(lo, hi, key)`` triples over the sorted ``idx``: empty ranges,
    keys at or below the first coordinate and above the last, an exact
    hit at every position, and long jumps from the start."""
    rng = np.random.default_rng(seed)
    n = len(idx)
    queries = [(0, 0, 5), (7, 7, int(idx[7])), (9, 3, 0)]   # empty
    for lo in range(0, n, 5):
        for hi in {lo + 1, min(lo + 2, n), n,
                   int(rng.integers(lo, n + 1))}:
            first, last = int(idx[lo]), int(idx[max(hi - 1, lo)])
            queries += [(lo, hi, first - 1), (lo, hi, first),
                        (lo, hi, last), (lo, hi, last + 1),
                        (lo, hi, 1 << 40)]
    for pos in range(n):                        # exact hits, long jumps
        queries += [(0, n, int(idx[pos])), (0, n, int(idx[pos]) + 1),
                    (pos // 2, n, int(idx[pos]))]
    return queries


@needs_cc
@pytest.mark.parametrize("signed", [False, True])
def test_galloping_search_lands_where_bisect_left_does(signed):
    """The prelude's galloping ``fl_search_ge``/``fl_search_abs_ge``
    return what :func:`bisect.bisect_left` returns over ``idx`` (and
    over ``abs(idx)``: PackBits' signed markers) for every range."""
    rng = np.random.default_rng(3)
    idx = np.cumsum(rng.integers(1, 4, 300)).astype(np.int64)
    if signed:
        idx *= rng.choice([-1, 1], len(idx))
    magnitude = [abs(int(v)) for v in idx]
    queries = _search_queries(np.abs(idx))
    fn = toolchain.load_symbol(
        toolchain.compile_shared(_SEARCH_PROBE, name="search_probe"),
        "search_probe")
    query = np.array(queries, dtype=np.int64).ravel()
    out = np.zeros(2 * len(queries), dtype=np.int64)
    count = np.array([len(queries)], dtype=np.int64)
    arrays = (idx, query, out, count)
    fn((ctypes.c_void_p * 4)(*(arr.ctypes.data for arr in arrays)))
    plain = idx.tolist()
    for q, (lo, hi, key) in enumerate(queries):
        want = bisect.bisect_left(magnitude, key, lo, hi)
        assert out[2 * q + 1] == want, (lo, hi, key)
        assert out[2 * q + 1] == ops._search_abs_ge(idx, lo, hi, key)
        if not signed:
            assert out[2 * q] == want == bisect.bisect_left(
                plain, key, lo, hi), (lo, hi, key)


@needs_cc
class TestPreludeBranches:
    """Without the predefined ``__INT64_TYPE__`` the prelude includes
    ``<stdint.h>``, ``<stdbool.h>`` and ``<math.h>``; every helper
    computes the same there."""

    @pytest.fixture(scope="class")
    def include_branch(self, tmp_path_factory):
        return _cc(str(tmp_path_factory.mktemp("include")),
                   "-U__INT64_TYPE__")

    def test_helpers_agree_across_branches(self, include_branch):
        for a, b in [(-7, 3), (7, -3), (-9, -1), (5, 0)]:
            for f in _FLOATS:
                for g in (3.0, -3.0, 0.0, float("inf")):
                    builtin = _run_probe(a, b, f, g)
                    included = _run_probe(a, b, f, g, include_branch)
                    for mine, theirs in zip(builtin, included):
                        np.testing.assert_array_equal(mine, theirs)

    def test_float_floordiv_mod_are_python_bit_for_bit(self,
                                                       include_branch):
        grid = _divmod_grid()
        for so_path in (None, include_branch):
            for f in grid:
                for g in grid:
                    if g == 0.0:
                        continue  # Python raises; out of the C contract
                    _, fout = _run_probe(1, 1, f, g, so_path)
                    assert [_bits(fout[1]), _bits(fout[2])] == \
                        [_bits(f // g), _bits(f % g)], (f, g, so_path)

    def test_int64_and_bool_spellings(self, include_branch):
        for so_path in (None, include_branch):
            iout, _ = _run_probe(1, 1, 0.0, so_path=so_path)
            assert (iout[7], iout[8]) == (np.iinfo(np.int64).min, 2)

    def test_every_emitted_spelling_is_declared_on_both_branches(
            self, tmp_path):
        # An identifier neither branch declares would be an error, or
        # (a function) an implicit declaration some compilers accept.
        source, count = _every_spelling()
        results = []
        for branch, flags in (("builtin", ()),
                              ("include", ("-U__INT64_TYPE__",))):
            os.mkdir(os.path.join(str(tmp_path), branch))
            so_path = _cc(os.path.join(str(tmp_path), branch),
                          "-Werror=implicit-function-declaration", *flags,
                          source=source)
            fn = toolchain.load_symbol(so_path, "every")
            iin = np.array([7, -2, 1], dtype=np.int64)
            fin = np.array([2.5, -1.5, 0.5])
            fout = np.zeros(count)
            arrays = (iin, fin, fout)
            assert fn((ctypes.c_void_p * 3)(
                *(arr.ctypes.data for arr in arrays))) == 0
            results.append(fout)
        np.testing.assert_array_equal(*results)
        inf, minus_inf, nan = results[0][-3:]
        assert (inf, minus_inf) == (np.inf, -np.inf) and np.isnan(nan)

    def test_the_builtin_branch_reads_no_header(self, tmp_path):
        # -M lists every file a unit reads: the probe reads only what
        # the compiler reads for an empty unit (glibc's implicit
        # stdc-predef.h), the include branch <math.h> and more.
        def reads(*flags):
            listed = _cc(str(tmp_path), "-M", *flags)
            with open(listed) as handle:
                rule = handle.read().split(":", 1)[1]
            return set(rule.replace("\\", " ").split()) - {
                os.path.join(str(tmp_path), "probe.c")}

        empty = os.path.join(str(tmp_path), "empty.c")
        open(empty, "w").close()
        baseline = subprocess.run(
            [toolchain.compiler_path(), "-M", empty], check=True,
            capture_output=True, text=True).stdout.split(":", 1)[1]
        baseline = set(baseline.replace("\\", " ").split()) - {empty}
        assert reads() == baseline
        assert "math.h" in {os.path.basename(path)
                            for path in reads("-U__INT64_TYPE__")}


@needs_cc
class TestToolchain:
    def test_compile_shared_memoizes_by_digest(self):
        first = toolchain.compile_shared(_PROBE, name="probe")
        second = toolchain.compile_shared(_PROBE, name="probe")
        assert first == second

    def test_compile_error_carries_stderr(self):
        with pytest.raises(codegen.ToolchainError) as err:
            toolchain.compile_shared("this is not C\n", name="broken")
        assert "broken" in str(err.value)

    def test_load_symbol_missing_name_degrades(self):
        so_path = toolchain.compile_shared(_PROBE, name="probe")
        with pytest.raises(codegen.ToolchainError):
            toolchain.load_symbol(so_path, "no_such_symbol")

    def test_entry_validates_dtype_and_contiguity(self):
        entry = _ident_entry(1)
        good = np.array([41, 2], dtype=np.int64)
        assert entry(good) == 41
        with pytest.raises(codegen.ToolchainError):
            entry(np.array([1.0]))                   # wrong dtype
        with pytest.raises(codegen.ToolchainError):
            entry(np.arange(8, dtype=np.int64)[::2])  # not contiguous
        with pytest.raises(codegen.ToolchainError):
            entry([1, 2])                             # not an ndarray

    def test_marshalled_pointers_are_the_arrays_addresses(self):
        segment = ShmSegment.create(64)
        try:
            read_only = np.arange(3, dtype=np.int64)
            read_only.flags.writeable = False
            args = (np.array([41, 2], dtype=np.int64), read_only,
                    segment.view(8, np.int64, (4,)),
                    np.arange(6, dtype=np.int64)[2:],  # offset view
                    np.empty(0, dtype=np.int64))
            prepared = _ident_entry(len(args)).prepare(args)
            pointers, pinned = prepared.args
            assert list(pointers) == [array.ctypes.data for array in args]
            assert all(kept is array for kept, array in zip(pinned, args))
            assert prepared() == 41
            del prepared, pinned, args
        finally:
            segment.close()


def _ident_entry(count):
    """The entry of a C kernel over ``count`` ``int64`` buffers that
    returns the first element of the first."""
    source = _PRELUDE + (
        '\n#define FL_EXPORT '
        '__attribute__((visibility("default")))\n'
        'FL_EXPORT int64_t ident(void **fl_args) {\n'
        '    return ((const int64_t *) fl_args[0])[0];\n'
        '}\n')
    return codegen.kernel_entry(source, "ident", ["int64"] * count)[0]


def _racing(count, action):
    """``action()``'s results in ``count`` threads released together by
    a barrier; an exception a thread raised stands as its result."""
    barrier = threading.Barrier(count)
    results = [None] * count

    def run(slot):
        barrier.wait()
        try:
            results[slot] = action()
        except Exception as exc:     # reported through the results
            results[slot] = exc

    threads = [threading.Thread(target=run, args=(slot,))
               for slot in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)
    return results


@pytest.fixture
def cc_runs(monkeypatch):
    """Every compiler command run from here on."""
    runs = []
    real = subprocess.run

    def counted(command, *args, **kwargs):
        if command[0] == toolchain.compiler_path():
            runs.append(command)
        return real(command, *args, **kwargs)

    monkeypatch.setattr(subprocess, "run", counted)
    return runs


@needs_cc
class TestConcurrentBuilds:
    """Threads that miss the build memo together for one source share
    one compiler run, and none loads a half-written object."""

    TRIALS = 5

    def test_one_compiler_run_serves_every_racing_caller(self, cc_runs):
        for trial in range(self.TRIALS):
            source = _PROBE + "\n/* %s */\n" % uuid.uuid4().hex
            paths = _racing(4, lambda: toolchain.compile_shared(
                source, name="probe"))
            assert len(cc_runs) == trial + 1
            assert len(set(paths)) == 1, paths
            for _ in paths:
                assert _run_probe(7, 2, 2.5, so_path=paths[0])[0][0] == 3

    def test_racing_compiles_all_come_up_native(self, cc_runs):
        codegen.clear_fallback_events()
        A = fl.from_numpy(np.array([0, 1.5, 0, 2.0, 0, 3.0]), ("sparse",),
                          name="A")
        B = fl.from_numpy(np.array([1.0, 2.0, 0, 4.0, 0, 5.0]), ("sparse",),
                          name="B")
        i = fl.indices("i")
        for trial in range(self.TRIALS):
            C = fl.Scalar(name="C")
            program = fl.forall(i, fl.increment(C[()], A[i] * B[i]))
            name = "race_%s" % uuid.uuid4().hex     # a fresh C unit
            kernels = _racing(4, lambda: fl.compile_kernel(
                program, cache=False, backend="c", name=name))
            assert [k.effective_backend for k in kernels] == ["c"] * 4
            assert len(cc_runs) == trial + 1
            for kernel in kernels:
                C.set(0.0)
                kernel.run()
                assert C.value == 26.0
        assert list(codegen.fallback_events()) == []


class TestDiscovery:
    def test_bogus_fl_cc_means_no_toolchain(self, monkeypatch):
        monkeypatch.setenv("FL_CC", "/nonexistent/not-a-compiler")
        toolchain.reset()
        try:
            assert toolchain.compiler_path() is None
            assert not codegen.have_toolchain()
        finally:
            monkeypatch.undo()
            toolchain.reset()

    def test_probe_is_memoized(self):
        first = toolchain.compiler_path()
        assert toolchain.compiler_path() is first
