"""Unit tests for the C toolchain layer and the prelude's semantics.

The prelude helpers carry the bit-identity contract for the operators
whose C and Python semantics differ — floor division and modulo on
negative operands, banker's rounding — so they get direct probes here:
a tiny hand-written translation unit reusing the real ``_PRELUDE`` is
compiled and compared against the Python operators over a sign grid.
"""

import ctypes

import numpy as np
import pytest

from repro import codegen
from repro.codegen import toolchain
from repro.codegen.c_emit import _PRELUDE, STATUS_ERRORS
from repro.ir import ops

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
    return 0;
}
"""


def _run_probe(a, b, f):
    so_path = toolchain.compile_shared(_PROBE, name="probe")
    fn = toolchain.load_symbol(so_path, "probe")
    iin = np.array([a, b], dtype=np.int64)
    iout = np.zeros(6, dtype=np.int64)
    fin = np.array([f], dtype=np.float64)
    fout = np.zeros(1, dtype=np.float64)
    arrays = (iin, iout, fin, fout)
    ptrs = (ctypes.c_void_p * 4)(*(arr.ctypes.data for arr in arrays))
    fn(ptrs)
    return iout, fout


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
        source = _PRELUDE + (
            '\n#define FL_EXPORT '
            '__attribute__((visibility("default")))\n'
            'FL_EXPORT int64_t ident(void **fl_args) {\n'
            '    return ((const int64_t *) fl_args[0])[0];\n'
            '}\n')
        entry, _ = codegen.kernel_entry(source, "ident", ["int64"])
        good = np.array([41, 2], dtype=np.int64)
        assert entry(good) == 41
        with pytest.raises(codegen.ToolchainError):
            entry(np.array([1.0]))                   # wrong dtype
        with pytest.raises(codegen.ToolchainError):
            entry(np.arange(8, dtype=np.int64)[::2])  # not contiguous
        with pytest.raises(codegen.ToolchainError):
            entry([1, 2])                             # not an ndarray


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
