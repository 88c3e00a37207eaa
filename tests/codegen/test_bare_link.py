"""Kernels link bare: no C runtime start files, no libc, only libm.

``toolchain.CFLAGS`` passes ``-nostdlib`` and ``toolchain.LIBS`` only
``-lm``, which shortens each ``cc`` run by an eighth to a sixth.  A
kernel then must need nothing but what the Python process that loads
it already has: every symbol a native figure kernel leaves undefined resolves in
libc or libm (a link with the C runtime's start files imports
``_ITM_registerTMCloneTable`` and ``__gmon_start__``, which neither
defines).  A zero fill compiles to a ``memset`` call, resolved at load
time against the process's own libc; the fill kernel below loads and
runs.
"""

import ctypes
import ctypes.util
import shutil
import subprocess

import numpy as np
import pytest

import repro.lang as fl
from repro import codegen
from repro.bench.figures import warm_start_programs
from repro.codegen import c_emit, toolchain
from repro.ir import Load, Literal, Var, asm

needs_cc = pytest.mark.skipif(
    not codegen.have_toolchain(), reason="no C compiler on PATH")
needs_nm = pytest.mark.skipif(
    shutil.which("nm") is None, reason="no nm on PATH")


def undefined_symbols(so_path):
    """The dynamic symbols ``so_path`` imports (``nm -D``)."""
    listing = subprocess.run(["nm", "-D", "--undefined-only", so_path],
                             capture_output=True, text=True, check=True)
    return {line.split()[-1].partition("@")[0]
            for line in listing.stdout.splitlines() if line.strip()}


def libc_or_libm(symbol):
    """Whether the process's libc (its global namespace) or libm
    defines ``symbol``."""
    libraries = [ctypes.CDLL(None)]
    libm = ctypes.util.find_library("m")
    if libm:
        libraries.append(ctypes.CDLL(libm))
    return any(hasattr(library, symbol) for library in libraries)


def fill_kernel():
    """``out[i] = 0.0`` for ``i`` below ``n[0]``, as a loaded entry."""
    i = Var("i")
    func = asm.FuncDef("fill", ["out", "n"], asm.Block([
        asm.ForLoop(i, Literal(0), Load("n", Literal(0)),
                    asm.AssignStmt(Load("out", i), Literal(0.0)))]))
    source = c_emit.emit_c(func, {"out": "float64", "n": "int64"})
    return toolchain.kernel_entry(source, "fill", ["float64", "int64"])


@needs_cc
@needs_nm
def test_native_figure_kernels_import_only_libc_and_libm():
    native = 0
    for figure, _, make_program, opts in warm_start_programs():
        kernel = fl.compile_kernel(make_program(), backend="c",
                                   cache=False, **opts)
        if kernel.effective_backend != "c":
            continue
        native += 1
        foreign = {symbol for symbol in undefined_symbols(kernel.so_path)
                   if not libc_or_libm(symbol)}
        assert not foreign, (figure, foreign)
    assert native >= 2      # fig1 and fig8


@needs_cc
def test_a_fill_loop_loads_and_runs():
    entry, so_path = fill_kernel()
    out = np.full(1000, 7.0)
    entry(out, np.array([600], dtype=np.int64))
    assert not out[:600].any() and (out[600:] == 7.0).all()
    if shutil.which("nm"):
        assert all(map(libc_or_libm, undefined_symbols(so_path)))
