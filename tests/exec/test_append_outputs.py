"""Append outputs end to end: every way a kernel is run must leave a
``RunOutput`` / ``SparseOutput`` bit-identical to the reference
interpreter's dense result.

The outputs hand kernels three plain arrays (coordinate stream, value
stream, state vector), so they take the same roads as any tensor:
every optimizer level and both backends, a spec round-trip, and the
three batch executors — where the processes executor stages the arrays through
shared memory and writes them back.
"""

import numpy as np
import pytest

import repro.lang as fl
from repro.baselines.reference import interpret
from repro.cin.analyze import output_tensors, program_tensors
from repro.compiler import tiers
from repro.exec import EXECUTORS, KernelPool, WorkerPool
from repro.util.errors import ReproError

CLASSES = [fl.RunOutput, fl.SparseOutput]


def _runs(rng, size, dtype=float):
    """``size`` values in a few constant runs, some of them fill."""
    values = rng.integers(0, 4, 6).astype(dtype)
    return np.repeat(values, -(-size // 6))[:size] if size else \
        np.zeros(0, dtype=dtype)


def vector(cls, seed):
    rng = np.random.default_rng(seed)
    a = _runs(rng, 17)
    b = np.zeros(17)
    b[rng.choice(17, 5, replace=False)] = rng.integers(1, 5, 5)
    A = fl.from_numpy(a, ("rle",), name="A")
    B = fl.from_numpy(b, ("sparse",), name="B")
    out = cls((17,), name="out")
    i = fl.indices("i")
    return fl.forall(i, fl.store(out[i], A[i] + B[i])), out


def matrix(cls, seed):
    # Runs of one value span row ends: the flat stream holds them as
    # one run, finalize() cuts them at the boundary.
    rng = np.random.default_rng(seed)
    mat = _runs(rng, 4 * 9).reshape(4, 9)
    A = fl.from_numpy(mat, ("dense", "rle"), name="A")
    out = cls((4, 9), name="out")
    i, j = fl.indices("i", "j")
    return fl.forall(i, fl.forall(j, fl.store(out[i, j], A[i, j]))), out


def uint8_blend(cls, seed):
    rng = np.random.default_rng(seed)
    img_b = (60 * _runs(rng, 3 * 8, np.uint8)).reshape(3, 8)
    img_c = (80 * _runs(rng, 3 * 8, np.uint8)).reshape(3, 8)
    B = fl.from_numpy(img_b, ("dense", "rle"), name="B", fill=0)
    C = fl.from_numpy(img_c, ("dense", "rle"), name="C", fill=0)
    out = cls((3, 8), fill=0, dtype=np.uint8, name="out")
    i, j = fl.indices("i", "j")
    return fl.forall(i, fl.forall(j, fl.store(out[i, j], fl.call(
        fl.ops.ROUND_U8, 0.3 * B[i, j] + 0.7 * C[i, j])))), out


def float32_values(cls, seed):
    # 0.1 * k is not a float32: the store casts, as the interpreter's
    # dense float32 result does.
    rng = np.random.default_rng(seed)
    A = fl.from_numpy(_runs(rng, 12), ("rle",), name="A")
    out = cls((12,), dtype=np.float32, name="out")
    i = fl.indices("i")
    return fl.forall(i, fl.store(out[i], A[i] * 0.1)), out


def zero_length(cls, seed):
    A = fl.from_numpy(np.zeros(0), ("dense",), name="A")
    out = cls((0,), name="out")
    i = fl.indices("i")
    return fl.forall(i, fl.store(out[i], A[i])), out


def zero_inner_extent(cls, seed):
    A = fl.from_numpy(np.zeros((3, 0)), ("dense", "dense"), name="A")
    out = cls((3, 0), name="out")
    i, j = fl.indices("i", "j")
    return fl.forall(i, fl.forall(j, fl.store(out[i, j], A[i, j]))), out


def where_producer(cls, seed):
    # The output is reset on every entry to the where: it ends up
    # holding the last row, with nothing appended behind the cursor.
    rng = np.random.default_rng(seed)
    mat = _runs(rng, 3 * 6).reshape(3, 6) + 1.0
    A = fl.from_numpy(mat, ("dense", "rle"), name="A")
    x = fl.from_numpy(np.arange(3.0), ("dense",), name="x")
    y = fl.zeros(3, name="y")
    out = cls((6,), name="out")
    i, j = fl.indices("i", "j")
    return fl.forall(i, fl.where(
        fl.store(y[i], x[i]),
        fl.forall(j, fl.store(out[j], A[i, j])))), out


CASES = [vector, matrix, uint8_blend, float32_values, zero_length,
         zero_inner_extent, where_producer]

cases = pytest.mark.parametrize("case", CASES, ids=lambda fn: fn.__name__)
classes = pytest.mark.parametrize("cls", CLASSES,
                                  ids=lambda cls: cls.__name__)
#: The lowered tree on python, and the default level on each backend
#: (C prints the hoisted tree, python the vectorized one).
compiles = pytest.mark.parametrize(
    "opt_level,backend", [(0, "python"), (2, "python"), (2, "c")])


@pytest.fixture(scope="module")
def workers():
    """One warm pool for the module, closed with it: the process-wide
    default pool would outlive these tests and show up in the shm
    hygiene checks of the modules that run after."""
    with WorkerPool(max_workers=2) as pool:
        yield pool


def expected_outputs(program):
    return [interpret(program).result_for(tensor)
            for tensor in output_tensors(program)]


def assert_identical(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@classes
@cases
@compiles
def test_kernel_rerun_and_spec_roundtrip(cls, case, opt_level, backend):
    program, out = case(cls, seed=0)
    want = interpret(program).result_for(out)
    kernel = fl.compile_kernel(program, opt_level=opt_level,
                               backend=backend, cache=False)
    assert all(isinstance(arg, np.ndarray) for arg in kernel._entry.args)
    kernel.run()
    assert_identical(out.to_numpy(), want)
    assert_identical(out.to_tensor().to_numpy(), want)
    kernel.run()  # the reset leaves nothing of the first run behind
    assert_identical(out.to_numpy(), want)

    # A rebuilt artifact, bound to fresh tensors of the same formats.
    artifact = tiers.rebuild(kernel.to_spec())
    fresh_program, fresh_out = case(cls, seed=0)
    artifact.fn(*artifact.bind(program_tensors(fresh_program)))
    assert_identical(fresh_out.to_numpy(), want)


@classes
@cases
@compiles
@pytest.mark.parametrize("executor", EXECUTORS)
def test_batch_snapshots_and_callers_tensors(cls, case, opt_level, backend,
                                             executor, workers):
    template, _ = case(cls, seed=0)
    programs = [case(cls, seed)[0] for seed in (1, 2, 3)]
    datasets = [program_tensors(program) for program in programs]
    kernel = fl.compile_kernel(template, opt_level=opt_level,
                               backend=backend)
    with KernelPool(kernel, executor=executor, worker_pool=(
            workers if executor == "processes" else None)) as pool:
        result = pool.map(datasets)
    for item, program in zip(result, programs):
        for snap, tensor, want in zip(item.outputs,
                                      output_tensors(program),
                                      expected_outputs(program)):
            assert_identical(np.asarray(snap), np.asarray(want))
            # The caller's own output tensor holds the result too: the
            # processes executor wrote the staged streams back.
            value = getattr(tensor, "to_numpy", lambda: tensor.value)()
            assert_identical(np.asarray(value), np.asarray(want))


@classes
@compiles
def test_discordant_program_raises_on_first_read(cls, opt_level, backend):
    """``forall i, j: R[j, i] = A[i, j]`` appends column-major into a
    row-major stream: the kernel flags it and stores nothing behind
    the cursor, and every read of the output raises."""
    mat = np.arange(1.0, 13.0).reshape(3, 4)
    A = fl.from_numpy(mat, ("dense", "dense"), name="A")
    out = cls((4, 3), name="R")
    i, j = fl.indices("i", "j")
    kernel = fl.compile_kernel(
        fl.forall(i, fl.forall(j, fl.store(out[j, i], A[i, j]))),
        opt_level=opt_level, backend=backend, cache=False)
    kernel.run()
    count, cursor, flagged = out.state
    assert flagged and count <= cursor <= out.total
    readers = [out.to_numpy, out.to_tensor, out.finalize,
               out.run_count if cls is fl.RunOutput else out.nnz]
    for read in readers:
        with pytest.raises(ReproError, match="appended out of order"):
            read()
    # A concordant rerun of the same output clears the flag.
    AT = fl.from_numpy(mat.T.copy(), ("dense", "dense"), name="AT")
    fl.execute(fl.forall(j, fl.forall(i, fl.store(out[j, i], AT[j, i]))),
               opt_level=opt_level)
    np.testing.assert_array_equal(out.to_numpy(), mat.T)


def test_every_kernel_argument_is_an_ndarray(monkeypatch):
    from repro.bench.figures import warm_start_programs
    from repro.compiler.kernel import Kernel

    bound = []
    for _, _, make_program, opts in warm_start_programs():
        bound.append(fl.compile_kernel(make_program(), **opts)._entry.args)

    # ``convert`` compiles and runs its copy kernels internally.
    run = Kernel.run

    def recording_run(self, **overrides):
        bound.append(self._entry.args)
        return run(self, **overrides)

    monkeypatch.setattr(Kernel, "run", recording_run)
    image = fl.from_numpy(np.repeat([[0.0, 2.0], [2.0, 0.0]], 4, axis=1),
                          ("dense", "rle"), name="image")
    for formats in [("dense", "sparse"), ("dense", "rle"),
                    ("dense", "dense")]:
        np.testing.assert_array_equal(
            fl.convert(image, formats).to_numpy(), image.to_numpy())
    assert len(bound) == 9
    for args in bound:
        assert args and all(type(arg) is np.ndarray for arg in args)
