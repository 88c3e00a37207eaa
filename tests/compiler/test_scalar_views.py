"""The python backend's scalar loop runs on Python scalars.

At ``opt_level >= 1`` a python kernel is handed an element view
(``memoryview``) of every parameter it indexes one element at a time:
the artifact carries that view set (``CompiledKernel.views``, from
:func:`repro.ir.dtypes.viewable`) and its entry takes the views once
per binding; a slice of a viewed parameter goes through the view's
ndarray (``y_val.obj[0:250]``).  Three things are pinned here:

* the values: the six figure programs, ``fig8_suite()`` and the batch
  matrices, and ``y[i] = op(a[i], b[i])`` for every ``exact`` operator
  over float64 data with signed zeros, infinities, NaN, denormals and
  an overflowing product, are bit-identical at every ``opt_level`` (0
  takes no view) and to a reference;
* the eligibility matrix, read off the artifact's view set;
* the ``exact`` declaration itself, derived from ``all_ops()`` with no
  operator named: equal results, or equal errors, on Python and numpy
  scalars.
"""

import inspect
import itertools
import math
import re
import struct

import numpy as np
import pytest

import repro.lang as fl
from repro.baselines import twofinger
from repro.baselines.reference import interpret
from repro.bench.figures import (
    fig7_suite,
    fig7_vector,
    fig8_suite,
    warm_start_programs,
)
from repro.bench.kernels import spmspv_program, triangle_count_program
from repro.cin.analyze import output_tensors
from repro.formats.custom import LoopletTensor
from repro.ir import asm, ops
from repro.ir.dtypes import stored_ranges, viewable
from repro.ir.nodes import Call, Literal, Load, Var
from repro.looplets import Lookup
from repro.tensors.output import RunOutput
from repro.workloads import graphs

OPS = sorted(ops.all_ops().items())

def viewed(kernel):
    """Names of the parameters ``kernel`` reads through a view: its
    artifact's view set, which the source spells only where it slices
    one (``name.obj[``)."""
    assert "memoryview(" not in kernel.source
    views = set(kernel.artifact.views)
    assert set(re.findall(r"\b(\w+)\.obj\[", kernel.source)) <= views
    return views


def bits(array):
    """The float64 bit patterns: ``-0.0`` differs from ``0.0`` and two
    NaNs compare equal only with one payload."""
    return np.asarray(array, dtype=np.float64).tobytes()


def _arity(op):
    """How many operands to call ``op`` with (variadic ops: two)."""
    params = inspect.signature(op.fn).parameters.values()
    if any(p.kind is p.VAR_POSITIONAL for p in params):
        return 2
    return len(params)


def _takes_buffer(op):
    """More than three operands: the first is an index buffer (the
    search ops), reached through the formats and not ``fl.call``."""
    return _arity(op) > 3


EXACT = [(name, op) for name, op in OPS if op.exact]


# ---------------------------------------------------------------- values
def _figure_programs():
    """The six registry programs — but a 24-node graph for fig8, whose
    220-node registry instance is ten million interpreter steps."""
    adj = graphs.erdos_renyi_adjacency(24, 0.3, seed=5).astype(float)
    adj *= np.linspace(0.25, 1.75, 24)
    for figure, _, make, _ in warm_start_programs():
        if figure.startswith("fig8"):
            yield figure, lambda: triangle_count_program(adj, "gallop")[0]
        else:
            yield figure, make


#: The parameters each figure's kernel reads through views at level 2:
#: every one, except fig10's ``A_state``, which stores a counter no range
#: bounds, and fig11's ``val``, which only ``vectorize``'s slices read
#: (level 1 views it too).  The dense outputs of fig7, fig9 and fig11
#: are reset by a slice of the view's ndarray.
FIGURE_VIEWS = {
    "fig1_dot": {"pos", "idx", "pos_2", "lo", "val", "val_2", "C_val"},
    "fig7_spmspv": {"y_val", "pos", "idx", "pos_2", "idx_2", "val",
                    "val_2"},
    "fig8_triangles": {"pos", "idx", "val", "pos_2", "idx_2", "val_2",
                       "C_val"},
    "fig9_convolution": {"C_val", "pos", "idx", "val", "pos_2", "idx_2",
                         "val_2", "val_3"},
    # ``0.4 * val[q]`` computes in float64 on a uint8 image and a
    # Python int alike; a coordinate is at most 28 * 27 + 28 and a
    # clamped round at most 255.
    "fig10_alpha": {"A_coords", "A_vals", "pos", "right", "pos_2",
                    "right_2", "val", "val_2"},
    "fig11_allpairs": {"R_val", "O_val", "pos", "end", "ofs", "o_val"},
}

#: The parameters each figure slices through its view.
FIGURE_SLICED_VIEWS = {"fig7_spmspv": {"y_val"},
                       "fig9_convolution": {"C_val"},
                       "fig11_allpairs": {"R_val", "O_val"}}


class TestValues:
    @pytest.mark.parametrize("figure, make", list(_figure_programs()),
                             ids=[figure for figure, _ in _figure_programs()])
    def test_figures_are_bit_identical_at_every_level(self, figure, make):
        program = make()
        expected = [bits(interpret(program).result_for(out))
                    for out in output_tensors(program)]
        sources = {}
        for level in (0, 1, 2):
            program = make()
            kernel = fl.compile_kernel(program, cache=False,
                                       opt_level=level)
            kernel.run()
            got = [bits(out.to_numpy()) for out in output_tensors(program)]
            assert got == expected, level
            sources[level] = kernel
        assert not viewed(sources[0]) and ".obj" not in sources[0].source
        for level in (1, 2):
            assert "_round_u8(" not in sources[level].source
        extra = {"val"} if figure.startswith("fig11") else set()
        assert viewed(sources[2]) == FIGURE_VIEWS[figure]
        assert viewed(sources[1]) == FIGURE_VIEWS[figure] | extra
        assert set(re.findall(r"(\w+)\.obj\[", sources[2].source)) \
            == FIGURE_SLICED_VIEWS.get(figure, set())

    @pytest.mark.parametrize("protocol", ["gallop", "walk"])
    def test_fig8_suite_is_bit_identical_to_level_zero_and_counted(
            self, protocol):
        for name, adj in fig8_suite().items():
            got = []
            for level in (0, 2):
                program, C = triangle_count_program(adj, protocol)
                fl.compile_kernel(program, cache=False, opt_level=level).run()
                got.append(bits(C.value))
            pos, idx, _ = twofinger.csr_of(adj)
            count, _ = twofinger.triangle_count_merge(pos, idx, len(adj))
            assert got[0] == got[1] == bits(float(count)), name

    @pytest.mark.parametrize("strategy", ["walk_walk", "gallop_both"])
    def test_batch_matrices_are_bit_identical_to_level_zero_and_merge(
            self, strategy):
        # The batch workload's SpMSpV: its viewed output ``y_val`` is
        # reset through ``y_val.obj``.
        vec = fig7_vector("dense10pct", seed=7)
        x_idx, x_val = twofinger.coords_of(vec)
        for name, mat in fig7_suite().items():
            got = []
            for level in (0, 2):
                program, y = spmspv_program(mat, vec, strategy)
                kernel = fl.compile_kernel(program, cache=False,
                                           opt_level=level)
                kernel.run()
                got.append(bits(y.to_numpy()))
            assert "y_val" in viewed(kernel)
            merged, _ = twofinger.spmspv_merge(
                *twofinger.csr_of(mat), x_idx, x_val, len(mat))
            assert got[0] == got[1] == bits(merged), name

    #: Operand columns: signed zeros, infinities, NaNs, denormals, an
    #: overflowing product (1e308 * 10) and ordinary non-integers.  A
    #: zero in the first column meets a positive finite second: stored
    #: sparse it is the fill, and ``0 * x`` is annihilated to ``+0.0``
    #: without a look at ``x``.
    COLUMNS = (
        [1.5, -0.0, math.inf, math.nan, 5e-324, 1e308, -2.25, 0.1,
         -math.inf, 0.0, 3.75, -7.5],
        [0.3, 2.5, 1.0, 7.5, 2.5e-310, 10.0, -2.25, -0.0, math.inf,
         1.25, math.nan, 3.0],
        [2.0, 0.0, -1.0, 0.5, 1.0, -0.0, 4.0, 8.0, 0.0, 1.0, 2.0, -3.0],
    )

    def rows_for(self, op):
        """``COLUMNS`` cut to the rows ``op`` is defined on."""
        keep = []
        for row in zip(*self.COLUMNS[:_arity(op)]):
            try:
                op.fn(*row)
            except (ArithmeticError, ValueError):
                continue
            keep.append(row)
        return [np.array(col) for col in zip(*keep)]

    @pytest.mark.parametrize(
        "op", [op for _, op in EXACT if not _takes_buffer(op)],
        ids=[name for name, op in EXACT if not _takes_buffer(op)])
    @pytest.mark.parametrize("fmt", ["dense", "sparse"])
    def test_exact_ops_are_bit_identical_at_every_level(self, op, fmt):
        columns = self.rows_for(op)
        assert len(columns[0]) >= 6
        results = {}
        with np.errstate(all="ignore"):
            for level in (0, 1, 2):
                tensors = [fl.from_numpy(col, (fmt if pos == 0 else "dense",),
                                         name=name)
                           for pos, (col, name) in enumerate(
                               zip(columns, "abd"))]
                y = fl.zeros((len(columns[0]),), name="y")
                i = fl.indices("i")
                program = fl.forall(i, fl.store(
                    y[i], fl.call(op, *[t[i] for t in tensors])))
                kernel = fl.compile_kernel(program, cache=False,
                                           opt_level=level)
                kernel.run()
                results[level] = bits(y.to_numpy())
                if level == 1:
                    # The scalar loop reads its operands through views.
                    assert {"val"} <= viewed(kernel)
            expected = bits(interpret(program).result_for(y))
        assert results[0] == expected
        assert results[1] == expected
        assert results[2] == expected


# ----------------------------------------------------------- eligibility
def _dot(a, b, a_fmt="sparse", b_fmt="sparse", **opts):
    """``C[] += A[i] * B[i]``; returns (kernel — already run, C)."""
    A = fl.from_numpy(a, (a_fmt,), name="A")
    B = fl.from_numpy(b, (b_fmt,), name="B")
    C = fl.Scalar(name="C")
    i = fl.indices("i")
    kernel = fl.compile_kernel(
        fl.forall(i, fl.increment(C[()], A[i] * B[i])),
        cache=False, **opts)
    kernel.run()
    return kernel, C


A64 = np.array([0.0, 1.5, 0.0, 2.25, 3.5, 0.0, 0.0, 4.75])
B64 = np.array([0.5, 0.25, 0.0, 1.5, 0.0, 0.0, 2.5, 3.0])
STRUCTURE = {"pos", "idx", "pos_2", "idx_2"}


class TestEligibility:
    def test_float64_operands_and_structure_are_viewed(self):
        kernel, C = _dot(A64, B64, opt_level=1)
        assert viewed(kernel) == STRUCTURE | {"val", "val_2", "C_val"}
        assert C.value == float(A64 @ B64)

    def test_level_zero_takes_no_view(self):
        kernel, _ = _dot(A64, B64, opt_level=0)
        assert not viewed(kernel)
        assert "memoryview" not in kernel.source

    def test_a_sliced_parameter_keeps_its_ndarray(self):
        kernel, C = _dot(A64, B64, "dense", "dense", opt_level=2)
        assert "_np.dot(val[0:8], val_2[0:8])" in kernel.source
        assert viewed(kernel) == {"C_val"}
        assert C.value == float(A64 @ B64)

    def test_a_sliced_and_indexed_output_is_sliced_through_its_view(self):
        mat = np.array([[0.0, 1.5, 0.0], [2.0, 0.0, 0.5], [0.0, 0.0, 0.0]])
        vec = np.array([4.0, 0.0, -2.0])
        results = []
        for level in (0, 1, 2):
            program, y = spmspv_program(mat, vec)
            kernel = fl.compile_kernel(program, cache=False,
                                       opt_level=level)
            y.element.val[:] = 7.0      # the reset must clear it
            kernel.run()
            results.append(bits(y.to_numpy()))
            reset = "y_val.obj[0:3] = 0.0" if level else "y_val[0:3] = 0.0"
            assert reset in kernel.source.splitlines()[1], level
            assert ("y_val" in viewed(kernel)) == (level > 0)
        assert results[0] == results[1] == results[2] == bits(mat @ vec)

    @pytest.mark.parametrize("dtype", [np.float32, np.uint8, np.bool_,
                                       np.int64])
    def test_other_value_dtypes_next_to_a_float64_operand(self, dtype):
        a = np.array([0, 1, 0, 2, 3, 0, 0, 1]).astype(dtype)
        results = []
        for level in (0, 1, 2):
            kernel, C = _dot(a, B64, opt_level=level)
            results.append(C.value)
        assert results[0] == results[1] == results[2] \
            == float(a.astype(np.float64) @ B64)
        kernel, _ = _dot(a, B64, opt_level=1)
        if dtype in (np.float32, np.uint8):
            # ``val[q] * val_2[q_2]`` computes in float64 on a narrow
            # numpy scalar and on the Python one a view reads alike.
            assert viewed(kernel) == STRUCTURE | {"val", "val_2", "C_val"}
        else:   # bool and int64 values keep the ndarray
            assert viewed(kernel) == STRUCTURE | {"val_2", "C_val"}

    def test_float32_next_to_float64_still_computes_in_double(self):
        a = np.array([0.1, 0.2, 0.3, 0.7], dtype=np.float32)
        b = np.array([0.3, 0.7, 0.9, 0.1])
        want = np.float64(0.0)
        for x, y in zip(a, b):
            want += x * y       # float32 * float64: a float64 product
        for level in (0, 1, 2):
            _, C = _dot(a, b, opt_level=level)
            assert C.value == want, level

    @pytest.mark.parametrize("fmt", ["rle", "vbl"])
    @pytest.mark.parametrize("dtype", [np.uint8, np.float32])
    def test_a_run_length_meets_a_narrow_value_as_a_numpy_scalar(
            self, dtype, fmt):
        # ``S += val[q] * (stop - start)``: were the length a Python
        # int, 200 * 25 would wrap in uint8, 300 would not fit it at
        # all, and 0.1 * 10 would round in float32.
        vec = np.repeat(np.array([200, 0, 7, 0.1]).astype(dtype),
                        [25, 300, 40, 10])
        values = []
        for level in (0, 1, 2):
            R = fl.from_numpy(vec, (fmt,), name="R")
            S = fl.Scalar(name="S")
            i = fl.indices("i")
            program = fl.forall(i, fl.increment(S[()], R[i]))
            kernel = fl.compile_kernel(program, cache=False, opt_level=level)
            kernel.run()
            views = viewed(kernel)
            if fmt == "rle":
                # ``S += val[q] * (stop - start)``, both ends int64 run
                # boundaries (no clamp adds a Python int literal: a run
                # ends within the dimension): a float32 value times
                # their difference computes in float64 on numpy and
                # Python scalars alike, so both are viewed; a uint8
                # value and the boundaries stay numpy scalars.
                both = dtype is np.float32 and level > 0
                assert ({"val", "right"} <= views) == both
                assert not {"val", "right"} & views or both
            else:
                # ``S += val[k]`` from ``S = 0.0``: a weak float takes a
                # float32's width, and a uint8 value's float64.  (Level 2
                # sums the float32 block as a slice; ``_np.add.reduce``
                # would sum uint8 in uint64, so that loop stays scalar.)
                assert ("val" in views) == (dtype is np.uint8 and level > 0)
            values.append(S.value)
        assert values[0] == values[1]
        if dtype is np.uint8:   # a float32 slice sums pairwise at level 2
            assert values[2] == values[0] \
                == float(interpret(program).result_for(S)) == 5280.0

    def test_written_integer_buffers_are_viewed_where_every_store_fits(
            self):
        img = np.array([[0, 0, 7, 7, 7, 0], [3, 3, 0, 0, 9, 9]]) / 4
        B = fl.from_numpy(img, ("dense", "rle"), name="B")
        C = fl.from_numpy(img[::-1].copy(), ("dense", "rle"), name="C")
        A = RunOutput((2, 6), fill=0.0, name="A")
        i, j = fl.indices("i", "j")
        kernel = fl.compile_kernel(
            fl.forall(i, fl.forall(j, fl.store(A[i, j], B[i, j] + C[i, j]))),
            cache=False, opt_level=1)
        kernel.run()
        # RunOutput's int64 coords are positions the literal extents
        # bound (``6 * i + j``), so they are viewed; its state stores the
        # entry count, a counter no range bounds, and stays.
        assert viewed(kernel) == {"A_coords", "A_vals", "pos", "right",
                                  "pos_2", "right_2", "val", "val_2"}
        assert np.array_equal(A.to_numpy(), img + img[::-1])

    def test_an_unproven_uint8_store_keeps_its_ndarray(self):
        # ``y[i] = a[i] * 3`` wraps in uint8, and no range bounds a
        # uint8 load: ``y`` stays an ndarray and stores numpy's answer.
        # A float clamped into 0..255 fits, but a view raises on a float
        # where numpy truncates it: ``y`` stays too.  A clamped round of
        # a float64 product provably fits and is an int: viewed.
        a = np.array([200, 0, 255, 7, 100, 0, 3, 128], np.uint8)
        clamp = np.minimum(np.maximum(a * B64, 0), 255)
        cases = {
            "wraps": (lambda A, B: A * 3, False, a * np.uint8(3)),
            "float": (lambda A, B: fl.call(ops.MIN, fl.call(
                ops.MAX, A * B, 0), 255), False, clamp.astype(np.uint8)),
            "clamped": (lambda A, B: fl.call(ops.ROUND_U8, A * B), True,
                        np.array([ops.ROUND_U8.fn(x) for x in a * B64],
                                 np.uint8)),
        }
        for case, (build, fits, want) in cases.items():
            results = []
            for level in (0, 1, 2):
                A = fl.from_numpy(a, ("sparse",), name="A")
                B = fl.from_numpy(B64, ("dense",), name="B")
                y = fl.zeros((8,), dtype=np.uint8, name="y")
                i = fl.indices("i")
                kernel = fl.compile_kernel(
                    fl.forall(i, fl.store(y[i], build(A[i], B[i]))),
                    cache=False, opt_level=level)
                with np.errstate(over="ignore"):
                    kernel.run()
                results.append(y.to_numpy())
                assert ("y_val" in viewed(kernel)) == (fits and level > 0)
            for got in results:
                assert got.dtype == np.uint8 and np.array_equal(got, want)

    def test_stored_ranges_follow_loops_products_and_counters(self):
        n, i = Var("n"), Var("i")
        func = asm.FuncDef("kernel", ("y", "z", "idx"), asm.Block([
            asm.AssignStmt(n, Literal(0)),
            asm.ForLoop(i, Literal(0), Literal(4), asm.Block([
                asm.AccumStmt(n, ops.ADD, Literal(1)),
                asm.AssignStmt(Load("y", n), Call(ops.ADD, [
                    Call(ops.MUL, [Literal(3), i]),
                    Load(Var("idx", bounds=(0, 9)), i)])),
                asm.AssignStmt(Load("z", Literal(0)), n)]))]))
        int64 = np.dtype(np.int64)
        ranges = stored_ranges(func, {"y": int64, "z": int64, "idx": int64})
        # ``n += 1`` reads ``n`` back: a counter is unbounded.
        assert ranges == {"y": (0, 18), "z": (-math.inf, math.inf)}
        # A narrower load wraps in its own dtype: no range is trusted.
        narrow = stored_ranges(func, {"idx": np.dtype(np.int32)})
        assert narrow["y"] == (-math.inf, math.inf)

    def test_a_big_endian_operand_keeps_its_ndarray(self):
        kernel, C = _dot(A64.astype(">f8"), B64, opt_level=1)
        assert "val" not in viewed(kernel)
        assert STRUCTURE <= viewed(kernel)
        assert C.value == float(A64 @ B64)

    def test_a_pinned_custom_format_buffer_stays(self):
        data = np.arange(8.0) / 4
        state = {}

        def unfurl(ctx, pos):
            state["buf"] = ctx.buffer(data, "table")
            return Lookup(lambda j: Load(state["buf"], j))

        V = LoopletTensor(8, unfurl, name="V")
        B = fl.from_numpy(B64, ("sparse",), name="B")
        C = fl.Scalar(name="C")
        i = fl.indices("i")
        kernel = fl.compile_kernel(
            fl.forall(i, fl.increment(C[()], V[i] * B[i])),
            cache=False, opt_level=1)
        kernel.run()
        assert "table" in kernel.source.splitlines()[0]
        assert viewed(kernel) == {"pos", "idx", "val", "C_val"}
        assert C.value == float(data @ B64)

    def _map(self, build_body, level):
        x = fl.from_numpy(np.array([2.0, 0.0, -4.0]), ("dense",), name="x")
        z = fl.from_numpy(np.array([1.0, 3.0, 5.0]), ("sparse",), name="z")
        y = fl.zeros((3,), name="y")
        i = fl.indices("i")
        kernel = fl.compile_kernel(
            fl.forall(i, build_body(y[i], z[i], x[i])),
            cache=False, opt_level=level)
        with np.errstate(all="ignore"):
            kernel.run()
        return kernel, y.to_numpy()

    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_division_keeps_its_operands_on_ndarrays_and_inf(self, level):
        # An operator that does not declare ``exact`` — in a Call...
        kernel, got = self._map(
            lambda out, z, x: fl.store(out, fl.call(ops.DIV, z, x)), level)
        # The output ``y`` takes its quotient as a float64 either way.
        assert viewed(kernel) == ({"pos", "idx", "y_val"} if level
                                  else set())
        assert bits(got) == bits([0.5, math.inf, -1.25])
        # ...and as an accumulation's operator (``y[i] /= x[i]``).
        kernel, got = self._map(
            lambda out, z, x: fl.multi(fl.store(out, z),
                                       fl.reduce_into(out, ops.DIV, x)),
            level)
        assert "val_2" not in viewed(kernel)
        assert bits(got) == bits([0.5, math.inf, -1.25])

    def test_a_user_registered_op_keeps_its_operand_on_ndarrays(
            self, temp_op):
        halve = temp_op(ops.Op("halve", lambda a: a / 2))
        kernel, got = self._map(
            lambda out, z, x: fl.store(out, fl.call(halve, z) + x), 1)
        # ``halve(val[q])`` reads numpy; the ``+`` it meets computes
        # in float64 with a Python float all the same.
        assert viewed(kernel) == {"pos", "idx", "val_2", "y_val"}
        assert bits(got) == bits([2.5, 1.5, -1.5])
        # The same op declared exact: the kernel reads through views.
        sure = temp_op(ops.Op("halve", lambda a: a / 2, exact=True))
        kernel, again = self._map(
            lambda out, z, x: fl.store(out, fl.call(sure, z) + x), 1)
        assert {"val", "val_2"} <= viewed(kernel)
        assert bits(again) == bits(got)

    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_arithmetic_on_truth_values_alone_keeps_ndarrays(self, level):
        # Two np.bool_ add to True, two Python bools to 2: the kernel
        # stores what it always did, at every level.
        kernel, got = self._map(
            lambda out, z, x: fl.store(out, fl.call(
                ops.ADD, fl.call(ops.GT, z, 2.0), fl.call(ops.GT, x, -1.0))),
            level)
        assert not {"val", "val_2"} & viewed(kernel)
        assert bits(got) == bits([1.0, 1.0, 1.0])
        # Next to a number a truth value is 0 or 1 both ways (fig9's
        # ``(val[q] != 0.0) * ...`` mask).
        kernel, got = self._map(
            lambda out, z, x: fl.store(out, fl.call(
                ops.ADD, fl.call(ops.GT, z, 2.0) * x, fl.call(ops.GT, x, 0.0))),
            level)
        assert {"val", "val_2"} <= viewed(kernel) or level == 0
        assert bits(got) == bits([1.0, 0.0, -4.0])

    def test_a_truth_value_is_followed_through_scalars(self):
        def views(*stmts):
            func = asm.FuncDef("kernel", ("y", "a"), asm.Block(stmts))
            buffers = [("y", np.zeros(4)), ("a", np.zeros(4))]
            return list(viewable(func, buffers, [(0, 1), (1, 1)],
                                 {"y", "a"}))
        i = Literal(0)
        t = asm.AssignStmt("t", Call(ops.GT, [Load("a", i), 0.0]))
        u = asm.AssignStmt("u", Var("w"))       # ...assigned further down
        w = asm.AssignStmt("w", Call(ops.MAX, [Var("t"), False]))
        loop = lambda *body: asm.WhileLoop(Var("t"), asm.Block(body))
        store = lambda value: asm.AssignStmt(Load("y", i), value)
        tested = views(t, loop(u, w, asm.If([(Var("u"), store(Var("t")))])))
        assert tested == ["y", "a"]
        scaled = views(t, loop(u, w, store(Call(ops.MUL, [Var("u"), Load("a", i)]))))
        assert scaled == ["y", "a"]
        # ``u + t`` adds two truth values: ``a`` feeds both.
        func = views(t, loop(u, w, store(Call(ops.ADD, [Var("u"), Var("t")]))))
        assert func == ["y"]
        counted = views(t, asm.AssignStmt("n", Var("t")),
                        asm.AccumStmt("n", ops.ADD, Var("t")))
        assert counted == ["y"]

    def test_a_stored_missing_keeps_ndarrays(self):
        # numpy stores ``None`` into float64 as nan; a view would
        # refuse it.
        a = fl.from_numpy(np.array([1.0, 0.0, 2.0, 3.0]), ("sparse",),
                          name="a")
        b = fl.from_numpy(np.array([0.0, 4.0, 5.0, 0.0]), ("sparse",),
                          name="b")
        y = fl.zeros((4,), name="y")
        i = fl.indices("i")
        program = fl.forall(i, fl.store(
            y[i], fl.coalesce(a[fl.permit(fl.offset(i, 3))],
                              b[fl.permit(fl.offset(i, -3))])),
            ext=(0, 4))
        results = []
        for level in (0, 1):
            kernel = fl.compile_kernel(program, cache=False,
                                       opt_level=level)
            kernel.run()
            results.append(bits(y.to_numpy()))
            assert "= None" in kernel.source and "y_val" not in viewed(kernel)
        assert results[0] == results[1]

    def test_strided_and_read_only_inputs_run_through_views(self):
        base = np.repeat(A64, 2)
        for level in (0, 1, 2):
            A = fl.from_numpy(A64, ("dense",), name="A")
            B = fl.from_numpy(B64, ("sparse",), name="B")
            A.element.val = base[::2]               # strided
            B.element.val.flags.writeable = False   # read-only
            C = fl.Scalar(name="C")
            i = fl.indices("i")
            kernel = fl.compile_kernel(
                fl.forall(i, fl.increment(C[()], A[i] * B[i])),
                cache=False, opt_level=level)
            kernel.run()
            assert C.value == float(A64 @ B64)
        assert {"val", "val_2"} <= viewed(kernel)

    def test_a_read_only_output_raises_the_documented_error(self):
        errors = {}
        for level in (0, 1):
            A = fl.from_numpy(A64, ("sparse",), name="A")
            B = fl.from_numpy(B64, ("sparse",), name="B")
            C = fl.Scalar(name="C")
            C.element.val.flags.writeable = False
            i = fl.indices("i")
            kernel = fl.compile_kernel(
                fl.forall(i, fl.increment(C[()], A[i] * B[i])),
                cache=False, opt_level=level)
            with pytest.raises((TypeError, ValueError)) as caught:
                kernel.run()
            errors[level] = caught.type
        # docs/backends.md: numpy's error without a view, the view's
        # with one.
        assert errors == {0: ValueError, 1: TypeError}

    def test_the_c_emitter_sees_no_view(self):
        kernel, C = _dot(A64, B64, opt_level=1, backend="c")
        assert kernel.c_source is not None
        assert "memoryview" not in kernel.c_source
        assert viewed(kernel)       # the python source, kept as fallback
        assert C.value == float(A64 @ B64)

    def test_views_survive_the_spec_round_trip(self):
        from repro.compiler.kernel import CompiledKernel, Kernel

        kernel, C = _dot(A64, B64, opt_level=1)
        rebuilt = CompiledKernel.from_spec(kernel.to_spec())
        assert rebuilt.source == kernel.source
        assert rebuilt.views == kernel.artifact.views
        C.set(0.0)
        Kernel(rebuilt, kernel.tensors, kernel.program).run()
        assert C.value == float(A64 @ B64)

    def test_an_index_named_like_the_view_builtin_is_left_alone(self):
        # The entry takes the views, so the source calls no
        # ``memoryview`` an index could shadow.
        A = fl.from_numpy(A64, ("sparse",), name="A")
        B = fl.from_numpy(B64, ("dense",), name="B")
        C = fl.Scalar(name="C")
        i = fl.indices("memoryview")
        kernel = fl.compile_kernel(
            fl.forall(i, fl.increment(C[()], A[i] * B[i])),
            cache=False, opt_level=1)
        kernel.run()
        assert viewed(kernel) and C.value == float(A64 @ B64)

    def test_an_index_named_like_round_is_renamed(self):
        A = fl.from_numpy(A64 * 100, ("sparse",), name="A")
        B = fl.from_numpy(B64, ("dense",), name="B")
        C = fl.Scalar(name="C")
        i = fl.indices("round")
        kernel = fl.compile_kernel(
            fl.forall(i, fl.increment(C[()], fl.call(ops.ROUND_U8,
                                                     A[i] * B[i]))),
            cache=False, opt_level=1)
        kernel.run()
        assert "round(" in kernel.source and viewed(kernel)
        assert not re.search(r"\bround\b(?!\()", kernel.source)
        assert C.value == sum(ops.ROUND_U8.fn(x) for x in A64 * 100 * B64)


# ------------------------------------------------------------ narrow values
NARROW = {np.uint8: np.array([200, 0, 255, 7, 100, 0, 3, 128], np.uint8),
          np.float32: np.array([0.1, 0, 3e38, 7.7, -0.3, 0, 1e-45, 2.5],
                               np.float32)}


def _narrow_map(dtype, build, level):
    """``y[i] = build(A[i], B[i], A2[i])`` over a sparse ``A`` of
    ``dtype``, a float64 ``B`` and an ``A2`` of ``dtype``: the kernel and
    the bits of ``y``."""
    A = fl.from_numpy(NARROW[dtype], ("sparse",), name="A")
    B = fl.from_numpy(B64, ("sparse",), name="B")
    A2 = fl.from_numpy(NARROW[dtype][::-1].copy(), ("sparse",), name="A2")
    y = fl.zeros((8,), name="y")
    i = fl.indices("i")
    kernel = fl.compile_kernel(
        fl.forall(i, fl.store(y[i], build(A[i], B[i], A2[i]))),
        cache=False, opt_level=level)
    with np.errstate(all="ignore"):
        kernel.run()
    return kernel, bits(y.to_numpy())


#: ``y[i] = ...`` over a narrow ``a``: (uint8 viewed?, float32 viewed?).
#: A float literal is weak: it computes in float32 beside a float32 and
#: in float64 beside a uint8; an int literal takes a uint8's width.
NARROW_CASES = {
    "float_literal": (lambda a, b, a2: a * 0.5, True, False),
    "int_literal": (lambda a, b, a2: a * 3, False, False),
    "float64_buffer": (lambda a, b, a2: a * b, True, True),
    "same_dtype": (lambda a, b, a2: a * a2, False, False),
    "comparison": (lambda a, b, a2: fl.call(ops.GT, a, 2.0), True, False),
}


class TestNarrowValues:
    @pytest.mark.parametrize("runs", [[375], [200, 175]])
    def test_a_run_length_computes_as_the_interpreter_does(self, runs):
        # ``S += val[q] * (stop - cur)`` over float32 runs.  A clamp
        # ``min(right[q], 375)`` used to hand a whole-dimension run the
        # Python int 375, and ``v * (375 - 0)`` then rounded in float32
        # where the interpreter multiplies in float64.  A run ends
        # within the dimension, so no clamp is emitted.
        vec = np.repeat(np.array([0.1, 0.3], np.float32)[:len(runs)], runs)
        for level in (0, 1, 2):
            R = fl.from_numpy(vec, ("rle",), name="R")
            S = fl.Scalar(name="S")
            i = fl.indices("i")
            program = fl.forall(i, fl.increment(S[()], R[i]))
            fl.compile_kernel(program, cache=False, opt_level=level).run()
            assert bits(S.value) == bits(interpret(program).result_for(S))

    @pytest.mark.parametrize("dtype", [np.uint8, np.float32],
                             ids=["uint8", "float32"])
    @pytest.mark.parametrize("case", sorted(NARROW_CASES))
    def test_views_follow_the_promotion(self, case, dtype):
        build, *expected = NARROW_CASES[case]
        results = {}
        for level in (0, 1, 2):
            kernel, results[level] = _narrow_map(dtype, build, level)
            views = viewed(kernel)
            want = level > 0 and expected[dtype is np.float32]
            assert ("val" in views) == want, level
            assert "val_3" not in views or want, level
        assert results[0] == results[1] == results[2]

    @pytest.mark.parametrize("dtype", [np.uint8, np.float32],
                             ids=["uint8", "float32"])
    def test_an_int64_structure_array_meets_it_as_a_numpy_scalar(
            self, dtype):
        # ``S += val[q] * (stop - start)``, the run boundaries from an
        # int64 ``right``: a uint8 value wraps in int64 and not in a
        # Python int, so neither side is viewed, at any level; a
        # float32 one computes in float64 both ways, so both are.
        values = []
        for level in (0, 1, 2):
            R = fl.from_numpy(np.repeat(NARROW[dtype], 40), ("rle",),
                              name="R")
            S = fl.Scalar(name="S")
            i = fl.indices("i")
            kernel = fl.compile_kernel(
                fl.forall(i, fl.increment(S[()], R[i])),
                cache=False, opt_level=level)
            with np.errstate(all="ignore"):
                kernel.run()
            if dtype is np.float32 and level > 0:
                assert {"val", "right"} <= viewed(kernel)
            else:
                assert not {"val", "right"} & viewed(kernel)
            values.append(bits(S.value))
        assert values[0] == values[1] == values[2]


# --------------------------------------------------- the exact declaration
FLOATS = (0.0, -0.0, 1.5, -2.25, 3.0, math.inf, -math.inf, math.nan,
          5e-324, 1e308)
INTS = (0, 1, -1, 7, -9, 250)


def _outcome(fn, args):
    try:
        return fn(*args)
    except Exception as exc:        # the error type is the behaviour
        return type(exc)


def _same(left, right):
    """Equal Python-visible behaviour: the same error type, or values
    that print, test and convert alike (``np.float64`` is a ``float``
    and ``np.int64`` indexes like an ``int``)."""
    if isinstance(left, type) or isinstance(right, type):
        return left is right
    if left is None or right is None:
        return left is right
    if bool(left) != bool(right):
        return False
    return struct.pack("d", left) == struct.pack("d", right)


class TestExactDeclaration:
    def test_some_ops_do_and_some_do_not(self):
        declared = {name for name, op in OPS if op.exact}
        assert declared and declared != {name for name, _ in OPS}

    # An index buffer is a view on the Python side and the ndarray on
    # the numpy side; the positions and the key searched in it are
    # integers, so the buffer-taking ops skip the float grid.
    GRIDS = [(name, op, grid, wrap) for name, op in EXACT
             for grid, wrap in ((FLOATS, np.float64), (INTS, np.int64))
             if not (_takes_buffer(op) and grid is FLOATS)]

    @pytest.mark.parametrize(
        "op, grid, wrap", [case[1:] for case in GRIDS],
        ids=["%s-%s" % (case[0], case[3].__name__) for case in GRIDS])
    def test_python_and_numpy_scalars_agree(self, op, grid, wrap):
        arity = _arity(op)
        rows = [[grid[(pos + shift * (k + 1)) % len(grid)]
                 for k in range(arity)]
                for pos in range(len(grid)) for shift in range(len(grid))]
        buffer = np.array([-9, -4, 0, 2, 2, 7, 11, 250, 251], dtype=np.int64)
        with np.errstate(all="ignore"):
            for row in rows:
                plain, boxed = row, [wrap(arg) for arg in row]
                if _takes_buffer(op):
                    plain = [memoryview(buffer)] + plain[1:]
                    boxed = [buffer] + boxed[1:]
                assert _same(_outcome(op.runtime, plain),
                             _outcome(op.runtime, boxed)), row

    # A narrow value next to float64 ones: the pass views it when the
    # call computes in float64 (``NARROW_CASES``).
    NARROW_GRIDS = [(name, op, dtype) for name, op in EXACT
                    for dtype in (np.uint8, np.float32)
                    if _arity(op) > 1 and not _takes_buffer(op)]

    @pytest.mark.parametrize(
        "op, dtype", [case[1:] for case in NARROW_GRIDS],
        ids=["%s-%s" % (name, dtype.__name__)
             for name, _, dtype in NARROW_GRIDS])
    def test_a_narrow_operand_beside_float64_agrees(self, op, dtype):
        narrow = NARROW[dtype]
        rows = itertools.product(narrow, *[FLOATS] * (_arity(op) - 1))
        with np.errstate(all="ignore"):
            for first, *rest in rows:
                plain = [first.item()] + list(rest)
                boxed = [first] + [np.float64(arg) for arg in rest]
                assert _same(_outcome(op.runtime, plain),
                             _outcome(op.runtime, boxed)), (first, rest)

    @pytest.mark.parametrize(
        "op", [op for _, op in EXACT if not _takes_buffer(op)],
        ids=[name for name, op in EXACT if not _takes_buffer(op)])
    def test_truth_values_compute_alike_at_every_level(self, op):
        # ``op`` over comparisons: ``np.bool_`` on ndarrays, ``bool`` on
        # views.  Where the two differ (``True + True``: ``True`` or 2;
        # ``round`` has no ``np.bool_`` form) the pass keeps the
        # ndarrays, so every level stores, or raises, the same.
        outcomes = []
        for level in (0, 1):
            a = fl.from_numpy(np.array([1.0, -1.0, 2.0, -2.0]), ("sparse",),
                              name="a")
            b = fl.from_numpy(np.array([1.0, 1.0, -1.0, -1.0]), ("dense",),
                              name="b")
            y = fl.zeros((4,), name="y")
            i = fl.indices("i")
            truths = [fl.call(ops.GT, a[i], 0.0), fl.call(ops.GT, b[i], 0.0),
                      fl.call(ops.GT, a[i], 1.5)][:_arity(op)]
            kernel = fl.compile_kernel(
                fl.forall(i, fl.store(y[i], fl.call(op, *truths))),
                cache=False, opt_level=level)
            outcome = _outcome(kernel.run, ())
            outcomes.append(outcome if isinstance(outcome, type)
                            else bits(y.to_numpy()))
        assert outcomes[0] == outcomes[1]

    def test_an_undeclared_op_is_why_the_field_exists(self):
        # 1.0 / 0.0: inf (and a RuntimeWarning) on numpy scalars, an
        # error on Python ones.
        undeclared = [op for _, op in OPS
                      if not op.exact and _arity(op) == 2]
        differing = []
        with np.errstate(all="ignore"):
            for op in undeclared:
                plain = _outcome(op.runtime, [1.0, 0.0])
                boxed = _outcome(op.runtime,
                                 [np.float64(1.0), np.float64(0.0)])
                if not _same(plain, boxed):
                    differing.append(op)
        assert differing
