"""Golden tests for the worked lowering examples of Section 6.1.

Each test builds the paper's example program from hand-constructed
looplets (via a custom looplet-defined tensor) and asserts the *shape*
of the emitted Python: which loops exist, what got hoisted, what
vanished.  These document the compiler's per-looplet passes.
"""

import numpy as np
import pytest

import repro.lang as fl
from repro.formats.custom import LoopletTensor
from repro.ir import Literal, Load, Var, build
from repro.looplets import (
    Case,
    Lookup,
    Phase,
    Pipeline,
    Run,
    Spike,
    Stepper,
    Switch,
)


def scalar_program(*factors):
    """C[] += prod(factors[i]) over i in [0, 10)."""
    C = fl.Scalar(name="C")
    i = fl.indices("i")
    rhs = factors[0][i]
    for factor in factors[1:]:
        rhs = rhs * factor[i]
    return fl.forall(i, fl.increment(C[()], rhs), ext=(0, 10)), C


def compile_source(prog):
    # These are golden tests for the *lowering* passes; compile with
    # the optimizer off so they assert the shape lowering produced,
    # not what the target-IR optimizer made of it afterwards.
    return fl.compile_kernel(prog, opt_level=0).source


class TestLookupLowering:
    """Lookups: emit a plain for loop and substitute the index."""

    def test_emits_for_loop(self):
        A = LoopletTensor(10, lambda ctx, pos: Lookup(
            lambda j: build.times(j, j)), name="A")
        prog, C = scalar_program(A)
        source = compile_source(prog)
        assert "for i in range(0, 10):" in source
        assert "i * i" in source

    def test_executes(self):
        A = LoopletTensor(10, lambda ctx, pos: Lookup(
            lambda j: build.times(j, j)), name="A")
        prog, C = scalar_program(A)
        fl.execute(prog)
        assert C.value == sum(j * j for j in range(10))


class TestRunLowering:
    """Runs: unwrap to scalars; zero runs annihilate the whole loop."""

    def test_zero_run_erases_everything(self):
        A = LoopletTensor(10, lambda ctx, pos: Run(Var("x")), name="A")
        B = LoopletTensor(10, lambda ctx, pos: Run(Literal(0.0)),
                          name="B")
        prog, C = scalar_program(A, B)
        source = compile_source(prog)
        # The paper's example: @∀ i C[] += A[i]*B[i] with B = Run(0)
        # lowers to @pass — no loop, no additions.
        assert "for" not in source
        assert "while" not in source
        assert "+=" not in source

    def test_constant_run_uses_run_summation(self):
        A = LoopletTensor(10, lambda ctx, pos: Run(Literal(3.0)),
                          name="A")
        prog, C = scalar_program(A)
        source = compile_source(prog)
        assert "for" not in source
        assert "C_acc += 30.0" in source
        fl.execute(prog)
        assert C.value == 30.0


class TestSpikeLowering:
    """Spikes: split into a run body and a unit tail evaluation."""

    def test_tail_only_remains(self):
        data = np.arange(10.0)
        buf = {}

        def unfurl(ctx, pos):
            buf["val"] = ctx.buffer(data, "Adata")
            return Spike(Literal(0.0), Load(buf["val"], Literal(9)))

        A = LoopletTensor(10, unfurl, name="A")
        B = LoopletTensor(10, unfurl, name="B")
        prog, C = scalar_program(A, B)
        source = compile_source(prog)
        # Body region is 0 * 0 => gone; only the single tail product
        # remains, with no loop around it.
        assert "for" not in source
        assert source.count("+=") == 1
        fl.execute(prog)
        assert C.value == 81.0

    def test_spike_body_still_loops_when_nonzero(self):
        A = LoopletTensor(10, lambda ctx, pos: Spike(Literal(2.0),
                                                     Literal(7.0)),
                          name="A")
        prog, C = scalar_program(A)
        fl.execute(prog)
        assert C.value == 2.0 * 9 + 7.0


class TestSwitchLowering:
    """Switches: one if-else chain hoisted out, each case lowered."""

    def test_cases_hoisted_into_if_chain(self):
        A = LoopletTensor(10, lambda ctx, pos: Switch([
            Case(build.gt(Var("x"), 1), Run(Literal(1.0))),
            Case(Literal(True), Run(Literal(2.0))),
        ]), name="A")
        B = LoopletTensor(10, lambda ctx, pos: Switch([
            Case(build.gt(Var("y"), 1), Run(Literal(3.0))),
            Case(Literal(True), Run(Literal(4.0))),
        ]), name="B")
        prog, C = scalar_program(A, B)
        # x and y are free runtime variables; bind them as parameters.
        try:
            fl.compile_kernel(prog)
        except Exception:
            pass
        # The variables are unbound in this synthetic test; what matters
        # is the structure, so rebuild with literals instead.
        A2 = LoopletTensor(10, lambda ctx, pos: Switch([
            Case(build.gt(Literal(3), 1), Run(Literal(1.0))),
            Case(Literal(True), Run(Literal(2.0))),
        ]), name="A2")
        prog2, C2 = scalar_program(A2, B)
        source = compile_source(prog2)
        # A2's condition folds statically to true; B's stays runtime.
        assert "if y > 1:" in source
        assert "else:" in source

    def test_static_case_selected_at_compile_time(self):
        A = LoopletTensor(10, lambda ctx, pos: Switch([
            Case(Literal(False), Run(Literal(1.0))),
            Case(Literal(True), Run(Literal(5.0))),
        ]), name="A")
        prog, C = scalar_program(A)
        source = compile_source(prog)
        assert "if" not in source
        fl.execute(prog)
        assert C.value == 50.0


class TestPipelineLowering:
    """Pipelines: the extent splits at phase boundaries."""

    def test_phase_split_shapes(self):
        A = LoopletTensor(10, lambda ctx, pos: Pipeline([
            Phase(Run(Literal(1.0)), stride=Var("s_A")),
            Phase(Run(Literal(2.0))),
        ]), name="A")
        B = LoopletTensor(10, lambda ctx, pos: Pipeline([
            Phase(Run(Literal(3.0)), stride=Var("s_B")),
            Phase(Run(Literal(4.0))),
        ]), name="B")
        # Bind the strides through buffers so they are kernel inputs.
        s_a = np.array([4])
        s_b = np.array([7])

        def unfurl_a(ctx, pos):
            buf = ctx.buffer(s_a, "s_A")
            return Pipeline([
                Phase(Run(Literal(1.0)), stride=Load(buf, Literal(0))),
                Phase(Run(Literal(2.0))),
            ])

        def unfurl_b(ctx, pos):
            buf = ctx.buffer(s_b, "s_B")
            return Pipeline([
                Phase(Run(Literal(3.0)), stride=Load(buf, Literal(0))),
                Phase(Run(Literal(4.0))),
            ])

        A = LoopletTensor(10, unfurl_a, name="A")
        B = LoopletTensor(10, unfurl_b, name="B")
        prog, C = scalar_program(A, B)
        source = compile_source(prog)
        # Four phase-combination regions appear as min/max boundary
        # arithmetic (the paper's 1*3, 1*4, 2*3, 2*4 regions), printed
        # as conditional expressions: each first phase stops at its
        # stride clamped to the extent, B's inside A's at the nearer
        # of A's stop and its own stride.
        assert source.count(" < 10 else 10)") == 2
        assert "(_t1 if (_t1 := s_A[0]) < 10 else 10)" in source
        assert "(i_stop if i_stop < (_t1 := s_B[0]) else _t1)" in source
        assert "min(" not in source and "max(" not in source
        fl.execute(prog)
        # [0,4): 1*3, [4,7): 2*3, [7,10): 2*4.
        assert C.value == 4 * 3.0 + 3 * 6.0 + 3 * 8.0

    def test_empty_phase_guarded(self):
        s_zero = np.array([0])

        def unfurl(ctx, pos):
            buf = ctx.buffer(s_zero, "s")
            return Pipeline([
                Phase(Run(Literal(9.0)), stride=Load(buf, Literal(0))),
                Phase(Run(Literal(1.0))),
            ])

        A = LoopletTensor(10, unfurl, name="A")
        prog, C = scalar_program(A)
        fl.execute(prog)
        assert C.value == 10.0


class TestStepperLowering:
    """Steppers: a while loop taking the smallest stride each step."""

    def test_while_loop_with_min_stride(self):
        idx = np.array([2, 5, 9, 10], dtype=np.int64)
        val = np.array([1.0, 2.0, 3.0, 4.0])

        def unfurl(ctx, pos):
            idx_buf = ctx.buffer(idx, "idx")
            val_buf = ctx.buffer(val, "val")
            p = Var(ctx.freshen("p"))
            from repro.ir import asm, ops

            ctx.emit(asm.AssignStmt(p, Literal(0)))
            return Stepper(
                stride=build.plus(Load(idx_buf, p), 1),
                body=Run(Load(val_buf, p)),
                next=lambda ctx: [asm.AccumStmt(p, ops.ADD, 1)],
            )

        A = LoopletTensor(11, unfurl, name="A")
        C = fl.Scalar(name="C")
        i = fl.indices("i")
        prog = fl.forall(i, fl.increment(C[()], A[i]), ext=(0, 11))
        source = compile_source(prog)
        assert "while" in source
        # The step ends at the smaller of the stride and the extent.
        assert "i_stop = (i_stride if i_stride < 11 else 11)" in source
        assert "min(" not in source
        fl.execute(prog)
        # Runs: [0,3)=1, [3,6)=2, [6,10)=3, [10,11)=4.
        assert C.value == 3 * 1 + 3 * 2 + 4 * 3 + 1 * 4

    def test_two_steppers_merge(self):
        a = np.array([0, 1.0, 0, 2.0, 0, 0, 3.0, 0])
        b = np.array([0, 4.0, 0, 0, 5.0, 0, 6.0, 0])
        A = fl.from_numpy(a, ("sparse",), name="A")
        B = fl.from_numpy(b, ("sparse",), name="B")
        C = fl.Scalar(name="C")
        i = fl.indices("i")
        prog = fl.forall(i, fl.increment(C[()], A[i] * B[i]))
        source = compile_source(prog)
        assert "while" in source
        # Guarded advancement of both cursors (p += stride == idx[p]).
        assert source.count("+= 1") >= 2
        fl.execute(prog)
        assert C.value == pytest.approx(1 * 4 + 3 * 6)


class TestJumperLowering:
    """Jumpers: the while loop takes the largest stride (galloping)."""

    def test_max_stride_in_emitted_code(self):
        a = np.zeros(50)
        a[[10, 40]] = 1.0
        b = np.zeros(50)
        b[::2] = 2.0
        A = fl.from_numpy(a, ("sparse",), name="A")
        B = fl.from_numpy(b, ("sparse",), name="B")
        C = fl.Scalar(name="C")
        i = fl.indices("i")
        prog = fl.forall(i, fl.increment(
            C[()], fl.access(A, fl.gallop(i)) * fl.access(B, fl.gallop(i))))
        source = compile_source(prog)
        # The merged step takes the larger of the two strides, then
        # the nearer of that and the region's stop.
        assert "(i_stride_2 if i_stride_2 > i_stride else i_stride)" \
            in source
        assert "max(" not in source and "min(" not in source
        assert "search_ge(" in source
        fl.execute(prog)
        assert C.value == pytest.approx(float(a @ b))
