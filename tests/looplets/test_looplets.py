"""Unit tests for looplet nodes, styles, shifting, and truncation."""

import pytest

from repro.ir import Extent, Literal, Var, build
from repro.looplets import (
    Case,
    Jumper,
    Lookup,
    Phase,
    Pipeline,
    Run,
    Spike,
    Stepper,
    Style,
    Switch,
    resolve_style,
    shift_looplet,
    style_of,
    truncate,
)
from repro.util.errors import LoweringError


class TestStyles:
    def test_priority_order_matches_paper(self):
        # Switch > Run > Spike > Pipeline > Jumper > Stepper > Lookup
        order = [Style.SWITCH, Style.RUN, Style.SPIKE, Style.PIPELINE,
                 Style.JUMPER, Style.STEPPER, Style.LOOKUP, Style.SCALAR]
        assert order == sorted(order, reverse=True)

    def test_scalar_payload_has_bottom_style(self):
        assert style_of(Literal(3)) == Style.SCALAR

    def test_resolve_picks_highest(self):
        values = [Run(Literal(0)),
                  Stepper(stride=Var("s"), body=Run(Literal(1))),
                  Literal(2)]
        assert resolve_style(values) == Style.RUN

    def test_resolve_empty_is_scalar(self):
        assert resolve_style([]) == Style.SCALAR

    def test_jumper_beats_stepper(self):
        values = [Jumper(stride=Var("a"), body=Run(Literal(0))),
                  Stepper(stride=Var("b"), body=Run(Literal(0)))]
        assert resolve_style(values) == Style.JUMPER


class TestConstruction:
    def test_lookup_requires_callable(self):
        with pytest.raises(LoweringError):
            Lookup(42)

    def test_switch_requires_cases(self):
        with pytest.raises(LoweringError):
            Switch([])

    def test_pipeline_interior_phase_needs_stride(self):
        with pytest.raises(LoweringError):
            Pipeline([Phase(Run(Literal(0))), Phase(Run(Literal(1)))])

    def test_pipeline_final_phase_open(self):
        pipe = Pipeline([Phase(Run(Literal(0)), stride=Var("s")),
                         Phase(Run(Literal(1)))])
        assert pipe.phases[0].stride == Var("s")
        assert pipe.phases[1].stride is None


class TestTruncate:
    def test_run_self_similar(self):
        run = Run(Var("x"))
        out = truncate(run, Extent(0, 3), Extent(0, 10))
        assert out is run

    def test_spike_with_tail_kept_statically(self):
        spike = Spike(Literal(0), Var("tail"))
        ext = Extent(Var("a", integral=True), Var("b", integral=True))
        assert truncate(spike, ext, ext) is spike

    def test_spike_truncated_to_interior_becomes_run(self):
        spike = Spike(Literal(0), Var("tail"))
        out = truncate(spike, Extent(0, 5), Extent(0, 9))
        assert isinstance(out, Run)
        assert out.body == Literal(0)

    def test_spike_with_runtime_boundary_becomes_switch(self):
        spike = Spike(Literal(0), Var("tail"))
        out = truncate(spike, Extent(Var("s"), Var("p")),
                       Extent(Var("s"), Var("q")))
        assert isinstance(out, Switch)
        kept, dropped = out.cases
        assert kept.cond == build.eq(Var("p"), Var("q"))
        assert isinstance(kept.body, Spike)
        assert isinstance(dropped.body, Run)

    def test_switch_truncates_through_cases(self):
        switch = Switch([Case(Var("c"), Spike(Literal(0), Var("t")))])
        out = truncate(switch, Extent(0, 4), Extent(0, 9))
        assert isinstance(out.cases[0].body, Run)

    def test_stepper_passes_through(self):
        stepper = Stepper(stride=Var("s"), body=Run(Literal(0)))
        assert truncate(stepper, Extent(0, 3), Extent(0, 9)) is stepper

    def test_payload_passes_through(self):
        assert truncate(Var("x"), Extent(0, 1), Extent(0, 2)) == Var("x")


class TestShift:
    def test_zero_shift_is_identity(self):
        run = Run(Var("x"))
        assert shift_looplet(run, 0) is run

    def test_run_position_independent(self):
        run = Run(Var("x"))
        assert shift_looplet(run, Var("d")) is run

    def test_lookup_translates_index(self):
        lookup = Lookup(lambda j: build.plus(j, 100))
        shifted = shift_looplet(lookup, Literal(10))
        # Element at absolute index 15 is the child's element 5.
        assert shifted.body(Literal(15)) == Literal(105)

    def test_pipeline_strides_translate(self):
        pipe = Pipeline([Phase(Run(Literal(0)), stride=Literal(4)),
                         Phase(Run(Literal(1)))])
        shifted = shift_looplet(pipe, Literal(3))
        assert shifted.phases[0].stride == Literal(7)
        assert shifted.phases[1].stride is None

    def test_stepper_stride_and_seek_translate(self):
        seen = {}

        def seek(ctx, start):
            seen["start"] = start
            return []

        stepper = Stepper(stride=Var("s"), body=Run(Literal(0)), seek=seek)
        shifted = shift_looplet(stepper, Literal(5))
        assert shifted.stride == build.plus(Var("s"), 5)
        shifted.seek(None, Literal(12))
        assert seen["start"] == Literal(7)

    def test_switch_shifts_bodies_not_conditions(self):
        lookup = Lookup(lambda j: j)
        switch = Switch([Case(Var("c"), lookup)])
        shifted = shift_looplet(switch, Literal(2))
        assert shifted.cases[0].cond == Var("c")
        assert shifted.cases[0].body.body(Literal(9)) == Literal(7)

    def test_nested_shift_composes(self):
        lookup = Lookup(lambda j: j)
        shifted = shift_looplet(shift_looplet(lookup, Literal(2)), Literal(3))
        assert shifted.body(Literal(10)) == Literal(5)


class TestSimplifyLooplet:
    def test_style_outranks_everything(self):
        from repro.looplets import Simplify

        assert Simplify(Run(Literal(0.0))).style() == Style.SIMPLIFY
        assert Style.SIMPLIFY > Style.SWITCH

    def test_shift_passes_through(self):
        from repro.looplets import Simplify

        lookup = Lookup(lambda j: j)
        shifted = shift_looplet(Simplify(lookup), Literal(3))
        assert isinstance(shifted, Simplify)
        assert shifted.body.body(Literal(10)) == Literal(7)

    def test_truncate_passes_through(self):
        from repro.looplets import Simplify

        spike = Spike(Literal(0), Var("t"))
        out = truncate(Simplify(spike), Extent(0, 4), Extent(0, 9))
        assert isinstance(out, Simplify)
        assert isinstance(out.body, Run)

    def test_compiles_transparently(self):
        import repro.lang as fl
        from repro.formats.custom import LoopletTensor
        from repro.looplets import Simplify

        A = LoopletTensor(6, lambda ctx, pos: Simplify(Run(Literal(3.0))),
                          name="A")
        C = fl.Scalar(name="C")
        i = fl.indices("i")
        fl.execute(fl.forall(i, fl.increment(C[()], A[i])))
        assert C.value == 18.0
