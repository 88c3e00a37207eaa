"""Edge cases of the shift/truncate looplet combinators.

``offset`` lowers through :func:`repro.looplets.shift.shift_looplet`
and ``window`` through :func:`repro.looplets.truncate.truncate`; these
tests pin their boundary behavior — zero-length ranges, shifts past
either end of the data, and the nested shift-of-truncate composition —
against the reference interpreter on every format that stores the
data differently.
"""

import numpy as np
import pytest

import repro.lang as fl
from repro.baselines.reference import interpret
from repro.formats import format_names
from repro.ir.nodes import Extent, Literal
from repro.looplets.core import Run, Spike, Switch
from repro.looplets.shift import shift_extent, shift_looplet
from repro.looplets.truncate import truncate

FORMATS = format_names()

#: Structured data: leading/trailing zeros, runs, and a lone spike.
DATA = np.array([0.0, 3.0, 3.0, 0.0, 0.0, 2.0, 0.0, 0.0, 5.0])
N = len(DATA)


def _check(program, output):
    expected = np.asarray(interpret(program).result_for(output))
    fl.execute(program, cache=False)
    got = np.asarray(output.to_numpy())
    np.testing.assert_array_equal(got, expected)
    return got


class TestZeroLengthRanges:
    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("k", [0, 4, N])
    def test_empty_window_touches_nothing(self, fmt, k):
        A = fl.from_numpy(DATA, (fmt,), name="A")
        S = fl.Scalar(name="S")
        i = fl.indices("i")
        program = fl.forall(i, fl.increment(
            S[()], fl.access(A, fl.window(i, k, k))), ext=(0, 0))
        got = _check(program, S)
        assert got == 0.0

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_empty_explicit_extent(self, fmt):
        A = fl.from_numpy(DATA, (fmt,), name="A")
        out = fl.zeros(N, name="out")
        i = fl.indices("i")
        program = fl.forall(i, fl.store(out[i], A[i]), ext=(3, 3))
        got = _check(program, out)
        np.testing.assert_array_equal(got, np.zeros(N))


class TestShiftsPastEitherEnd:
    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("delta", [N, N + 3, -N, -N - 3])
    def test_offset_past_the_data_yields_all_fill(self, fmt, delta):
        A = fl.from_numpy(DATA, (fmt,), name="A")
        out = fl.zeros(N, name="out")
        i = fl.indices("i")
        program = fl.forall(i, fl.store(out[i], fl.coalesce(
            fl.access(A, fl.permit(fl.offset(i, delta))), 0.0)))
        got = _check(program, out)
        np.testing.assert_array_equal(got, np.zeros(N))

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("delta", [N - 1, 1 - N])
    def test_offset_to_the_last_overlap_element(self, fmt, delta):
        A = fl.from_numpy(DATA, (fmt,), name="A")
        out = fl.zeros(N, name="out")
        i = fl.indices("i")
        program = fl.forall(i, fl.store(out[i], fl.coalesce(
            fl.access(A, fl.permit(fl.offset(i, delta))), 0.0)))
        got = _check(program, out)
        # Exactly one element survives the shift.
        expected = np.zeros(N)
        if delta > 0:
            expected[delta:] = DATA[:N - delta]
        else:
            expected[:N + delta] = DATA[-delta:]
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_exact_extent_offset_without_permit(self, fmt):
        delta = 4
        A = fl.from_numpy(DATA, (fmt,), name="A")
        S = fl.Scalar(name="S")
        i = fl.indices("i")
        program = fl.forall(i, fl.increment(
            S[()], fl.access(A, fl.offset(i, delta))),
            ext=(delta, N))
        got = _check(program, S)
        assert float(got) == float(DATA[:N - delta].sum())


class TestNestedShiftOfTruncate:
    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("lo,hi,delta", [
        (1, 6, 2), (1, 6, -2), (0, N, 3), (2, 2, 1), (5, 9, 0),
    ])
    def test_offset_of_window_matches_interpreter(self, fmt, lo, hi,
                                                  delta):
        """offset(window(i, lo, hi), d): a truncation whose looplet is
        then shifted — both combinators compose on one access."""
        A = fl.from_numpy(DATA, (fmt,), name="A")
        S = fl.Scalar(name="S")
        i = fl.indices("i")
        ext_lo = max(0, delta - lo)
        ext_hi = max(ext_lo, min(hi - lo, N + delta - lo))
        program = fl.forall(i, fl.increment(
            S[()], fl.access(A, fl.offset(fl.window(i, lo, hi),
                                          delta))),
            ext=(ext_lo, ext_hi))
        got = _check(program, S)
        # The window clips to [lo, hi); the offset shifts reads by
        # -delta, so the loop visits window positions [ext_lo, ext_hi)
        # reading coordinates lo + i - delta.
        coords = [lo + k - delta for k in range(ext_lo, ext_hi)]
        assert float(got) == float(sum(DATA[c] for c in coords))

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_window_of_full_width_is_identity(self, fmt):
        A = fl.from_numpy(DATA, (fmt,), name="A")
        out = fl.zeros(N, name="out")
        i = fl.indices("i")
        program = fl.forall(i, fl.store(out[i], fl.access(
            A, fl.window(i, 0, N))), ext=(0, N))
        got = _check(program, out)
        np.testing.assert_array_equal(got, DATA)


class TestCombinatorUnits:
    """Direct unit behavior of the combinator functions."""

    def test_shift_by_zero_is_identity(self):
        run = Run(Literal(1.0))
        assert shift_looplet(run, 0) is run
        spike = Spike(Literal(0.0), Literal(2.0))
        assert shift_looplet(spike, 0) is spike

    def test_shift_extent_translates_into_child_coordinates(self):
        ext = shift_extent(Extent(Literal(3), Literal(7)), Literal(2))
        from repro.rewrite import simplify_expr

        assert simplify_expr(ext.start) == Literal(1)
        assert simplify_expr(ext.stop) == Literal(5)

    def test_truncate_excluding_tail_turns_spike_into_run(self):
        spike = Spike(Literal(0.0), Literal(9.0))
        result = truncate(spike, Extent(Literal(0), Literal(3)),
                          Extent(Literal(0), Literal(5)))
        assert isinstance(result, Run)
        assert result.body == Literal(0.0)

    def test_truncate_keeping_tail_preserves_spike(self):
        spike = Spike(Literal(0.0), Literal(9.0))
        result = truncate(spike, Extent(Literal(2), Literal(5)),
                          Extent(Literal(0), Literal(5)))
        assert result is spike

    def test_runtime_tail_decision_becomes_a_switch(self):
        from repro.ir.nodes import Var

        spike = Spike(Literal(0.0), Literal(9.0))
        result = truncate(spike, Extent(Literal(0), Var("t")),
                          Extent(Literal(0), Literal(5)))
        assert isinstance(result, Switch)
        assert len(result.cases) == 2
        assert isinstance(result.cases[1].body, Run)

    def test_truncated_run_stays_a_run(self):
        run = Run(Literal(4.0))
        result = truncate(run, Extent(Literal(0), Literal(2)),
                          Extent(Literal(0), Literal(6)))
        assert result is run
