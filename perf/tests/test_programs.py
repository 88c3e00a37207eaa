"""The benchmark measures the paper's kernels, against references
the compiler did not produce."""

import numpy as np
import pytest

import programs as P
import repro.lang as fl
from repro.baselines.reference import interpret
from repro.bench import figures
from repro.cin.analyze import structural_key

REGISTRY = {figure.split("_")[0]: make
            for figure, _, make, _ in figures.warm_start_programs()}


@pytest.mark.parametrize("fig", P.FIGS)
def test_builder_matches_the_aot_registry(fig):
    """Same structural key as ``warm_start_programs()``: what the
    benchmark compiles is what the AOT pack ships."""
    program, _ = P.build(fig, P.ingest(fig, P.raw_inputs(fig, 5)))
    assert structural_key(program) == structural_key(REGISTRY[fig]())


@pytest.mark.parametrize("fig", P.FIGS + ("dot64",))
def test_seed_changes_values_not_structure(fig):
    one, two = P.raw_inputs(fig, 1), P.raw_inputs(fig, 2)
    again = P.raw_inputs(fig, 1)
    changed = False
    for role in one:
        assert np.array_equal(one[role], again[role])
        assert one[role].shape == two[role].shape
        assert np.array_equal(one[role] != 0, two[role] != 0)
        changed = changed or not np.array_equal(one[role], two[role])
    assert changed


@pytest.mark.parametrize("fig", P.FIGS + ("dot64",))
def test_kernel_matches_the_numpy_reference(fig):
    raw = P.raw_inputs(fig, 3)
    program, output = P.build(fig, P.ingest(fig, raw))
    fl.compile_kernel(program, cache=False).run()
    assert P.matches(fig, P.value_of(output), P.reference(fig, raw))


@pytest.mark.parametrize("fig", ("fig1", "fig7", "fig9", "fig11",
                                 "dot64"))
def test_numpy_reference_matches_the_interpreter(fig):
    """The run-time gate compares with numpy because the reference
    interpreter takes seconds to minutes on these sizes; here, once,
    the numpy references are themselves held to the interpreter
    (fig8 would take minutes; fig10's builder output it cannot
    represent)."""
    raw = P.raw_inputs(fig, 4)
    program, output = P.build(fig, P.ingest(fig, raw))
    expected = interpret(program).result_for(output)
    assert P.matches(fig, P.reference(fig, raw), expected)


def test_matches_refuses_a_wrong_output():
    raw = P.raw_inputs("fig7", 3)
    expected = P.reference("fig7", raw)
    wrong = expected.copy()
    wrong[0] += 1e-6
    assert P.matches("fig7", expected.copy(), expected)
    assert not P.matches("fig7", wrong, expected)
    assert not P.matches("fig7", expected[:-1], expected)
