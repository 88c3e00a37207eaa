"""The frozen ``CompileOptions`` bundle and its sugar-kwarg contract.

One immutable value replaces the parallel kwarg sprawl; the individual
kwargs survive as sugar that overrides single fields.  These tests pin
the validation, the merge semantics (None keeps, ``False`` is a real
override), and that ``compile_kernel(options=...)`` and the sugar
spelling are the same call.
"""

import dataclasses

import numpy as np
import pytest

import repro.lang as fl
from repro.compiler.kernel import kernel_cache
from repro.compiler.options import (
    BACKENDS,
    CACHE_MODES,
    TUNE_MODES,
    CompileOptions,
)
from repro.util import config


@pytest.fixture(autouse=True)
def clean_cache():
    kernel_cache().clear()
    yield
    kernel_cache().clear()


def dot_program(n=40, seed=0):
    rng = np.random.default_rng(seed)
    a = np.zeros(n)
    a[rng.choice(n, 5, replace=False)] = 1.0
    A = fl.from_numpy(a, ("sparse",), name="A")
    B = fl.from_numpy(rng.random(n), ("dense",), name="B")
    C = fl.Scalar(name="C")
    i = fl.indices("i")
    return fl.forall(i, fl.increment(C[()], A[i] * B[i]))


def test_defaults_are_all_unresolved():
    opts = CompileOptions()
    assert opts.to_dict() == {"cache": None, "opt_level": None,
                              "backend": None, "tune": None,
                              "remote": None, "store": None}


def test_frozen_and_hashable():
    opts = CompileOptions(backend="c")
    with pytest.raises(dataclasses.FrozenInstanceError):
        opts.backend = "python"
    assert opts == CompileOptions(backend="c")
    assert hash(opts) == hash(CompileOptions(backend="c"))


def test_validation_at_construction():
    with pytest.raises(ValueError, match="cache must be"):
        CompileOptions(cache="both")
    with pytest.raises(ValueError, match="backend must be"):
        CompileOptions(backend="rust")
    with pytest.raises(ValueError, match="tune must be"):
        CompileOptions(tune="always")
    for mode in CACHE_MODES:
        CompileOptions(cache=mode)
    for backend in BACKENDS:
        CompileOptions(backend=backend)
    for tune in TUNE_MODES:
        CompileOptions(tune=tune)


def test_cache_one_is_not_true():
    # `1 in (True, ...)` passes by equality; the identity check must
    # reject it so integer 1 never silently impersonates cache=True.
    with pytest.raises(ValueError, match="cache must be"):
        CompileOptions(cache=1)


#: Each was once compiled and reported as a level of its own (``2.7``
#: as 2, ``True`` as 1), taking a cache slot, a store entry and a
#: tuning candidate for a kernel identical to level 0 or 2.
BAD_LEVELS = [7, -1, 2.7, True, 9]
LEVELS_ERROR = "opt_level must be one of 0/1/2"


def test_opt_level_is_exactly_0_1_or_2():
    assert CompileOptions(opt_level="2").opt_level == 2  # env spelling
    for level in (0, 1, 2):
        assert CompileOptions(opt_level=level).opt_level == level
    for level in BAD_LEVELS + [1.0, False, "one"]:
        with pytest.raises(ValueError, match=LEVELS_ERROR):
            CompileOptions(opt_level=level)


@pytest.mark.parametrize("level", BAD_LEVELS)
def test_bad_opt_level_refused_as_kwarg(level):
    with pytest.raises(ValueError, match=LEVELS_ERROR):
        fl.compile_kernel(dot_program(), cache=False, opt_level=level)


@pytest.mark.parametrize("level", BAD_LEVELS)
def test_bad_opt_level_refused_by_configure(level):
    try:
        with pytest.raises(ValueError, match=LEVELS_ERROR):
            fl.configure(opt_level=level)
        assert config.source("opt_level") == "default"
    finally:
        config.clear("opt_level")


@pytest.mark.parametrize("level", BAD_LEVELS)
def test_bad_opt_level_refused_from_env(monkeypatch, level):
    monkeypatch.setenv("FL_KERNEL_OPT_LEVEL", str(level))
    with pytest.raises(ValueError, match=LEVELS_ERROR):
        fl.compile_kernel(dot_program(), cache=False)


@pytest.mark.parametrize("level", [0, 1, 2])
def test_every_level_resolves_through_every_layer(monkeypatch, level):
    assert fl.compile_kernel(dot_program(), cache=False,
                             opt_level=level).opt_level == level
    monkeypatch.setenv("FL_KERNEL_OPT_LEVEL", str(level))
    assert fl.compile_kernel(dot_program(), cache=False).opt_level \
        == level
    try:
        fl.configure(opt_level=level)
        monkeypatch.delenv("FL_KERNEL_OPT_LEVEL")
        assert fl.compile_kernel(dot_program(),
                                 cache=False).opt_level == level
    finally:
        config.clear("opt_level")


def test_merged_none_keeps_false_overrides():
    opts = CompileOptions(cache=True, backend="c",
                          remote="http://fleet:1")
    assert opts.merged() is opts
    assert opts.merged(backend=None) is opts
    kept = opts.merged(opt_level=1)
    assert kept.backend == "c" and kept.opt_level == 1
    # False is a value, not "keep": it must win the merge.
    assert opts.merged(cache=False).cache is False
    assert opts.merged(remote=False).remote is False


def test_build_sugar_over_options():
    base = CompileOptions(backend="c", opt_level=1)
    merged = CompileOptions.build(base, opt_level=2)
    assert merged.opt_level == 2 and merged.backend == "c"
    assert CompileOptions.build(None).to_dict() == \
        CompileOptions().to_dict()
    with pytest.raises(TypeError, match="CompileOptions"):
        CompileOptions.build({"backend": "c"})


def test_compile_kernel_accepts_options():
    kernel = fl.compile_kernel(
        dot_program(), options=CompileOptions(cache="memory",
                                              opt_level=1))
    assert kernel.opt_level == 1
    # Sugar alongside options= overrides that one field.
    kernel2 = fl.compile_kernel(
        dot_program(seed=1), opt_level=0,
        options=CompileOptions(cache="memory", opt_level=1))
    assert kernel2.opt_level == 0


def test_options_and_sugar_are_the_same_call():
    sugar = fl.compile_kernel(dot_program(), cache="memory",
                              opt_level=1)
    bundled = fl.compile_kernel(
        dot_program(seed=1),
        options=CompileOptions(cache="memory", opt_level=1))
    # The second compile hit the cache slot the first one filled:
    # identical effective configuration, identical cache key.
    assert bundled.from_cache
    assert sugar.opt_level == bundled.opt_level


def test_execute_and_run_batch_take_options():
    program = dot_program()
    fl.execute(program, options=CompileOptions(cache="memory",
                                               opt_level=1))
    from repro.cin.analyze import program_tensors

    result = fl.run_batch(
        dot_program(seed=2), [program_tensors(dot_program(seed=2))],
        executor="serial",
        options=CompileOptions(cache="memory", opt_level=1))
    assert len(result.items) == 1


def test_exported_from_lang():
    assert fl.CompileOptions is CompileOptions
