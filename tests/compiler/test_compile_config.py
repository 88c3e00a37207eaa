"""A compile is asked for with keyword arguments only.

``opt_level``, ``backend`` and ``tune`` are validated where they
resolve (:mod:`repro.util.config`), whichever layer sets them: the
keyword argument, ``fl.configure`` or the ``FL_*`` environment.
``execute`` and ``run_batch`` pass theirs through to
``compile_kernel``.
"""

import numpy as np
import pytest

import repro.lang as fl
from repro.cin.analyze import program_tensors
from repro.compiler.kernel import kernel_cache
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


def test_backend_and_tune_validated_as_kwargs():
    with pytest.raises(ValueError, match="backend must be one of"):
        fl.compile_kernel(dot_program(), cache=False, backend="rust")
    with pytest.raises(ValueError, match="tune must be one of"):
        fl.compile_kernel(dot_program(), cache=False, tune="always")


#: Each was once compiled and reported as a level of its own (``2.7``
#: as 2, ``True`` as 1), taking a cache slot, a store entry and a
#: tuning candidate for a kernel identical to level 0 or 2.
BAD_LEVELS = [7, -1, 2.7, True, 9]
LEVELS_ERROR = "opt_level must be one of 0/1/2"


def test_opt_level_takes_the_env_spelling():
    assert fl.compile_kernel(dot_program(), cache=False,
                             opt_level="2").opt_level == 2


@pytest.mark.parametrize("level", BAD_LEVELS + [1.0, False, "one"])
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


def test_execute_and_run_batch_pass_their_kwargs_through():
    fl.execute(dot_program(), opt_level=1)
    result = fl.run_batch(
        dot_program(seed=2), [program_tensors(dot_program(seed=3))],
        executor="serial", opt_level=1)
    assert len(result.items) == 1
    # Both compiled into the one level-1 slot a third compile now hits.
    assert fl.compile_kernel(dot_program(seed=1), opt_level=1,
                             store=False, remote=False).from_cache
    assert kernel_cache().stats()["misses"] == 1
