"""A compile is asked for with keyword arguments only.

``opt_level`` and ``backend`` are validated where they
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


def test_backend_validated_as_kwarg():
    with pytest.raises(ValueError, match="backend must be one of"):
        fl.compile_kernel(dot_program(), cache=False, backend="rust")
    # A program compiles with the protocols it spells: no tune keyword.
    with pytest.raises(TypeError, match="tune"):
        fl.compile_kernel(dot_program(), cache=False, tune="apply")


#: Each was once compiled and reported as a level of its own (``2.7``
#: as 2, ``True`` as 1), taking a cache slot and a store entry for a
#: kernel identical to another level's; 1 (hoisting without
#: vectorizing) is no level since C prints the unvectorized tree, and
#: neither are its other spellings (``1.0``, and ``False``, which equals
#: 0 but is no level either).
BAD_LEVELS = [7, -1, 2.7, True, 9, 1, 1.0, False, "one"]
LEVELS_ERROR = "opt_level must be one of 0/2"


def test_opt_level_takes_the_env_spelling():
    assert fl.compile_kernel(dot_program(), cache=False,
                             opt_level="2").opt_level == 2


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


@pytest.mark.parametrize("level", config.OPT_LEVELS)
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
    fl.execute(dot_program(), opt_level=0)
    result = fl.run_batch(
        dot_program(seed=2), [program_tensors(dot_program(seed=3))],
        executor="serial", opt_level=0)
    assert len(result.items) == 1
    # Both compiled into the one level-0 slot a third compile now hits.
    assert fl.compile_kernel(dot_program(seed=1), opt_level=0,
                             store=False, remote=False).from_cache
    assert kernel_cache().stats()["misses"] == 1
