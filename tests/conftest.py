"""Shared test configuration: Hypothesis profiles and deadline policy.

Two registered profiles, selected with ``HYPOTHESIS_PROFILE``:

``ci`` (the default)
    Full example counts, no deadline.  Compiled-kernel properties
    pay a per-example compile cost that varies wildly with machine
    load, so wall-clock deadlines only produce flaky failures —
    the deadline policy for this suite is *none*, centrally.

``dev``
    Capped example counts for fast local iteration:
    ``HYPOTHESIS_PROFILE=dev python -m pytest tests/properties``.

Shared data strategies live in :mod:`repro.fuzz.strategies` (they are
import-order-sensitive test *code*, not configuration) and are
imported from there by every ``tests/properties/`` module.
"""

import os

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci",
    deadline=None,
    suppress_health_check=(HealthCheck.too_slow,),
)
settings.register_profile(
    "dev",
    deadline=None,
    max_examples=20,
    suppress_health_check=(HealthCheck.too_slow,),
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))


@pytest.fixture
def temp_op():
    """``temp_op(Op(...))`` registers an operator for one test and
    unregisters it afterwards, refreshing the registry version so the
    cached kernel namespace drops its name."""
    from repro.ir import ops

    names = []

    def register(op):
        names.append(op.name)
        return ops.register_op(op)

    yield register
    ops.register_op(ops.Op("_bump", lambda a: a))  # move the version on
    for name in names + ["_bump"]:
        ops._REGISTRY.pop(name, None)
