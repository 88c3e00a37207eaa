"""Shift looplets.

The paper's ``Shift(delta, body)`` wraps a looplet and translates all of
its declared extents by ``delta`` (extents are absolute, so affine index
modifiers need it).  As Section 6.1 notes, shifts need no dedicated
compiler pass; we distribute them into child looplets eagerly, so no
``Shift`` node ever reaches the lowerer:

* strides and phase boundaries gain ``+ delta``;
* ``seek`` and ``Lookup`` bodies see indices translated by ``- delta``;
* runs, spikes and scalar payloads are position-independent and pass
  through unchanged.
"""

from repro.ir.nodes import Extent, Literal, as_expr
from repro.ir import build
from repro.looplets.base import is_looplet
from repro.looplets.coiter import Jumper, Stepper
from repro.looplets.core import (Case, Lookup, Phase, Pipeline, Run,
                                 Simplify, Spike, Switch)
from repro.util.errors import LoweringError


def shift_extent(ext, delta):
    """Translate an extent by ``-delta`` (into the child's coordinates)."""
    return Extent(build.minus(ext.start, delta), build.minus(ext.stop, delta))


def shift_looplet(value, delta):
    """Translate every declared extent of ``value`` by ``+delta``."""
    delta = as_expr(delta)
    if isinstance(delta, Literal) and delta.value == 0:
        return value
    if not is_looplet(value):
        return value
    if isinstance(value, Simplify):
        return Simplify(shift_looplet(value.body, delta))
    if isinstance(value, Run):
        return value
    if isinstance(value, Spike):
        return value
    if isinstance(value, Lookup):
        return _shift_lookup(value, delta)
    if isinstance(value, Switch):
        cases = [Case(case.cond, shift_looplet(case.body, delta))
                 for case in value.cases]
        return Switch(cases)
    if isinstance(value, Pipeline):
        return Pipeline([_shift_phase(phase, delta)
                         for phase in value.phases])
    if isinstance(value, Stepper):
        return _shift_coiter(Stepper, value, delta)
    if isinstance(value, Jumper):
        return _shift_coiter(Jumper, value, delta)
    raise LoweringError("cannot shift looplet %r" % (value,))


def _shift_lookup(lookup, delta):
    def body(index):
        return shift_looplet(lookup.body(build.minus(index, delta)), delta)

    return Lookup(body)


def _shift_body(body, delta):
    if callable(body) and not is_looplet(body):
        def shifted(ctx, ext):
            from repro.looplets.base import call_body

            return shift_looplet(call_body(body, ctx, shift_extent(ext, delta)),
                                 delta)

        return shifted
    return shift_looplet(body, delta)


def _shift_phase(phase, delta):
    stride = None if phase.stride is None else build.plus(phase.stride, delta)
    return Phase(_shift_body(phase.body, delta), stride=stride)


def _shift_coiter(cls, looplet, delta):
    def seek(ctx, start):
        return looplet.seek(ctx, build.minus(start, delta))

    return cls(
        stride=build.plus(looplet.stride, delta),
        body=_shift_body(looplet.body, delta),
        seek=seek,
        next=looplet.next,
        preamble=looplet.preamble,
        fill=looplet.fill,
        stop=None if looplet.stop is None else build.plus(looplet.stop,
                                                          delta),
    )
