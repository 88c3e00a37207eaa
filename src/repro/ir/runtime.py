"""The namespace emitted kernels execute in.

Compiled kernels are executed with :func:`kernel_globals` as their
namespace: the runtime callable of every registered op that prints as a
call (:func:`repro.ir.pretty.prints_as_call`; ``min``, ``max``,
``coalesce``, ``ifelse`` and ``round_u8`` print as conditional
expressions), numpy as ``_np`` for slice operations, and
``_inf``/``_nan``, which is how the printer spells the non-finite float
literals.  Every helper bound here
takes Python and numpy scalars alike, and the search helpers an index
buffer that is an ndarray or the element view a kernel took of one
(:func:`repro.ir.emit.scalar_views`).

The namespace is assembled once — a snapshot of the op registry — and
cheaply copied per ``exec``; late-registered ops invalidate the
snapshot via the registry's version counter instead of forcing a full
rebuild on every compile.
"""

import math

import numpy as np

from repro.ir.emit import BUILTINS
from repro.ir.ops import all_ops, registry_version
from repro.ir.pretty import prints_as_call

_BASE_CACHE = {"version": None, "env": None}


def _base_globals():
    version = registry_version()
    if _BASE_CACHE["version"] != version:
        env = {op.runtime_name: op.runtime for op in all_ops().values()
               if prints_as_call(op)}
        env.update(_np=np, _inf=math.inf, _nan=math.nan)
        # env before version: a concurrent reader that sees the new
        # version must also see the matching snapshot.
        _BASE_CACHE["env"] = env
        _BASE_CACHE["version"] = version
    return _BASE_CACHE["env"]


def kernel_globals():
    """Fresh namespace for ``exec``-ing one emitted kernel."""
    return dict(_base_globals())


def reserved_names():
    """Every name emitted code resolves outside its own locals (the
    kernel namespace and the builtins the printer calls); compiler
    temps must avoid them all."""
    return set(_base_globals()).union(BUILTINS)
