"""The namespace emitted kernels execute in, and the entry point both
backends are called through.

Compiled kernels are executed with :func:`kernel_globals` as their
namespace: the runtime callable of every registered op that prints as a
call (:func:`repro.ir.pretty.prints_as_call`; ``min``, ``max``,
``coalesce``, ``ifelse`` and ``round_u8`` print as conditional
expressions), numpy as ``_np`` for slice operations, and
``_inf``/``_nan``, which is how the printer spells the non-finite float
literals.  Every helper bound here
takes Python and numpy scalars alike, and the search helpers an index
buffer that is an ndarray or an element view of one.

The namespace is assembled once — a snapshot of the op registry — and
cheaply copied per ``exec``; late-registered ops invalidate the
snapshot via the registry's version counter instead of forcing a full
rebuild on every compile.

:func:`make_entry` is what a kernel is called through, on either
backend: ``entry(*args)`` takes the ndarrays a binding resolves to, and
``entry.prepare(args)`` the zero-argument call a bind-plan entry keeps.
Both marshal the binding — a python kernel's element views
(:func:`python_entry`), a C kernel's pointer array
(:func:`repro.codegen.toolchain.make_entry`) — and memoize nothing.
"""

import functools
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


def make_entry(invoke, marshal, name):
    """A kernel entry point: ``entry(*args)`` is ``invoke(*marshal(args))``
    and ``entry.prepare(args)`` that call with ``marshal(args)`` bound.

    ``marshal`` turns one binding's arguments into ``invoke``'s; each
    result must hold references to the arguments, as does the prepared
    call.  Nothing is memoized here: ``entry(*args)`` marshals on every
    call and keeps nothing once it returns, and a prepared call is kept
    by the bind-plan entry it was made for
    (:class:`repro.compiler.kernel.PlanEntry`).
    """
    def prepare(args):
        return functools.partial(invoke, *marshal(args))

    def entry(*args):
        return invoke(*marshal(args))

    entry.__name__ = name
    entry.prepare = prepare
    return entry


def python_entry(fn, views):
    """The entry of the exec'd python kernel ``fn``: each parameter
    named in ``views`` (:func:`repro.ir.dtypes.viewable`) is handed to
    it as an element view of its ndarray, so its loads and stores are
    Python scalars; the rest as they are."""
    code = fn.__code__
    params = code.co_varnames[:code.co_argcount]
    viewed = [pos for pos, name in enumerate(params) if name in views]

    def marshal(args):
        args = list(args)
        if len(args) == len(params):    # else calling ``fn`` raises
            for pos in viewed:
                args[pos] = memoryview(args[pos])
        return args

    return make_entry(fn, marshal, fn.__name__)
