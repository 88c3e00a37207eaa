"""Deliberately injectable bugs: the conformance engine's self-test.

A fuzzer that has never caught anything proves nothing.  This module
carries a registry of *named* bugs — each a small, realistic
miscompilation patched into a live compiler seam — so tests and the
CLI (``python -m repro.fuzz --inject NAME``) can demonstrate the whole
catch-shrink-persist pipeline end to end against a known defect.

Each injection is a context manager that monkeypatches one function,
drops every identity-keyed cache of compiled code on entry and exit —
the process-wide kernel cache, and the warm default worker pool with
its ship-once specs and per-worker memos (a kernel's identity cannot
see a monkeypatched compiler, so cached artifacts would otherwise leak
across the healthy/buggy boundary in both directions) — and restores
the original on exit even if the body raises.
"""

import contextlib

from repro.compiler.kernel import KERNEL_CACHE
from repro.exec.pool import rebuild_default_if_open

#: name -> (human description, patch installer).  Installers return an
#: undo callable.
_BUGS = {}


def injectable_bugs():
    """Mapping of bug name -> one-line description."""
    return {name: desc for name, (desc, _) in sorted(_BUGS.items())}


def _register(name, description):
    def decorate(installer):
        _BUGS[name] = (description, installer)
        return installer
    return decorate


@contextlib.contextmanager
def injected_bug(name):
    """Install the named bug for the duration of the ``with`` block."""
    try:
        _, installer = _BUGS[name]
    except KeyError:
        raise KeyError(
            "unknown injectable bug %r (have: %s)"
            % (name, ", ".join(sorted(_BUGS)))) from None
    KERNEL_CACHE.clear()
    rebuild_default_if_open()
    undo = installer()
    try:
        yield
    finally:
        undo()
        KERNEL_CACHE.clear()
        rebuild_default_if_open()


@_register("vector-slice-short",
           "vectorizer emits slices one element short (opt_level 2 "
           "dense loops drop their last iteration)")
def _install_vector_slice_short():
    from repro.ir import build, optimize
    from repro.rewrite import simplify_expr

    original = optimize.slice_bounds

    def buggy(coeff, base, start, stop):
        lo, hi = original(coeff, base, start, stop)
        return lo, simplify_expr(build.minus(hi, 1))

    optimize.slice_bounds = buggy

    def undo():
        optimize.slice_bounds = original

    return undo


@_register("seek-overshoot",
           "the runtime binary search lands one position late, so "
           "stepper/jumper seeks skip the first stored element at or "
           "after the target")
def _install_seek_overshoot():
    from repro.ir import runtime
    from repro.ir.ops import SEARCH_GE

    original = SEARCH_GE.runtime

    def buggy(idx, lo, hi, key):
        found = original(idx, lo, hi, key)
        return min(found + 1, hi)

    # Kernels resolve search_ge through the namespace snapshot of the
    # registry, so patch the op's runtime callable and drop the cached
    # snapshot on both install and undo.
    SEARCH_GE.runtime = buggy
    runtime._BASE_CACHE["version"] = None

    def undo():
        SEARCH_GE.runtime = original
        runtime._BASE_CACHE["version"] = None

    return undo


@_register("literal-if-wrong-arm",
           "the If constructor keeps only the last arm of a chain that "
           "ends in a literally true condition, instead of the first arm "
           "whose condition holds at runtime")
def _install_literal_if_wrong_arm():
    from repro.ir import build

    original = build.if_

    def buggy(branches):
        for cond, body in branches:
            if build.literal_truth(cond):
                return original([(None, body)])
        return original(branches)

    build.if_ = buggy

    def undo():
        build.if_ = original

    return undo


@_register("batch-drops-last",
           "the batch engine silently skips the final dataset of every "
           "batch (executor-level result loss)")
def _install_batch_drops_last():
    from repro.exec import batch as batch_mod

    original = batch_mod.KernelPool._resolve

    def buggy(self, datasets):
        resolved = original(self, datasets)
        return resolved[:-1] if len(resolved) > 1 else resolved

    batch_mod.KernelPool._resolve = buggy

    def undo():
        batch_mod.KernelPool._resolve = original

    return undo
