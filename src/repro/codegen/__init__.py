"""Native code generation backends for compiled kernels.

The compiler's default backend ``exec``s emitted Python source
(:mod:`repro.ir.emit`).  This package adds the ``"c"`` backend: the
hoisted target AST, before ``vectorize``, lowered to C99
(:mod:`repro.codegen.c_emit`), compiled into a per-kernel shared
object by the system C compiler
(:mod:`repro.codegen.toolchain`), and called through :mod:`ctypes` —
which releases the GIL for the duration of the call, so the batch
engine's ``threads`` executor scales on C kernels.

The backend is *best effort by design*: constructs the C emitter does
not cover (``missing``-valued expressions, dense output fills,
buffers outside int64/float64/bool) raise :class:`CUnsupportedError`
during compilation and the kernel falls
back to the python backend — loudly (one log line per distinct
reason, and a queryable ledger: :func:`fallback_events`) but
gracefully (the compile always succeeds).  The same degradation runs
when no C compiler is installed.

Like every module of the package, both modules here are covered by
the key's code fingerprint (:func:`repro.compiler.key.
code_fingerprint`), so editing the C emitter or the toolchain
invalidates previously stored kernels automatically.
"""

import collections
import logging
import threading

_log = logging.getLogger("repro.codegen")

_FALLBACK_CAP = 1024
#: (kernel name, reason) in occurrence order.  A bounded deque keeps
#: the *newest* events when the cap overflows — a long-lived worker
#: fleet must report its current degradation, not a frozen snapshot of
#: its first thousand compiles.  Overflow is counted, never silent.
_FALLBACKS = collections.deque(maxlen=_FALLBACK_CAP)
_FALLBACK_DROPPED = 0  # oldest events displaced past the cap
_FALLBACK_SEEN = set()  # distinct reasons already logged
_FALLBACK_LOCK = threading.Lock()


class FallbackLog(list):
    """The fallback ledger snapshot: a plain list of ``(kernel name,
    reason)`` pairs plus ``dropped`` — how many older events the
    bounded ledger displaced to stay within its cap."""

    def __init__(self, events, dropped):
        super().__init__(events)
        self.dropped = int(dropped)


def note_fallback(kernel_name, reason):
    """Record one C-backend-to-python fallback.

    Every event lands in the ledger (bounded: past the cap the oldest
    events are displaced and counted in ``fallback_events().dropped``);
    the first occurrence of each distinct reason is also logged at
    WARNING level, so a fleet silently running interpreted kernels is
    visible without drowning logs under one line per compile.
    """
    global _FALLBACK_DROPPED
    reason = str(reason)
    with _FALLBACK_LOCK:
        if (_FALLBACKS.maxlen is not None
                and len(_FALLBACKS) == _FALLBACKS.maxlen):
            _FALLBACK_DROPPED += 1
        _FALLBACKS.append((kernel_name, reason))
        if reason not in _FALLBACK_SEEN:
            _FALLBACK_SEEN.add(reason)
            _log.warning(
                "kernel %r: C backend unavailable, using the python "
                "backend (%s)", kernel_name, reason)


def fallback_events():
    """The ``(kernel name, reason)`` fallback ledger, oldest first.

    Returns a :class:`FallbackLog` — list-compatible, with a
    ``dropped`` attribute counting events the cap displaced."""
    with _FALLBACK_LOCK:
        return FallbackLog(_FALLBACKS, _FALLBACK_DROPPED)


def clear_fallback_events():
    """Reset the fallback ledger (tests)."""
    global _FALLBACK_DROPPED
    with _FALLBACK_LOCK:
        _FALLBACKS.clear()
        _FALLBACK_DROPPED = 0
        _FALLBACK_SEEN.clear()


from repro.codegen.c_emit import CUnsupportedError, emit_c  # noqa: E402
from repro.codegen.toolchain import (  # noqa: E402
    ToolchainError,
    compiler_path,
    have_toolchain,
    kernel_entry,
)

__all__ = [
    "CUnsupportedError",
    "FallbackLog",
    "ToolchainError",
    "clear_fallback_events",
    "compiler_path",
    "emit_c",
    "fallback_events",
    "have_toolchain",
    "kernel_entry",
    "note_fallback",
]
