"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch library failures without catching unrelated bugs.
"""


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class LoweringError(ReproError):
    """The compiler could not lower a program.

    Raised when style resolution fails, when an access cannot be unfurled
    in the requested loop order, or when a looplet is used outside the
    region it was declared for.
    """


class FormatError(ReproError):
    """A level format was constructed from inconsistent data."""


class ParseError(ReproError):
    """The CIN text parser rejected its input."""

    def __init__(self, message, position=None, text=None):
        self.position = position
        self.text = text
        if position is not None and text is not None:
            line = text.count("\n", 0, position) + 1
            col = position - (text.rfind("\n", 0, position) + 1) + 1
            message = "%s (line %d, column %d)" % (message, line, col)
        super().__init__(message)


class ProtocolError(ReproError):
    """A format was asked to unfurl under a protocol it does not support."""


class DimensionError(ReproError):
    """Tensor dimensions or loop extents are inconsistent."""


class BindingError(ReproError):
    """A compiled kernel could not be (re)bound to the given tensors.

    Raised when a replacement tensor's format signature differs from
    the one the kernel was compiled for, when a tensor name does not
    resolve to a binding slot, or when buffer aliasing between slots
    no longer matches the compile-time pattern.
    """


class SpecError(ReproError):
    """A kernel artifact could not be serialized or deserialized.

    Raised by :meth:`~repro.compiler.kernel.CompiledKernel.to_spec`
    for kernels pinned to compile-time data (custom formats binding
    buffers outside the tensor protocol, identity-keyed signatures)
    and by ``from_spec`` for unsupported spec versions.

    The rendered message carries the kernel's structural-key digest
    and its slot (tensor) names when the raiser knows them, so a
    failure deep inside a worker pool still names the kernel it
    belongs to.
    """

    def __init__(self, message, structural_key=None, slot_names=None):
        self.structural_key = structural_key
        self.slot_names = tuple(slot_names) if slot_names else ()
        context = []
        if structural_key is not None:
            from repro.cin.analyze import structural_digest

            context.append("skey %s" % structural_digest(structural_key))
        if self.slot_names:
            context.append("slots %s" % ", ".join(
                str(name) for name in self.slot_names))
        if context:
            message = "%s [%s]" % (message, "; ".join(context))
        super().__init__(message)


class TransientError(ReproError):
    """A failure caused by the *execution environment*, not the kernel.

    The process worker pool retries transient failures (with
    exponential backoff, on a healthy worker) because re-running the
    same dataset can succeed: the worker crashed or stalled, or a
    shared-memory attach raced a teardown.  Deterministic kernel
    exceptions — the kernel itself raising on its input — are *never*
    classified transient and are never retried.

    Use :func:`is_transient` to classify an exception; custom kernels
    may raise their own ``TransientError`` subclass to opt a failure
    into the pool's retry (the serial and threads executors retry
    nothing).
    """


def is_transient(exc):
    """Whether the retry policy may re-run the dataset that raised
    ``exc``.  Only :class:`TransientError` instances qualify — any
    other exception is presumed deterministic and surfaces
    immediately."""
    return isinstance(exc, TransientError)


class WorkerCrashError(TransientError):
    """A pool worker process died without reporting a result.

    Raised (wrapped in :class:`BatchExecutionError`) when a worker of
    :class:`repro.exec.pool.WorkerPool` exits hard mid-chunk — a
    segfault in native code, an ``os._exit``, or an OOM kill.  The
    pool reads its progress array to attribute the crash to the
    dataset that was in flight, then respawns the worker so the next
    batch runs on a full fleet.  Transient: the retry policy may
    re-run the attributed dataset on a healthy worker.
    """

    def __init__(self, worker, exitcode, index):
        self.worker = worker
        self.exitcode = exitcode
        self.index = index
        super().__init__(
            "worker %s died (exitcode %r) while running dataset %d"
            % (worker, exitcode, index))

    def __reduce__(self):
        return (type(self), (self.worker, self.exitcode, self.index))


class WorkerStallError(TransientError):
    """A pool worker wedged past the watchdog deadline and was killed.

    Raised (wrapped in :class:`BatchExecutionError`) when a worker of
    :class:`repro.exec.pool.WorkerPool` stops advancing its heartbeat
    for longer than the effective per-chunk deadline — a deadlock, an
    unbounded loop in native code, a hung IO call.  The dispatcher
    kills the process (SIGKILL), attributes the stall to the dataset
    the progress array says was in flight, and respawns the slot.
    Transient: the retry policy may re-run the dataset elsewhere.
    """

    def __init__(self, worker, index, deadline_s):
        self.worker = worker
        self.index = index
        self.deadline_s = deadline_s
        super().__init__(
            "worker %s stalled past the %.3fs deadline while running "
            "dataset %d (killed and respawned)"
            % (worker, deadline_s, index))

    def __reduce__(self):
        return (type(self), (self.worker, self.index, self.deadline_s))


class ShmAttachError(TransientError):
    """A shared-memory segment could not be attached.

    Raised when a worker races segment teardown (the parent unlinked a
    staging segment while a retry was in flight) or the attach itself
    fails transiently.  Transient: a retry re-stages the payload.
    """


class ServiceUnreachableError(TransientError):
    """The remote kernel service could not be reached.

    Raised by :class:`repro.service.client.ServiceClient` after its
    timeout/retry budget is exhausted — connection refused, DNS
    failure, or a request timing out.  Transient by taxonomy (the
    service may come back), but the compile path never *retries on
    it*: the client catches it, emits a warn-once log line, and
    degrades to the local tiers so a dead service costs one timeout
    per cooldown window, never a failed compile.
    """


class BatchExecutionError(ReproError):
    """A batched kernel run failed on one dataset.

    Wraps the worker's exception with the index of the dataset that
    raised it, so callers of
    :func:`~repro.exec.batch.run_batch` can tell which item of the
    batch went wrong regardless of the executor that ran it.  When the
    batch engine knows them, the rendered message also names the
    failing dataset's tensors, the kernel, and the kernel's
    structural-key digest — enough to find the kernel in logs without
    re-running the batch.
    """

    def __init__(self, index, cause, dataset_names=None,
                 kernel_name=None, structural_key=None):
        self.index = index
        self.cause = cause
        self.dataset_names = tuple(dataset_names) if dataset_names \
            else ()
        self.kernel_name = kernel_name
        self.structural_key = structural_key
        message = "dataset %d" % index
        if self.dataset_names:
            message += " (%s)" % ", ".join(
                str(name) for name in self.dataset_names)
        message += " failed"
        if kernel_name is not None:
            message += " in kernel %r" % kernel_name
        if structural_key is not None:
            from repro.cin.analyze import structural_digest

            message += " [skey %s]" % structural_digest(structural_key)
        message += ": %s: %s" % (type(cause).__name__, cause)
        super().__init__(message)

    def __reduce__(self):
        # Default exception pickling replays __init__ with self.args
        # (the formatted message), which does not match this
        # signature; rebuild from the structured fields so the error
        # can cross process boundaries intact.
        return (type(self), (self.index, self.cause,
                             self.dataset_names, self.kernel_name,
                             self.structural_key))
