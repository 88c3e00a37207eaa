"""The unified chaos engine: named, seeded fault injection.

Fault tolerance that has never seen a fault is a hypothesis, not a
property.  This package replaces the ad-hoc ``FL_EXEC_CRASH_FILE``
hook with one registry of *named fault points* wired into the
execution stack's real seams, and one configuration surface that
reaches every process of a worker fleet:

====================  ===================================================
fault point           effect at its injection site
====================  ===================================================
``worker_crash``      a pool worker dies hard mid-dataset (``os._exit``,
                      ``sys.exit``, SIGKILL, or SIGTERM via ``mode=``)
``worker_stall``      a pool worker wedges (sleeps ``stall_s``) so the
                      dispatcher's watchdog must detect and kill it
``shm_attach_fail``   a shared-memory attach raises
                      :class:`~repro.util.errors.ShmAttachError`
``store_read_error``  a kernel-store entry read raises ``OSError``
                      (must degrade to a cache miss, never an exception)
``store_corrupt_entry``  a kernel-store entry reads back garbled (must
                      quarantine and recompile)
``slow_chunk``        a dataset takes ``delay_s`` longer than it should
                      (the watchdog must NOT false-positive on it)
``service_unreachable``  a kernel-service HTTP request raises
                      ``OSError`` (the client must warn once and
                      degrade to the local tiers)
====================  ===================================================

A *plan* maps fault names to firing rules:

``p=<float>``      fire on each eligible hit with probability ``p``,
                   drawn from a ``seed``-derived RNG keyed to the hit
                   number (deterministic given the hit ordering)
``nth=<int>``      fire on exactly the nth eligible hit
``index=<int>``    only hits carrying this dataset index are eligible
(no rule)          fire on every eligible hit

Hit counting is **global across the fleet** when a state directory is
configured (``chaos(...)`` always sets one up): every eligible hit
increments a lock-protected counter file shared by parent and workers,
so ``nth=1`` means "once per run", not "once per process" — which is
what makes *retry succeeds after one crash* a testable scenario.  A
bare ``FL_CHAOS`` environment variable without ``FL_CHAOS_STATE``
falls back to per-process counting.

Configuration travels through the environment (``FL_CHAOS`` holds the
encoded plan) so fork/spawn/forkserver workers all inherit it; the
:func:`chaos` context manager is the programmatic front end::

    with chaos("worker_crash", nth=1):             # one crash, anywhere
        fl.run_batch(program, datasets, executor="processes",
                     max_retries=2)                # ...and it still passes

    with chaos("slow_chunk", p=0.25, seed=7, delay_s=0.01):
        ...

    FL_CHAOS="worker_crash:nth=1;slow_chunk:p=0.5,seed=3" python app.py

``python -m repro.chaos`` runs the campaign sweep (scenario x executor
x failure policy) defined in :mod:`repro.chaos.campaign`.
"""

import contextlib
import os
import random
import shutil
import signal
import sys
import tempfile
import time

from repro.util.errors import ShmAttachError

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

# These two variables are this package's parent-to-child IPC, not
# configuration: the plan is *written* here (``chaos()``,
# ``apply_env``) so that fork/spawn/forkserver workers inherit it, and
# read back raw on every fault point.  That is why they are the one
# ``os.environ`` use outside :mod:`repro.util.config` (CI's ``lint``
# job greps for any other).
#: Environment variable holding the encoded fault plan.
ENV_PLAN = "FL_CHAOS"

#: Environment variable naming the shared hit-counter directory.
ENV_STATE = "FL_CHAOS_STATE"

#: Registered fault points and what each one does when it fires.
FAULT_POINTS = {
    "worker_crash": "a pool worker process dies hard mid-dataset "
                    "(mode=exit|sys_exit|sigkill|sigterm, exit_code=N)",
    "worker_stall": "a pool worker wedges for stall_s seconds "
                    "(default 3600) so the watchdog must kill it",
    "shm_attach_fail": "attaching a shared-memory segment raises "
                       "ShmAttachError (transient; retries re-stage)",
    "store_read_error": "reading a kernel-store entry raises OSError "
                        "(the store must degrade it to a miss)",
    "store_corrupt_entry": "a kernel-store entry reads back corrupted "
                           "(the store must quarantine and recompile)",
    "slow_chunk": "a dataset sleeps delay_s seconds (default 0.05) "
                  "before executing (watchdog false-positive canary)",
    "service_unreachable": "a kernel-service HTTP request fails with "
                           "OSError (the client must degrade to the "
                           "local tiers, never fail the compile)",
}

#: Keys with structural meaning in a fault rule; everything else is a
#: free-form parameter handed to the firing action.
_RULE_KEYS = ("p", "nth", "index", "seed")


def fault_points():
    """Mapping of fault-point name -> one-line description."""
    return dict(FAULT_POINTS)


class Fault:
    """One fault point's firing rule plus its action parameters."""

    __slots__ = ("name", "p", "nth", "index", "seed", "params")

    def __init__(self, name, p=None, nth=None, index=None, seed=0,
                 **params):
        if name not in FAULT_POINTS:
            raise ValueError(
                "unknown fault point %r (have: %s)"
                % (name, ", ".join(sorted(FAULT_POINTS))))
        if p is not None and nth is not None:
            raise ValueError(
                "fault %r: p= and nth= are mutually exclusive" % name)
        self.name = name
        self.p = None if p is None else float(p)
        self.nth = None if nth is None else int(nth)
        self.index = None if index is None else int(index)
        self.seed = int(seed)
        self.params = dict(params)

    def encode(self):
        parts = []
        if self.p is not None:
            parts.append("p=%r" % self.p)
        if self.nth is not None:
            parts.append("nth=%d" % self.nth)
        if self.index is not None:
            parts.append("index=%d" % self.index)
        if self.seed:
            parts.append("seed=%d" % self.seed)
        for key in sorted(self.params):
            parts.append("%s=%s" % (key, self.params[key]))
        if not parts:
            return self.name
        return "%s:%s" % (self.name, ",".join(parts))

    def __repr__(self):
        return "Fault(%s)" % self.encode()


def _parse_value(text):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


def parse_plan(text):
    """Decode an ``FL_CHAOS`` plan string into ``{name: Fault}``.

    Grammar: ``name[:key=value[,key=value...]][;name...]``.  Unknown
    fault names raise — a typo in a chaos plan silently injecting
    nothing would defeat the whole point.
    """
    plan = {}
    for clause in filter(None, (c.strip() for c in text.split(";"))):
        name, _, arg_text = clause.partition(":")
        name = name.strip()
        kwargs = {}
        for pair in filter(None, (p.strip()
                                  for p in arg_text.split(","))):
            key, _, value = pair.partition("=")
            kwargs[key.strip()] = _parse_value(value.strip())
        plan[name] = Fault(name, **kwargs)
    return plan


def encode_plan(plan):
    """The ``FL_CHAOS`` string for ``{name: Fault}``."""
    return ";".join(plan[name].encode() for name in sorted(plan))


# -- per-process plan cache and hit counting -------------------------------

_local = {"text": None, "plan": {}, "hits": {}}


def _plan():
    """The active plan, re-parsed whenever the environment changes."""
    text = os.environ.get(ENV_PLAN) or ""
    if text != _local["text"]:
        _local["text"] = text
        _local["plan"] = parse_plan(text) if text else {}
        _local["hits"] = {}
    return _local["plan"]


def active():
    """Whether any chaos plan is currently configured."""
    return bool(os.environ.get(ENV_PLAN))


def _next_hit(name):
    """This eligible hit's 1-based sequence number.

    Counted in the shared state directory when one is configured (one
    counter file per fault, ``fcntl``-locked, so the count is global
    across every process of the fleet); per-process otherwise.
    """
    state = os.environ.get(ENV_STATE)
    if state and fcntl is not None:
        path = os.path.join(state, "%s.hits" % name)
        try:
            with open(path, "a+") as handle:
                fcntl.flock(handle, fcntl.LOCK_EX)
                handle.seek(0)
                raw = handle.read().strip()
                count = (int(raw) if raw else 0) + 1
                handle.seek(0)
                handle.truncate()
                handle.write(str(count))
                return count
        except (OSError, ValueError):  # pragma: no cover - state gone
            pass
    _local["hits"][name] = _local["hits"].get(name, 0) + 1
    return _local["hits"][name]


def current_env():
    """The ``(plan, state_dir)`` pair to ship to another process."""
    return (os.environ.get(ENV_PLAN), os.environ.get(ENV_STATE))


def apply_env(pair):
    """Adopt a shipped ``(plan, state_dir)`` pair in this process.

    Long-lived pool workers call this on every chunk so the parent's
    chaos configuration is authoritative for the whole fleet: arming
    a plan reaches workers spawned before it, and disarming it (the
    ``with`` block exits) disarms workers that inherited the plan in
    their environment at fork time.
    """
    for key, value in zip((ENV_PLAN, ENV_STATE), pair):
        if value:
            os.environ[key] = value
        else:
            os.environ.pop(key, None)


def should_fire(name, index=None):
    """The fault's action parameters when it fires here, else None.

    ``index`` is the dataset index at sites that have one; a fault
    with an ``index=`` rule is only eligible at matching sites.
    """
    if not os.environ.get(ENV_PLAN):
        return None
    fault = _plan().get(name)
    if fault is None:
        return None
    if fault.index is not None and index != fault.index:
        return None
    hit = _next_hit(name)
    if fault.nth is not None:
        if hit != fault.nth:
            return None
    elif fault.p is not None:
        rng = random.Random("%d:%s:%d" % (fault.seed, name, hit))
        if rng.random() >= fault.p:
            return None
    return dict(fault.params)


def _fire(name, params):
    """Perform the named fault's effect (see :data:`FAULT_POINTS`)."""
    if name == "worker_crash":
        mode = params.get("mode", "exit")
        code = int(params.get("exit_code", 23))
        if mode in ("exit", "os_exit"):
            os._exit(code)
        elif mode == "sys_exit":
            sys.exit(code)
        elif mode == "sigkill":
            os.kill(os.getpid(), signal.SIGKILL)
            time.sleep(30)  # pragma: no cover - waiting for delivery
        elif mode == "sigterm":
            os.kill(os.getpid(), signal.SIGTERM)
            time.sleep(30)  # pragma: no cover - waiting for delivery
        else:
            raise ValueError("unknown worker_crash mode %r" % mode)
    elif name == "worker_stall":
        time.sleep(float(params.get("stall_s", 3600.0)))
    elif name == "slow_chunk":
        time.sleep(float(params.get("delay_s", 0.05)))
    elif name == "shm_attach_fail":
        raise ShmAttachError("chaos-injected shm attach failure")
    elif name == "store_read_error":
        raise OSError("chaos-injected store read error")
    elif name == "service_unreachable":
        raise OSError("chaos-injected service unreachable")
    # store_corrupt_entry fires through mangle(), not here.


def inject(name, index=None):
    """The standard call-site hook: fire the fault's effect when the
    plan says so.  Returns True when it fired and control returned
    (slow_chunk); raising faults raise and dying faults never return.
    No-op (one env lookup) when chaos is inactive."""
    params = should_fire(name, index)
    if params is None:
        return False
    _fire(name, params)
    return True


def mangle(name, data, index=None):
    """Corrupting call-site hook: returns ``data`` garbled when the
    fault fires, unchanged otherwise.  Used by ``store_corrupt_entry``
    — the caller's parser must reject the result."""
    params = should_fire(name, index)
    if params is None:
        return data
    keep = len(data) // 2
    tail = "#chaos#" if isinstance(data, str) else b"#chaos#"
    return data[:keep] + tail


@contextlib.contextmanager
def chaos(spec=None, **rule):
    """Activate a fault plan for the duration of the ``with`` block.

    ``spec`` is one fault-point name (rules/params as keyword
    arguments), an already-encoded plan string (``"a:nth=1;b:p=0.5"``),
    or a ``{name: {rule...}}`` mapping for multiple faults.  The plan
    is exported through ``FL_CHAOS`` so worker processes started (or
    retried) inside the block inherit it, and a fresh shared hit-state
    directory is exported through ``FL_CHAOS_STATE`` so nth-hit rules
    count globally across the fleet.  On exit both variables are
    restored and the state directory is removed.
    """
    if isinstance(spec, dict):
        if rule:
            raise ValueError("pass rules inside the mapping, not both")
        plan = {name: Fault(name, **dict(kw))
                for name, kw in spec.items()}
    elif spec is None:
        raise ValueError("chaos() needs a fault name, plan string, "
                         "or mapping")
    elif (":" in spec or ";" in spec) and not rule:
        plan = parse_plan(spec)
    else:
        plan = {spec: Fault(spec, **rule)}
    text = encode_plan(plan)
    parse_plan(text)  # round-trip validation before export
    previous = {key: os.environ.get(key)
                for key in (ENV_PLAN, ENV_STATE)}
    state_dir = tempfile.mkdtemp(prefix="flchaos-")
    os.environ[ENV_PLAN] = text
    os.environ[ENV_STATE] = state_dir
    _local["text"] = None  # force re-parse against the new env
    try:
        yield plan
    finally:
        for key, value in previous.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
        _local["text"] = None
        shutil.rmtree(state_dir, ignore_errors=True)


__all__ = [
    "ENV_PLAN", "ENV_STATE", "FAULT_POINTS", "Fault", "active",
    "apply_env", "chaos", "current_env", "encode_plan",
    "fault_points", "inject", "mangle", "parse_plan", "should_fire",
]
