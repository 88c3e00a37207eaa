"""Degraded-network behavior: the remote tier can never break a compile.

A dead, hanging, or lying kernel service must cost at most one warning
and a timeout per cooldown window — every compile still succeeds
locally and produces bit-identical outputs.  Driven through a refused
port, the chaos engine's ``service_unreachable`` fault point, a
monkeypatched corrupt response, and a real mid-run service kill
(``test_framed_reply.py`` has every defect of a served entry).
"""

import logging

import numpy as np
import pytest

import repro.lang as fl
from repro import chaos
from repro.compiler.kernel import kernel_cache
from repro.service.client import (
    ServiceClient,
    active_client,
    reset_clients,
    reset_service_stats,
    service_stats,
)
from repro.service.server import KernelService
from repro.util import config
from repro.util.errors import ServiceUnreachableError, TransientError

#: Nothing listens here: connection refused, instantly.
DEAD_URL = "http://127.0.0.1:9"


@pytest.fixture(autouse=True)
def clean_state(monkeypatch):
    from repro.service import client as client_mod

    kernel_cache().clear()
    reset_clients()
    reset_service_stats()
    config.clear()
    # Fast failures: no retries, short timeouts, no lingering cooldown
    # leaking into the next test.
    config.configure(service_timeout_s=0.5, service_retries=0)
    monkeypatch.setattr(client_mod, "DOWN_COOLDOWN_S", 30.0)
    yield
    kernel_cache().clear()
    reset_clients()
    reset_service_stats()
    config.clear()


def dot_program(n=50, seed=0):
    rng = np.random.default_rng(seed)
    A = fl.from_numpy(rng.random(n), ("dense",), name="A")
    B = fl.from_numpy(rng.random(n), ("dense",), name="B")
    C = fl.Scalar(name="C")
    i = fl.indices("i")
    return fl.forall(i, fl.increment(C[()], A[i] * B[i])), C


def test_unreachable_error_is_transient_by_taxonomy():
    assert issubclass(ServiceUnreachableError, TransientError)
    client = ServiceClient(DEAD_URL)
    with pytest.raises(ServiceUnreachableError):
        client._request("/healthz")


def test_dead_service_degrades_bit_identically(caplog):
    program, C = dot_program()
    with caplog.at_level(logging.WARNING, logger="repro.service"):
        kernel = fl.compile_kernel(program, remote=DEAD_URL,
                                   store=False)
    assert not kernel.from_cache
    kernel.run()
    degraded_value = C.value

    program2, C2 = dot_program()  # identical data, no remote tier
    fl.execute(program2, cache=False)
    assert degraded_value == C2.value

    stats = service_stats()
    assert stats["remote_errors"] >= 1
    assert stats["remote_hits"] == 0


def test_warn_once_then_silent_cooldown(caplog):
    with caplog.at_level(logging.WARNING, logger="repro.service"):
        for seed in range(3):
            fl.compile_kernel(dot_program(seed=seed)[0],
                              remote=DEAD_URL, store=False,
                              cache=True)
            kernel_cache().clear()
    warnings = [record for record in caplog.records
                if record.levelno >= logging.WARNING]
    assert len(warnings) == 1  # one warning, not one per compile
    # Compiles 2 and 3 skipped the wire inside the cooldown window.
    assert service_stats()["remote_degraded"] >= 2


def test_chaos_fault_point_registered():
    assert "service_unreachable" in chaos.fault_points()


def test_chaos_injects_unreachable(tmp_path):
    """The fault point fires at the request boundary, so the whole
    degrade path runs against a perfectly healthy service."""
    with KernelService(tmp_path / "store") as service:
        fl.compile_kernel(dot_program()[0], remote=service.url,
                          store=False)
        kernel_cache().clear()
        reset_clients()
        reset_service_stats()
        program, C = dot_program(seed=1)
        with chaos.chaos("service_unreachable", p=1.0):
            kernel = fl.compile_kernel(program, remote=service.url,
                                       store=False)
        # The warm entry was unreachable: compiled locally anyway.
        assert not kernel.from_cache
        assert service_stats()["remote_errors"] >= 1
        kernel.run()
        value = C.value
        # Chaos off, cooldown cleared: the same compile now hits.
        reset_clients()
        kernel_cache().clear()
        program2, C2 = dot_program(seed=1)
        kernel2 = fl.compile_kernel(program2, remote=service.url,
                                    store=False)
        assert kernel2.from_cache
        kernel2.run()
        assert C2.value == value


def test_corrupt_response_reads_as_miss(monkeypatch, caplog):
    monkeypatch.setattr(
        ServiceClient, "_request",
        lambda self, path, data=None, headers=None: (200, b"{ bad", {}))
    program, C = dot_program()
    with caplog.at_level(logging.WARNING, logger="repro.service"):
        kernel = fl.compile_kernel(program, remote=DEAD_URL,
                                   store=False)
    assert not kernel.from_cache
    stats = service_stats()
    assert stats["remote_errors"] >= 1
    assert stats["remote_misses"] >= 1
    assert stats["remote_hits"] == 0
    # A lying service is a miss, not an outage: no cooldown engaged.
    assert active_client(DEAD_URL).available()
    kernel.run()
    program2, C2 = dot_program()
    fl.execute(program2, cache=False)
    assert C.value == C2.value


def test_service_killed_mid_run_degrades(tmp_path):
    """Kill the service between compiles: later compiles fall back to
    local compilation with bit-identical outputs."""
    service = KernelService(tmp_path / "store")
    service.start()
    url = service.url
    fl.configure(service_url=url)
    program, C = dot_program()
    fl.compile_kernel(program, store=False)
    kernel_cache().clear()
    # Warm fetch works ...
    kernel = fl.compile_kernel(dot_program(seed=1)[0], store=False)
    assert kernel.from_cache
    # ... then the service dies mid-run.
    service.close()
    kernel_cache().clear()
    reset_service_stats()
    program3, C3 = dot_program(seed=1)
    degraded = fl.compile_kernel(program3, store=False)
    assert not degraded.from_cache  # local compile, not a crash
    assert service_stats()["remote_errors"] >= 1
    degraded.run()
    value = C3.value
    program4, C4 = dot_program(seed=1)
    fl.execute(program4, cache=False)
    assert value == C4.value


def test_push_failure_never_breaks_the_compile():
    program, C = dot_program()
    kernel = fl.compile_kernel(program, remote=DEAD_URL, store=False)
    assert not kernel.from_cache
    kernel.run()  # the kernel is fully usable
    assert service_stats()["remote_pushes"] == 0
