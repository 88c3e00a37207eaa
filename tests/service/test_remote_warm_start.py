"""The fleet warm-start proof, as a tier-1 test: a *fresh process*
with an **empty local store** but a warm kernel service completes all
six figure benchmarks with zero local compiles, a remote hit rate
>= 0.9, and outputs bit-identical to cold compiles.

Three actors:

* the **cold** child warms the service's backing store directly (six
  compiles, six write-behinds) — it stands in for the fleet members
  that compiled before us;
* the pytest process serves that store over HTTP
  (:class:`~repro.service.server.KernelService` on an ephemeral port);
* the **remote** child starts with an empty local store and
  ``FL_SERVICE_URL`` pointed at the service: every compile must be
  served over the wire and written behind into its local store.

Both children are pristine subprocesses (not the pytest process): the
store key includes the op-registry version, and other tests
legitimately register ops, so only a fresh interpreter state matches
what a real fleet process would compute.
"""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.service.server import KernelService

_COLD_CHILD = r"""
import hashlib, json, os, sys
from repro.bench.figures import warm_start_programs
from repro.bench.harness import _snapshot_outputs
from repro.compiler.kernel import compile_kernel
from repro.store import KernelStore

report = {"figures": {}}
for figure, label, make_program, opts in warm_start_programs():
    program = make_program()
    kernel = compile_kernel(program, **opts)
    kernel.run()
    digest = hashlib.sha256()
    for snap in _snapshot_outputs(program):
        digest.update(snap.tobytes())
    report["figures"][figure] = {
        "from_cache": kernel.from_cache,
        "hash": digest.hexdigest(),
    }
report["stats"] = KernelStore(os.environ["FL_KERNEL_STORE"]).stats()
print(json.dumps(report))
"""

_REMOTE_CHILD = r"""
import hashlib, json, os, sys
from repro.bench.figures import warm_start_programs
from repro.bench.harness import _snapshot_outputs
from repro.compiler.kernel import compile_kernel
from repro.service.client import service_stats
from repro.store import KernelStore

report = {"figures": {}}
for figure, label, make_program, opts in warm_start_programs():
    program = make_program()
    kernel = compile_kernel(program, **opts)
    kernel.run()
    digest = hashlib.sha256()
    for snap in _snapshot_outputs(program):
        digest.update(snap.tobytes())
    report["figures"][figure] = {
        "from_cache": kernel.from_cache,
        "hash": digest.hexdigest(),
    }
report["service"] = service_stats()
report["local_store"] = KernelStore(
    os.environ["FL_KERNEL_STORE"]).stats()
print(json.dumps(report))
"""


def _run_child(script, env_extra):
    src = os.path.dirname(os.path.dirname(
        os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("FL_SERVICE_URL", None)
    env.update(env_extra)
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, timeout=300,
        capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def cold_and_remote(tmp_path_factory):
    server_store = tmp_path_factory.mktemp("server_store")
    client_store = tmp_path_factory.mktemp("client_store")
    cold = _run_child(_COLD_CHILD,
                      {"FL_KERNEL_STORE": str(server_store)})
    with KernelService(str(server_store)) as service:
        remote = _run_child(_REMOTE_CHILD, {
            "FL_KERNEL_STORE": str(client_store),
            "FL_SERVICE_URL": service.url,
        })
        server_side = service.stats()
    return cold, remote, server_side


def test_cold_child_warmed_the_service_store(cold_and_remote):
    cold, _, _ = cold_and_remote
    assert len(cold["figures"]) == 6
    assert not any(f["from_cache"] for f in cold["figures"].values())
    assert cold["stats"]["entries"] == 6


def test_remote_child_compiles_zero_kernels(cold_and_remote):
    cold, remote, _ = cold_and_remote
    figures = remote["figures"]
    assert set(figures) == set(cold["figures"])
    # Every figure came off the wire: zero local compiles ...
    assert all(f["from_cache"] for f in figures.values()), figures
    # ... at a remote hit rate >= 0.9 (the acceptance bar) ...
    stats = remote["service"]
    lookups = stats["remote_hits"] + stats["remote_misses"]
    assert lookups >= 6
    assert stats["remote_hits"] / lookups >= 0.9, stats
    assert stats["remote_errors"] == 0
    # ... and its local store saw zero hits (it started empty).
    assert remote["local_store"]["hits"] == 0


def test_remote_outputs_bit_identical_to_cold(cold_and_remote):
    cold, remote, _ = cold_and_remote
    for figure, entry in remote["figures"].items():
        assert entry["hash"] == cold["figures"][figure]["hash"], figure


def test_write_behind_filled_the_local_store(cold_and_remote):
    _, remote, _ = cold_and_remote
    # Every remote hit was written behind: the next process on this
    # machine warm-starts from disk without touching the wire.
    assert remote["local_store"]["entries"] == 6


def test_server_side_counters_agree(cold_and_remote):
    _, remote, server_side = cold_and_remote
    assert server_side["hits"] == remote["service"]["remote_hits"]
    assert server_side["hit_rate"] >= 0.9
