"""Each process imports only what it runs.

* The service process (``python -m repro.service``) loads the store
  and the server: through start, a push and a fetch of a python and a
  C entry, and ``/healthz``, it never loads numpy, the CIN, the IR or
  the compiler proper — and neither does ``--help``.
* A client (``import repro.service.client``) loads no HTTP server.
* A compile with no store and no service configured loads neither
  tier; with ``FL_KERNEL_STORE`` set it loads the store.

Each probe is a fresh interpreter with every ``FL_*`` variable
removed, which prints its ``sys.modules`` as a JSON list on its last
line.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import repro
import repro.lang as fl
from repro.service.client import ServiceClient
from repro.store import meta_for_artifact

#: What the service process must never load (a name or its submodules).
NOT_IN_THE_SERVICE = ("numpy", "repro.cin", "repro.ir",
                      "repro.compiler.kernel", "repro.compiler.lower")

_SERVICE_PROBE = r"""
import json, sys, threading

from repro.service.__main__ import main

if sys.argv[1:] == ["--help"]:
    try:
        main(["--help"])
    except SystemExit:
        pass
else:
    threading.Thread(target=main, args=(sys.argv[1:],), daemon=True).start()
    sys.stdin.readline()        # the test has pushed, fetched and polled
print(json.dumps(sorted(sys.modules)), flush=True)
"""

_DOT_PROBE = r"""
import json, sys

import numpy as np

import repro.lang as fl

a = np.array([0, 1.5, 0, 2.0, 0, 3.0])
b = np.array([1.0, 2.0, 0, 4.0, 0, 5.0])
A = fl.from_numpy(a, ("sparse",), name="A")
B = fl.from_numpy(b, ("sparse",), name="B")
C = fl.Scalar(name="C")
i = fl.indices("i")
fl.compile_kernel(fl.forall(i, fl.increment(C[()], A[i] * B[i]))).run()
assert C.value == float(a @ b), C.value
print(json.dumps(sorted(sys.modules)))
"""


def _env(**extra):
    """This environment without any ``FL_*`` variable, with ``src/``
    on the path."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {name: value for name, value in os.environ.items()
           if not name.startswith("FL_")}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))
    env.update(extra)
    return env


def _probe(source, *args, **env):
    """The modules a fresh interpreter running ``source`` loaded."""
    out = subprocess.run(
        [sys.executable, "-c", source, *args], env=_env(**env),
        capture_output=True, text=True, check=True, timeout=120)
    return json.loads(out.stdout.splitlines()[-1])


def _loaded(modules, names):
    """The members of ``names`` that ``modules`` holds, themselves or
    through a submodule."""
    return sorted({name for name in names for module in modules
                   if module == name or module.startswith(name + ".")})


def _dot_kernel(**opts):
    a = np.array([0, 1.5, 0, 2.0, 0, 0, 3.0, 0])
    b = np.array([1.0, 2.0, 0, 4.0, 0, 0, 5.0, 0])
    A = fl.from_numpy(a, ("sparse",), name="A")
    B = fl.from_numpy(b, ("sparse",), name="B")
    C = fl.Scalar(name="C")
    i = fl.indices("i")
    return fl.compile_kernel(
        fl.forall(i, fl.increment(C[()], A[i] * B[i])), cache=False,
        **opts)


def test_the_service_process_loads_the_store_and_the_server(tmp_path):
    server = subprocess.Popen(
        [sys.executable, "-c", _SERVICE_PROBE, "--store",
         str(tmp_path / "store"), "--port", "0"],
        env=_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True)
    try:
        url = server.stdout.readline().split()[-1]
        client = ServiceClient(url, retries=0)
        for kernel in (_dot_kernel(), _dot_kernel(backend="c")):
            artifact = kernel.artifact
            meta = meta_for_artifact(artifact)
            assert client.push(meta, artifact.to_spec(),
                               so_path=artifact.so_path,
                               code=artifact.code)
            assert client.fetch(meta) is not None
        assert client.healthz()["ok"] is True
        out, err = server.communicate("\n", timeout=60)
    finally:
        server.kill()
        server.wait()
    modules = json.loads(out.splitlines()[-1])
    assert "repro.service.server" in modules, err
    assert _loaded(modules, NOT_IN_THE_SERVICE) == []


def test_service_help_loads_no_compiler():
    modules = _probe(_SERVICE_PROBE, "--help")
    assert "repro.service.__main__" in modules
    assert _loaded(modules, NOT_IN_THE_SERVICE) == []


def test_a_client_loads_no_http_server():
    modules = _probe("import json, sys\nimport repro.service.client\n"
                     "print(json.dumps(sorted(sys.modules)))")
    assert "repro.service.client" in modules
    assert _loaded(modules, ("http.server", "socketserver",
                             "repro.service.server")) == []


def test_a_tierless_compile_loads_no_tier():
    modules = _probe(_DOT_PROBE)
    assert "repro.compiler.kernel" in modules
    assert _loaded(modules, ("repro.store", "repro.service")) == []


def test_a_configured_store_is_loaded(tmp_path):
    modules = _probe(_DOT_PROBE, FL_KERNEL_STORE=str(tmp_path / "store"))
    assert _loaded(modules, ("repro.store", "repro.service")) == [
        "repro.store"]
