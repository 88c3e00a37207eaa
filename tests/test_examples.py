"""Every example script must run cleanly (they assert internally)."""

import os
import re
import subprocess
import sys

import numpy as np
import pytest

from repro.__main__ import main

_EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), os.pardir,
                             "examples")
_EXAMPLES = sorted(name for name in os.listdir(_EXAMPLES_DIR)
                   if name.endswith(".py"))


def _subprocess_env():
    """Child processes need `repro` importable even when the parent
    found it through pytest's `pythonpath` ini (not the environment)."""
    src = os.path.abspath(os.path.join(os.path.dirname(__file__),
                                       os.pardir, "src"))
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (src + os.pathsep + existing) if existing else src
    return env


def test_examples_are_present():
    assert len(_EXAMPLES) >= 3  # the deliverable floor
    assert "quickstart.py" in _EXAMPLES


@pytest.mark.parametrize("script", _EXAMPLES)
def test_example_runs(script):
    result = subprocess.run(
        [sys.executable, os.path.join(_EXAMPLES_DIR, script)],
        capture_output=True, text=True, timeout=240,
        env=_subprocess_env())
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip(), "examples should narrate their output"


def test_module_demo_runs():
    result = subprocess.run(
        [sys.executable, "-m", "repro"],
        capture_output=True, text=True, timeout=120,
        env=_subprocess_env())
    assert result.returncode == 0, result.stderr[-2000:]
    assert "Emitted kernel" in result.stdout


def test_demo_prints_the_dot_product_and_names_real_paths(capsys):
    """``python -m repro`` prints ``a @ b`` and points only at paths
    that exist in the repo."""
    main()
    out = capsys.readouterr().out
    a = np.array([0, 1.9, 0, 3.0, 0, 0, 2.7, 0, 5.5, 0, 0])
    b = np.array([0, 0, 0, 3.7, 4.7, 9.2, 1.5, 8.7, 0, 0, 0])
    result = re.search(r"result: (\S+)", out).group(1)
    assert result == "%.2f" % (a @ b)
    pointers = out[out.index("result:"):].split("\n", 1)[1]
    paths = re.findall(r"[\w.-]+/[\w./-]*|[\w.-]+\.md\b", pointers)
    assert paths, pointers
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    for path in paths:
        assert os.path.exists(os.path.join(root, path)), path
