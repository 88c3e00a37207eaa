"""The catch-shrink-persist pipeline, proven against planted bugs.

These are the conformance engine's teeth: for every registered
injectable bug the campaign must (1) find a divergent case, (2) shrink
it to something strictly smaller that still diverges, and (3) render a
standalone repro script of at most 15 lines that fails while the bug
lives and passes once it is gone.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.fuzz import (
    conform_spec,
    generate_spec,
    injectable_bugs,
    injected_bug,
    repro_script,
    run_fuzz,
    shrink_spec,
    spec_size,
)

#: Budget that catches every registered bug (measured with margin).
_CATCH_BUDGET = 30

#: Each battery row: (the row whose op count it must equal, whether it
#: maps a batch).  A divergence on a row is filed against the
#: interpreter, except an op count, which is filed against this
#: reference; a batch row's outputs are numbered per dataset.
_ROWS = {
    "compiled@0": (None, False),
    "compiled@2": ("compiled@0", False),
    "c_backend": ("compiled@2", False),
    "spec_roundtrip": ("compiled@2", False),
    "store_roundtrip": ("compiled@2", False),
    "batch_serial": ("compiled@2", True),
    "batch_threads": ("compiled@2", True),
    "batch_processes": ("compiled@2", True),
}

_BATCHES = {"batch_serial", "batch_threads", "batch_processes"}

#: Per bug: the rows its first caught case must diverge on, and the
#: rows it must leave alone — each bug breaks one layer, and every row
#: built on that layer has to notice.
_CAUGHT_BY = {
    "vector-slice-short": (
        {"compiled@2", "c_backend", "spec_roundtrip",
         "store_roundtrip"} | _BATCHES,
        {"compiled@0"}),
    "batch-drops-last": (_BATCHES, set(_ROWS) - _BATCHES),
    "literal-if-wrong-arm": ({"compiled@0"}, set()),
    "seek-overshoot": ({"compiled@0"}, set()),
    # Only a kernel with views prints ``.obj``; C refuses the slice and
    # runs the python fallback.
    "view-slice-bare": (
        {"compiled@2", "c_backend", "spec_roundtrip",
         "store_roundtrip"} | _BATCHES,
        {"compiled@0"}),
}


def _kinds_by_row(report):
    """row -> the divergence kinds filed on it, each checked against
    the row's op-count reference and batch flag."""
    kinds = {}
    for divergence in report.divergences:
        row = divergence.right.split("[")[0]  # c_backend[python] too
        ops_ref, batch = _ROWS[row]
        what = divergence.what
        if what == "op count":
            assert divergence.left == ops_ref, divergence
            assert ("datasets x" in divergence.detail) == batch, divergence
        else:
            assert divergence.left == "interpreter", divergence
        if what.startswith("output"):
            assert (what != "output") == batch, divergence
        if what == "dataset count":
            assert batch, divergence
        kinds.setdefault(row, set()).add(what.split("[")[0])
    return kinds


def test_registry_lists_a_bug_per_layer():
    # Lowering constructors, optimizer, printer, runtime helper,
    # executor.
    bugs = injectable_bugs()
    assert set(bugs) == {"literal-if-wrong-arm", "vector-slice-short",
                         "view-slice-bare", "seek-overshoot",
                         "batch-drops-last"}
    assert all(isinstance(desc, str) and desc for desc in bugs.values())


def test_unknown_bug_name_is_rejected():
    with pytest.raises(KeyError, match="unknown injectable bug"):
        with injected_bug("no-such-bug"):
            pass  # pragma: no cover


@pytest.mark.parametrize("bug", sorted(injectable_bugs()))
def test_campaign_catches_every_injectable_bug(bug):
    with injected_bug(bug):
        result = run_fuzz(seed=0, budget=_CATCH_BUDGET,
                          corpus_dir=None, shrink=False,
                          max_failures=1)
        assert result.failures, \
            "bug %r survived %d cases" % (bug, result.cases)
    report = result.failures[0].report
    kinds = _kinds_by_row(report)
    caught_by, spared = _CAUGHT_BY[bug]
    assert caught_by <= set(kinds), report.summary()
    assert not spared & set(kinds), report.summary()
    if bug == "batch-drops-last":
        for row in _BATCHES:
            assert kinds[row] == {"dataset count", "op count"}, \
                report.summary()
    # The tree is healthy again once the injection exits.
    assert conform_spec(result.failures[0].report.spec).ok


def test_shrink_reduces_and_preserves_failure():
    with injected_bug("vector-slice-short"):
        result = run_fuzz(seed=0, budget=_CATCH_BUDGET,
                          corpus_dir=None, shrink=False,
                          max_failures=1)
        original = result.failures[0].report.spec
        shrunk, steps = shrink_spec(original)
        assert steps > 0
        assert spec_size(shrunk) < spec_size(original)
        assert not conform_spec(shrunk).ok
    assert conform_spec(shrunk).ok  # healthy tree: repro passes


def test_repro_script_is_at_most_15_lines_and_replays(tmp_path):
    with injected_bug("vector-slice-short"):
        result = run_fuzz(seed=0, budget=_CATCH_BUDGET,
                          corpus_dir=str(tmp_path), max_failures=1)
        assert result.failures
        failure = result.failures[0]
    script = repro_script(failure.shrunk)
    assert len(script.strip().splitlines()) <= 15
    # The persisted .py twin replays clean on the healthy tree.
    scripts = sorted(tmp_path.glob("*.py"))
    assert scripts
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, str(scripts[0])],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    # And the persisted .json remembers what diverged when written.
    entries = sorted(tmp_path.glob("*.json"))
    entry = json.loads(entries[0].read_text())
    assert entry["divergences"], "corpus entry lost its divergences"


def test_shrink_returns_input_when_nothing_fails():
    spec = generate_spec(4)
    shrunk, steps = shrink_spec(spec)
    assert steps == 0
    assert shrunk == spec


def test_shrink_candidates_stay_in_grammar():
    """Every reduction of a healthy spec must itself build and
    conform — the shrinker never leaves the generator grammar."""
    from repro.fuzz.shrink import _candidates

    spec = generate_spec(17)
    seen = 0
    for candidate in _candidates(spec):
        report = conform_spec(candidate)
        assert report.ok, report.summary()
        seen += 1
        if seen >= 12:  # a sample is plenty; candidates number dozens
            break
    assert seen
