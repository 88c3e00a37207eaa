"""The command end to end: ``--quick`` on every workload, the traced
run's catalogue, the injected wrong output, and the empty checkout."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from conftest import PERF, ROOT

RUN = os.path.join(PERF, "run.py")
with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    SPEC = json.load(handle)
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]


def run_cli(*argv, cwd=ROOT):
    proc = subprocess.run([sys.executable, RUN, *argv], cwd=cwd,
                          stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    return proc, proc.stdout.splitlines()


def test_spec_is_consistent():
    import run
    import workloads

    assert SPEC["paths"] == ["perf"]
    assert SPEC["command"] == ["python3", "perf/run.py"]
    assert WORKLOADS == list(workloads.NAMES)
    assert SPEC["run_seconds"] == workloads.REF_SECONDS
    assert [m["name"] for m in SPEC["end_to_end"]][0] == "setup_s"
    assert len(SPEC["per_layer"]) <= 128
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for exact in run.EXACT:
        assert any(name.startswith(exact) for name in names)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_run_prints_the_contract_line(workload):
    proc, lines = run_cli("--workload", workload, "--seed", "3",
                          "--seconds", "8", "--trace", "0", "--quick")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: entry["unit"]
            for name, entry in result["metrics"].items()} == wanted
    assert all(entry["value"] > 0
               for entry in result["metrics"].values())
    # Every metric is also printed by name with its unit.
    for name, unit in wanted.items():
        assert any(line.split()[:1] == [name] and line.endswith(unit)
                   for line in lines[:-1])


def test_no_process_outlives_the_run():
    """``batch_map`` starts pool workers and, through its first
    shared-memory segment, multiprocessing's resource tracker; the
    run has stopped and waited for all of them when it exits."""
    proc = subprocess.Popen(
        [sys.executable, RUN, "--workload", "batch_map", "--seed", "3",
         "--seconds", "8", "--trace", "0", "--quick"], cwd=ROOT,
        stdout=subprocess.DEVNULL, start_new_session=True)
    assert proc.wait() == 0
    left = []
    for entry in filter(str.isdigit, os.listdir("/proc")):
        try:
            if os.getpgid(int(entry)) == proc.pid:
                left.append(int(entry))
        except ProcessLookupError:
            pass
    assert left == []


def test_quick_traced_run_emits_every_layer_metric():
    proc, lines = run_cli("--workload", "compile_warm", "--seed", "3",
                          "--seconds", "8", "--trace", "1", "--quick")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert result["correct"] is True
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: entry["unit"]
            for name, entry in result["metrics"].items()} == wanted
    metrics = {name: entry["value"]
               for name, entry in result["metrics"].items()}
    assert metrics["codegen.effective_c_share"] == pytest.approx(2 / 6)
    assert metrics["codegen.fallbacks"] == 4
    assert metrics["service.errors"] == 0 and metrics["exec.faults"] == 0
    with open(os.path.join(PERF, "out",
                           "trace-compile_warm.json")) as handle:
        trace = json.load(handle)
    assert trace["columns"] == ["name", "start_ns", "end_ns", "parent",
                                "op"]
    assert all(len(row) == 5 for row in trace["spans"])
    assert "store.load_artifact_ms.c" in trace["summary"]


def test_an_injected_wrong_output_is_a_failed_op():
    """The gate's self-test: with the vectorizer emitting slices one
    element short, the all-pairs kernel computes a wrong answer (and
    raises nothing), and the workload must say so."""
    import harness as H
    import workloads as W
    from repro.fuzz.inject import injected_bug

    workload = W.make("run_python")
    tally = H.Tally()
    with injected_bug("vector-slice-short"):
        workload.setup(W.Inputs(3, H.Recorder(), None), "bug")
        H.run_checks(workload.kinds, tally)
    assert (tally.attempted, tally.failed) == (6, 1)
    assert tally.failed / tally.attempted > 0
    healthy = H.Tally()
    workload.setup(W.Inputs(3, H.Recorder(), None), "ok")
    H.run_checks(workload.kinds, healthy)
    assert (healthy.attempted, healthy.failed) == (6, 0)


def test_a_kind_refused_throughout_is_a_failed_run_not_a_crash(
        monkeypatch, capsys):
    """A kind whose every op is refused (a tier that does not serve)
    has no latency at all: the result line must still come, with
    ``correct`` false and the refused ops counted."""
    import tempfile

    import run
    import workloads as W

    real_make = W.make

    def make(name):
        workload = real_make(name)
        real_setup = workload.setup

        def setup(inputs, tag):
            real_setup(inputs, tag)
            workload.kinds[0].verify = lambda arg, result: False

        workload.setup = setup
        return workload

    monkeypatch.setattr(W, "make", make)
    # run.isolate() rewrites these for the process it expects to own.
    monkeypatch.setenv("TMPDIR", tempfile.gettempdir())
    monkeypatch.setenv("PYTHONPATH", os.environ.get("PYTHONPATH", ""))
    monkeypatch.setattr(tempfile, "tempdir", None)
    monkeypatch.setattr(sys, "path", list(sys.path))
    assert run.main(["--workload", "ingest", "--seed", "3",
                     "--seconds", "8", "--trace", "0", "--quick"]) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is False
    assert 0 < result["failed"] < result["attempted"]
    assert any("vec_sparse" in line and "no op succeeded" in line
               for line in lines)
    assert all(entry["value"] > 0
               for entry in result["metrics"].values())


def test_no_result_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and perf/, the
    command fails and prints no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(PERF, tmp_path / "perf",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "ingest",
         "--seed", "1", "--seconds", "8", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, env={k: v for k, v in os.environ.items()
                        if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
