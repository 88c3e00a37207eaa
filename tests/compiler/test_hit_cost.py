"""What a warm compile costs, counted rather than timed.

A cache hit should pay for its lookup and nothing else.  Counted in
Python-level calls (``cProfile``'s total, builtins included), which no
machine's speed moves: a memory hit on a fresh fig8 program made 391
calls when the structural key, the slot list, the output list and the
alias check each walked the tree or the tensors again; one walk makes
all four.  A python disk hit ``exec``\\ s the code object its ``.code``
sidecar keeps instead of compiling the source again.
"""

import cProfile
import importlib.util
import os
import pstats

import pytest

import repro.lang as fl
from repro.compiler import kernel as kernel_module
from repro.compiler import tiers
from repro.compiler.kernel import artifact_cache_key, kernel_cache
from repro.compiler.tiers import compile_source
from repro.store import KernelStore, disk, meta_for_artifact

REPO = os.path.normpath(os.path.join(os.path.dirname(__file__),
                                     "..", ".."))

#: Calls per memory hit on a fresh fig8 program (391 before the walks
#: were merged).
MEMORY_HIT_BUDGET = 260


def perf_programs():
    """``perf/programs.py``, the benchmark's program builders."""
    spec = importlib.util.spec_from_file_location(
        "perf_programs", os.path.join(REPO, "perf", "programs.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def fig8():
    """``(programs module, ingested tensors, artifact)`` of fig8."""
    programs = perf_programs()
    tensors = programs.ingest("fig8", programs.raw_inputs("fig8", 1))
    artifact = fl.compile_kernel(programs.build("fig8", tensors)[0],
                                 cache=False).artifact
    return programs, tensors, artifact


@pytest.fixture(autouse=True)
def clean_cache():
    kernel_cache().clear()
    yield
    kernel_cache().clear()


def profiled(call):
    """``(result, pstats.Stats)`` of one call."""
    profile = cProfile.Profile()
    profile.enable()
    result = call()
    profile.disable()
    return result, pstats.Stats(profile)


def calls_to(stats, name):
    """How often a function named ``name`` (a builtin: its
    ``<built-in method ...>`` label) ran in ``stats``."""
    return sum(row[1] for (_, _, func), row in stats.stats.items()
               if func == name)


def test_memory_hit_on_a_fresh_fig8_program_stays_in_budget(fig8):
    programs, tensors, artifact = fig8
    kernel_cache().store(artifact_cache_key(artifact), artifact)
    program, _ = programs.build("fig8", tensors)
    kernel, stats = profiled(lambda: fl.compile_kernel(
        program, store=False, remote=False))
    assert kernel.from_cache and kernel.artifact is artifact
    assert stats.total_calls <= MEMORY_HIT_BUDGET
    # One kernel_pins() per tensor and no role dict: the key's
    # signatures and alias groups and the bind read the same walk.
    assert calls_to(stats, "kernel_pins") == len(kernel.tensors) == 3
    assert calls_to(stats, "buffers") == 0


@pytest.fixture
def kernel_compiles(monkeypatch):
    """Every kernel source compiled from here on.  Counted at
    :func:`~repro.compiler.tiers.compile_source` (in each module that
    imported it), not at ``builtins.compile``: an import the load
    triggers compiles its module too, unless a ``.pyc`` was written."""
    compiled = []

    def counted(source):
        compiled.append(source)
        return compile_source(source)

    for module in (tiers, kernel_module, disk):
        monkeypatch.setattr(module, "compile_source", counted)
    return compiled


def test_python_disk_hit_compiles_nothing_when_its_sidecar_is_valid(
        fig8, tmp_path, kernel_compiles):
    programs, tensors, artifact = fig8
    store = KernelStore(tmp_path)
    meta = meta_for_artifact(artifact)
    store.save_spec(meta, artifact.to_spec())   # no .code yet
    code_path = store._entry_path(meta)[:-len(".json")] + ".code"
    assert not os.path.exists(code_path)

    first = store.load_artifact(meta)
    assert kernel_compiles == [artifact.source]  # source compiled ...
    assert os.path.exists(code_path)             # ... and kept
    del kernel_compiles[:]
    again = store.load_artifact(meta)
    assert kernel_compiles == []
    assert again.source == first.source == artifact.source

    program, output = programs.build("fig8", tensors)
    kernel = fl.compile_kernel(program, store=store, remote=False)
    assert kernel.from_cache
    kernel.run()
    reference, expected = programs.build("fig8", tensors)
    fl.compile_kernel(reference, cache=False).run()
    assert programs.value_of(output) == programs.value_of(expected)
