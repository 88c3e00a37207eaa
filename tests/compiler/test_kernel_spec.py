"""Serialized kernel artifacts: to_spec / from_spec round trips.

The spec is the contract that lets a process pool shard batched work:
optimized source + binding plan + structural key, JSON-serializable,
rebuilt in the worker by re-``exec``-ing the source.  The compiled
function object itself must never be required to cross a process
boundary.
"""

import json

import numpy as np
import pytest

import repro.lang as fl
from repro.cin.analyze import program_tensors
from repro.compiler.kernel import SPEC_FIELDS, SPEC_VERSION, CompiledKernel
from repro.util.errors import BindingError, SpecError


def dot_program(a, b):
    A = fl.from_numpy(a, ("sparse",), name="A")
    B = fl.from_numpy(b, ("band",), name="B")
    C = fl.Scalar(name="C")
    i = fl.indices("i")
    return fl.forall(i, fl.increment(C[()], A[i] * B[i]))


def make_pair(seed=0, n=120):
    rng = np.random.default_rng(seed)
    a = np.zeros(n)
    a[rng.choice(n, 15, replace=False)] = rng.random(15) + 0.1
    b = np.zeros(n)
    b[40:80] = rng.random(40) + 0.1
    return a, b


def test_spec_is_json_serializable_and_complete():
    kernel = fl.compile_kernel(dot_program(*make_pair()),
                               instrument=True)
    spec = kernel.to_spec()
    text = json.dumps(spec)  # must not raise
    decoded = json.loads(text)
    assert decoded["spec_version"] == SPEC_VERSION
    assert decoded["name"] == "kernel"
    assert decoded["source"] == kernel.source
    assert decoded["instrument"] is True
    assert decoded["opt_level"] == kernel.opt_level
    assert decoded["structural_key"] is not None


def test_spec_key_set_is_golden():
    """The spec layout is a persisted contract (the store, the
    service): a key added or dropped needs a ``SPEC_VERSION`` bump, so
    the set is pinned here and not only derived from ``SPEC_FIELDS``."""
    spec = fl.compile_kernel(dot_program(*make_pair())).to_spec()
    assert SPEC_VERSION == 6
    assert list(spec) == ["spec_version"] + list(SPEC_FIELDS)
    assert sorted(spec) == [
        "alias_groups", "backend", "c_param_dtypes", "c_source",
        "compile_seconds", "constant_loop_rewrite", "instrument", "name",
        "opt_level", "plan", "signatures", "slot_names",
        "source", "spec_version", "structural_key", "views", "widths"]


@pytest.mark.parametrize("backend", ["python", "c"])
@pytest.mark.parametrize("field", SPEC_FIELDS)
def test_every_spec_field_round_trips(field, backend):
    """Each field survives JSON and ``from_spec`` as the very value the
    compiled artifact holds (tuples re-frozen, not left as lists)."""
    kernel = fl.compile_kernel(dot_program(*make_pair()), instrument=True,
                               name="dot_fields", backend=backend,
                               cache=False)
    artifact = kernel.artifact
    spec = json.loads(json.dumps(kernel.to_spec()))
    rebuilt = CompiledKernel.from_spec(spec)
    assert getattr(rebuilt, field) == getattr(artifact, field)
    assert type(getattr(rebuilt, field)) is type(getattr(artifact, field))
    assert rebuilt.to_spec()[field] == spec[field]


def test_spec_roundtrip_preserves_behavior():
    """A JSON-roundtripped spec rebuilds an artifact that binds fresh
    tensors and produces identical results and op counts."""
    program = dot_program(*make_pair())
    kernel = fl.compile_kernel(program, instrument=True)
    expected_ops = kernel.run()
    expected = kernel.outputs[0].value

    spec = json.loads(json.dumps(kernel.to_spec()))
    rebuilt = CompiledKernel.from_spec(spec)
    assert rebuilt.signatures == kernel.artifact.signatures
    assert rebuilt.plan == kernel.artifact.plan
    assert rebuilt.structural_key == kernel.artifact.structural_key

    tensors = program_tensors(program)
    result = rebuilt.fn(*rebuilt.bind(tensors))
    assert int(result) == int(expected_ops)
    scalar = next(t for t in tensors if t.name == "C")
    assert scalar.value == pytest.approx(expected)


def test_rebuilt_artifact_rejects_bad_bindings():
    program = dot_program(*make_pair())
    kernel = fl.compile_kernel(program)
    rebuilt = CompiledKernel.from_spec(
        json.loads(json.dumps(kernel.to_spec())))
    tensors = program_tensors(program)
    with pytest.raises(BindingError):
        rebuilt.bind(tensors[:-1])
    a, b = make_pair(1)
    swapped = list(tensors)
    slot = next(pos for pos, t in enumerate(tensors)
                if t.name == "B")
    swapped[slot] = fl.from_numpy(b, ("sparse",), name="B")
    with pytest.raises(BindingError):
        rebuilt.bind(swapped)


def test_spec_version_checked():
    kernel = fl.compile_kernel(dot_program(*make_pair()))
    spec = kernel.to_spec()
    spec["spec_version"] = SPEC_VERSION + 1
    with pytest.raises(SpecError, match="version"):
        CompiledKernel.from_spec(spec)


@pytest.mark.parametrize("field", ["backend", "c_source",
                                   "c_param_dtypes", "slot_names"])
def test_a_spec_missing_a_field_is_a_miss(field):
    """Every version-5 spec carries every field (``to_spec`` walks
    :data:`SPEC_FIELDS`): one that lacks a field is not read with a
    default, it does not rebuild — which every tier reads as a miss."""
    from repro.compiler.tiers import rebuild

    spec = fl.compile_kernel(dot_program(*make_pair())).to_spec()
    assert rebuild(spec) is not None
    del spec[field]
    assert rebuild(spec) is None


def test_identity_pinned_kernels_refuse_to_serialize():
    """Custom looplet tensors are identity-keyed and pin compile-time
    buffers; their artifacts must not cross a process boundary."""
    from repro.formats.custom import LoopletTensor
    from repro.ir import Literal
    from repro.looplets import Run

    A = LoopletTensor(6, lambda ctx, pos: Run(Literal(1.5)), name="A")
    B = fl.from_numpy(np.ones(6), ("dense",), name="B")
    C = fl.Scalar(name="C")
    i = fl.indices("i")
    kernel = fl.compile_kernel(
        fl.forall(i, fl.increment(C[()], A[i] * B[i])))
    with pytest.raises(SpecError):
        kernel.to_spec()


def test_opt_level_zero_spec_roundtrip():
    """Unoptimized artifacts serialize too: the spec's one source is
    the lowered source, and it takes no element view."""
    program = dot_program(*make_pair())
    kernel = fl.compile_kernel(program, opt_level=0)
    spec = kernel.to_spec()
    assert spec["source"] == kernel.source
    assert spec["views"] == [] != list(fl.compile_kernel(program).artifact.views)
    rebuilt = CompiledKernel.from_spec(spec)
    tensors = program_tensors(program)
    rebuilt.fn(*rebuilt.bind(tensors))
    a, b = make_pair()
    scalar = next(t for t in tensors if t.name == "C")
    assert scalar.value == pytest.approx(float(a @ b))
