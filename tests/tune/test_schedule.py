"""The schedule layer: extraction, rewriting, keys, enumeration.

A schedule must round-trip losslessly through the one canonical
access order, map every protocol spelling of a program onto one
protocol-erased table address, and enumerate each distinct kernel
exactly once.
"""

import numpy as np
import pytest

import repro.lang as fl
from repro.cin.analyze import structural_digest, structural_key
from repro.cin.nodes import collect_accesses
from repro.tune import (
    TUNE_VERSION,
    apply_schedule,
    describe_schedule,
    enumerate_candidates,
    extract_protocols,
    neutral_digest,
    tunable_sites,
    tuning_key_meta,
    validate_schedule,
)
from repro.tune.schedule import apply_protocols
from repro.util.errors import ReproError


def dot_data(n=40, seed=0):
    rng = np.random.default_rng(seed)
    a = np.zeros(n)
    a[rng.choice(n, 6, replace=False)] = rng.random(6) + 0.1
    b = np.zeros(n)
    b[5:25] = rng.random(20) + 0.1
    return a, b


def dot_program(a_fmt="sparse", b_fmt="band", n=40, seed=0):
    a, b = dot_data(n=n, seed=seed)
    A = fl.from_numpy(a, (a_fmt,), name="A")
    B = fl.from_numpy(b, (b_fmt,), name="B")
    C = fl.Scalar(name="C")
    i = fl.indices("i")
    return fl.forall(i, fl.increment(C[()], A[i] * B[i])), C


def test_protocols_round_trip():
    program, _ = dot_program()
    protocols = extract_protocols(program)
    rebuilt = apply_protocols(program, protocols)
    assert extract_protocols(rebuilt) == protocols
    assert structural_key(rebuilt) == structural_key(program)
    # Tensors are shared, not copied: the rewrite binds the same data.
    assert [a.tensor for a in collect_accesses(rebuilt)] \
        == [a.tensor for a in collect_accesses(program)]


def test_apply_rejects_wrong_shapes():
    program, _ = dot_program()
    with pytest.raises(ReproError, match="access protocol entries"):
        apply_protocols(program, [["walk"]])
    with pytest.raises(ReproError, match="modes"):
        apply_protocols(program, [[], ["walk", "walk"], ["walk"]])


def test_neutral_digest_erases_protocol_spelling():
    program, _ = dot_program()
    gallop = apply_protocols(program, [[], ["gallop"], ["walk"]])
    # Different programs to the compiler (protocols are structural) ...
    assert structural_digest(structural_key(gallop)) \
        != structural_digest(structural_key(program))
    # ... but one row in the winners table.
    assert neutral_digest(gallop) == neutral_digest(program)
    assert tuning_key_meta(gallop, 2, "python") \
        == tuning_key_meta(program, 2, "python")
    # A genuinely different program keys a different row.
    assert neutral_digest(dot_program(a_fmt="dense")[0]) \
        != neutral_digest(program)


def test_tuning_key_carries_version_axes_and_the_configuration():
    program = dot_program()[0]
    meta = tuning_key_meta(program, 2, "python")
    assert meta["kind"] == "tuning"
    assert meta["tune_version"] == TUNE_VERSION == 3
    for axis in ("store_version", "tune_version", "registry_version",
                 "code_fingerprint"):
        assert meta[axis], axis
    assert (meta["opt_level"], meta["backend"]) == (2, "python")
    # One row per configuration.
    assert tuning_key_meta(program, 1, "python") != meta
    assert tuning_key_meta(program, 2, "c") != meta


def test_tunable_sites_skip_writes_and_single_protocol_formats():
    # A is sparse_list (walk|gallop): one searchable site.  B is band
    # (walk only) and C is the written scalar: neither is a site.
    program, _ = dot_program()
    assert tunable_sites(program) == [(1, 0, ("walk", "gallop"))]


def test_candidates_are_exactly_the_protocol_assignments():
    # sparse_list and VBL both offer walk and gallop: the product is
    # four assignments.  dense and bitmap offer walk only: no site.
    program, _ = dot_program(a_fmt="sparse", b_fmt="vbl")
    candidates = enumerate_candidates(program)
    assert candidates[0] == {"protocols": extract_protocols(program)}
    assignments = [tuple(map(tuple, c["protocols"])) for c in candidates]
    assert all(list(c) == ["protocols"] for c in candidates)
    assert len(set(assignments)) == len(assignments)
    assert set(assignments) == {((), (a,), (b,))
                                for a in ("walk", "gallop")
                                for b in ("walk", "gallop")}
    for candidate in candidates:
        assert validate_schedule(program, candidate)
    dense, _ = dot_program(a_fmt="bitmap", b_fmt="dense")
    assert enumerate_candidates(dense) \
        == [{"protocols": [[], ["walk"], ["walk"]]}]


def test_figure_candidate_counts_need_no_compile(monkeypatch):
    from repro.bench.figures import warm_start_programs
    from repro.compiler import kernel as kernel_mod

    def no_compile(*args, **kwargs):
        raise AssertionError("enumeration compiled a kernel")

    monkeypatch.setattr(kernel_mod, "_compile_artifact", no_compile)
    counts = [len(enumerate_candidates(make_program()))
              for _, _, make_program, _ in warm_start_programs()]
    assert counts == [2, 4, 8, 4, 1, 16]


def test_the_tuner_times_only_distinct_kernels():
    """Every candidate of every figure is a different kernel: no
    spelling of one kernel is compiled and timed twice."""
    from repro.bench.figures import warm_start_programs

    for figure, _, make_program, _ in warm_start_programs():
        program = make_program()
        sources = [
            fl.compile_kernel(apply_schedule(program, candidate),
                              backend="python", cache=False).source
            for candidate in enumerate_candidates(program)]
        assert len(set(sources)) == len(sources), figure


def test_validate_schedule_rejects_misfits():
    program, _ = dot_program()
    good = enumerate_candidates(program)[0]
    assert validate_schedule(program, good)
    assert not validate_schedule(program, None)
    assert not validate_schedule(program, {**good, "protocols": [[]]})
    assert not validate_schedule(
        program, {**good, "protocols": [[], ["sprint"], ["walk"]]})
    assert not validate_schedule(
        program, {**good, "protocols": [[], [None], ["walk"]]})
    # A winner recorded for a structurally different program (here:
    # fewer accesses) must read as a misfit, never be applied.
    A = fl.from_numpy(dot_data()[0], ("sparse",), name="A")
    C = fl.Scalar(name="C")
    i = fl.indices("i")
    smaller = fl.forall(i, fl.increment(C[()], A[i]))
    assert not validate_schedule(smaller, good)


def test_describe_schedule_is_compact():
    schedule = {"protocols": [[], ["gallop"], ["walk"]]}
    assert describe_schedule(schedule) == "/gallop/walk"


def test_applied_schedule_computes_the_same_answer():
    program, C = dot_program()
    a, b = dot_data()
    candidate = {"protocols": [[], ["gallop"], ["walk"]]}
    variant = apply_schedule(program, candidate)
    assert extract_protocols(variant) == candidate["protocols"]
    kernel = fl.compile_kernel(variant, opt_level=1, cache=False)
    kernel.run()
    # The variant shares the original tensors, so the original C holds
    # the result: protocols change strategy, never the math.
    assert C.value == pytest.approx(float(np.dot(a, b)))
