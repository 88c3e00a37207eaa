"""What a rebind costs, and what it still refuses.

The budget is counted in Python-level calls (``cProfile``'s total,
builtins included), which no machine's speed moves: one
``kernel.run(A=x, B=y)`` on operands the kernel has seen was 134 calls
before signatures were memoized and ``bind`` became one incremental
pass.  The error cases check that the incremental path — named
overrides re-resolving only the slots they replace — raises what a
full-sequence ``rebind([...])`` raises, on a first call and on a
repeated one: a refused override never enters a plan's memo.
"""

import cProfile
import copy
import importlib.util
import os
import pstats

import numpy as np
import pytest

import repro.lang as fl
from repro import codegen
from repro.compiler.kernel import BINDING_MEMO_CAP
from repro.util.errors import BindingError

REPO = os.path.normpath(os.path.join(os.path.dirname(__file__),
                                     "..", ".."))

#: Calls per ``kernel.run(A=x, B=y)`` on dot64 at the commit before
#: this budget existed; the budget is a third of it.
CALLS_BEFORE = 134

#: The tighter budget once each set of override names binds through one
#: plan and a memo hit is a lock-free lookup of the prepared call: a
#: call counted 23 then, 40 before.
CALLS_PLANNED = 24

#: The budget once each plan memoizes its prepared calls by buffer
#: identity (23 calls then), tightened when a memo hit came to read each
#: replacement once, as its signature and buffers in one tuple
#: (``kernel_pins``), with no role dict: 12 calls.
CALLS_MEMOIZED = 12

#: Calls per ``kernel.rebind(A=x, B=y)`` and ``kernel.run()`` on operand
#: sets the kernel has seen: 29 before the one-tuple read, 18 with it.
CALLS_REBOUND = 18


def perf_programs():
    """``perf/programs.py``, the benchmark's program builders."""
    spec = importlib.util.spec_from_file_location(
        "perf_programs", os.path.join(REPO, "perf", "programs.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def dot64():
    """``(kernel, output, operand sets)``: the sparse x sparse dot of
    the dispatch workload, on C when a toolchain is present."""
    programs = perf_programs()
    base = programs.ingest("dot64", programs.raw_inputs("dot64", 1))
    operands = [(copy.deepcopy(base["A"]), copy.deepcopy(base["B"]))
                for _ in range(4)]
    program, output = programs.build(
        "dot64", dict(A=operands[0][0], B=operands[0][1]))
    backend = "c" if codegen.have_toolchain() else "python"
    kernel = fl.compile_kernel(program, cache=False, backend=backend,
                               name="dispatch_cost")
    assert kernel.effective_backend == backend
    return kernel, output, operands


def profile_repeats(kernel, operands, rounds=25):
    """cProfile statistics of ``rounds`` passes over ``operands``,
    every set already seen by ``kernel``; and the op count."""
    for a, b in operands:
        kernel.run(A=a, B=b)
    profile = cProfile.Profile()
    profile.enable()
    for _ in range(rounds):
        for a, b in operands:
            kernel.run(A=a, B=b)
    profile.disable()
    return pstats.Stats(profile), rounds * len(operands)


def test_override_costs_a_third_of_the_calls_it_did(dot64):
    kernel, output, operands = dot64
    stats, ops = profile_repeats(kernel, operands)
    assert stats.total_calls / ops <= CALLS_BEFORE / 3
    a, b = operands[-1]
    assert output.value == pytest.approx(
        float(a.to_numpy() @ b.to_numpy()))


def test_override_binds_through_its_plan_within_budget(dot64):
    kernel, output, operands = dot64
    stats, ops = profile_repeats(kernel, operands)
    assert stats.total_calls / ops <= CALLS_PLANNED
    called = {name for _, _, name in stats.stats}
    assert "_bind_plan" not in called       # every plan came from the memo
    a, b = operands[-1]
    assert output.value == pytest.approx(
        float(a.to_numpy() @ b.to_numpy()))


def test_a_repeated_override_neither_binds_nor_prepares(dot64):
    kernel, output, operands = dot64
    stats, ops = profile_repeats(kernel, operands)
    assert stats.total_calls <= CALLS_MEMOIZED * ops + 1  # + disable
    called = {name for _, _, name in stats.stats}
    assert not called & {"_point", "place", "prepare"}
    a, b = operands[-1]
    assert output.value == pytest.approx(
        float(a.to_numpy() @ b.to_numpy()))


def test_a_repeated_rebind_and_run_stays_in_budget(dot64):
    """``rebind(A=, B=)`` + ``run()`` on seen operand sets: one memo
    hit and its prepared call, no role dict, no signature wrapper."""
    kernel, output, operands = dot64
    C, A, B = kernel.tensors
    rounds = 25
    try:
        for a, b in operands:
            kernel.rebind(A=a, B=b)
            kernel.run()
        profile = cProfile.Profile()
        profile.enable()
        for _ in range(rounds):
            for a, b in operands:
                kernel.rebind(A=a, B=b)
                kernel.run()
        profile.disable()
    finally:
        kernel.rebind([C, A, B])
    stats = pstats.Stats(profile)
    assert stats.total_calls <= CALLS_REBOUND * rounds * len(operands) + 1
    called = {name for _, _, name in stats.stats}
    assert not called & {"_point", "prepare", "buffers", "tensor_pins"}
    a, b = operands[-1]
    assert output.value == pytest.approx(dot(a, b))


@pytest.fixture
def prepares(dot64, monkeypatch):
    """The argument lists the kernel's entry prepares from here on: one
    per plan entry, on the first run that takes it."""
    fn = dot64[0].artifact.fn
    prepared = []
    prepare = fn.prepare

    def counted(args):
        prepared.append(args)
        return prepare(args)

    monkeypatch.setattr(fn, "prepare", counted)
    return prepared


def dot(a, b):
    return float(a.to_numpy() @ b.to_numpy())


def test_a_hand_assigned_array_is_a_miss_not_a_stale_hit(dot64,
                                                         prepares):
    kernel, output, operands = dot64
    a, b = copy.deepcopy(operands[1][0]), operands[1][1]
    for _ in range(2):
        kernel.run(A=a, B=b)
    assert len(prepares) == 1
    a.element.val = a.element.val * 3.0       # a new array, same dtype
    kernel.run(A=a, B=b)
    assert len(prepares) == 2
    assert output.value == pytest.approx(dot(a, b))
    kernel.run(A=a, B=b)
    assert len(prepares) == 2


def test_a_rebind_keeps_its_own_memo_and_drops_the_others(dot64,
                                                          prepares):
    kernel, output, operands = dot64
    C, A, B = kernel.tensors
    (a1, b1), (a2, b2) = operands[1], operands[2]
    kernel.rebind([C, A, B])                # a full rebind: no memo
    try:
        kernel.run(A=a1, B=b1)
        kernel.run(A=a1)
        both, alone = kernel.bind_plan(("A", "B")), kernel.bind_plan(("A",))
        assert (len(both.memo), len(alone.memo)) == (1, 1)
        kernel.rebind(A=a2, B=b2)           # a miss: filed unprepared
        kernel.rebind(A=a1, B=b1)           # a hit: its prepared call
        assert (len(both.memo), len(alone.memo)) == (2, 0)
        count = len(prepares)
        output.set(0.0)
        kernel.run()
        assert len(prepares) == count
        assert output.value == pytest.approx(dot(a1, b1))
        # run(A=a1) was checked against B; a B that shares a1's arrays
        # makes the same override new aliasing, refused again.
        kernel.rebind([C, A, B])
        kernel.run(A=a1)
        twin = fl.Tensor(a1.levels, a1.element, name="B")
        kernel.rebind(B=twin)
        assert "bind one array" in message(lambda: kernel.run(A=a1))
    finally:
        kernel.rebind([C, A, B])


def test_a_rebind_files_its_miss_and_run_prepares_it_once(dot64,
                                                          prepares):
    """``rebind(A=, B=)`` + ``run()`` over repeated operand sets
    prepares each set once, with no ``run(A=, B=)`` to fill the memo:
    a rebind files its miss unprepared, and the first run that takes
    the entry prepares it -- also when another rebind superseded it
    before any run."""
    kernel, output, operands = dot64
    C, A, B = kernel.tensors
    kernel.rebind([C, A, B])
    try:
        for _ in range(3):
            for a, b in operands[1:]:
                kernel.rebind(A=a, B=b)
                kernel.run()
                assert output.value == pytest.approx(dot(a, b))
        assert len(prepares) == len(operands) - 1
        assert len(kernel.bind_plan(("A", "B")).memo) == len(operands) - 1
        fresh_a, fresh_b = (copy.deepcopy(operands[1][0]),
                            copy.deepcopy(operands[1][1]))
        kernel.rebind(A=fresh_a, B=fresh_b)     # a miss, never run
        kernel.rebind(A=operands[2][0], B=operands[2][1])   # a hit
        kernel.run()
        assert len(prepares) == len(operands) - 1
        assert len(kernel.bind_plan(("A", "B")).memo) == len(operands)
        kernel.run(A=fresh_a, B=fresh_b)        # a hit, not yet prepared
        assert len(prepares) == len(operands)
        kernel.run(A=fresh_a, B=fresh_b)
        assert len(prepares) == len(operands)
    finally:
        kernel.rebind([C, A, B])


def test_an_adoption_drops_every_memo(dot64, prepares):
    kernel, output, operands = dot64
    a, b = copy.deepcopy(operands[1][0]), copy.deepcopy(operands[1][1])
    kernel.run(A=a, B=b)
    plan = kernel.bind_plan(("A", "B"))
    arena = fl.ShmArena()
    try:
        fl.share_dataset([a, b], arena)
        a.element.val[:] *= 2.0             # the adopted array
        count = len(prepares)
        kernel.run(A=a, B=b)
        assert len(prepares) == count + 1
        assert kernel.bind_plan(("A", "B")) is not plan
        assert output.value == pytest.approx(dot(a, b))
    finally:
        kernel.rebind(kernel.tensors)
        del a, b
        arena.close()


def test_cycling_past_the_memo_cap_stays_correct(dot64, prepares):
    kernel, output, operands = dot64
    count = BINDING_MEMO_CAP + 6
    base_a, base_b = operands[0]
    sets = []
    for k in range(count):
        a, b = copy.deepcopy(base_a), copy.deepcopy(base_b)
        a.element.val[:] *= k + 1.0
        sets.append((a, b))
    kernel.rebind(kernel.tensors)
    for _ in range(2):
        for a, b in sets:
            kernel.run(A=a, B=b)
            assert output.value == pytest.approx(dot(a, b))
    # Least recently used first: a cycle longer than the cap misses
    # every time.
    assert len(prepares) == 2 * count
    assert len(kernel.bind_plan(("A", "B")).memo) == BINDING_MEMO_CAP
    for a, b in sets[-BINDING_MEMO_CAP:]:
        kernel.run(A=a, B=b)
    assert len(prepares) == 2 * count


def test_a_plan_serves_until_a_rebind_moves_a_name(dot64):
    """One plan per set of names, kept across calls and name-keeping
    rebinds; a rebind that moves a name drops it, or ``run(A=...)``
    would re-point the slot that used to bear ``A``."""
    kernel, output, operands = dot64
    C, A, B = kernel.tensors
    (a1, b1), (a2, b2) = operands[1], operands[2]
    kernel.run(A=a1, B=b1)
    plan = kernel.bind_plan(("A", "B"))
    assert plan.slots == (("A", 1), ("B", 2))
    kernel.run(A=a2, B=b2)
    kernel.rebind(A=a1)
    assert kernel.bind_plan(("A", "B")) is plan
    as_b, as_a = copy.deepcopy(a2), copy.deepcopy(b2)
    as_b.name, as_a.name = "B", "A"
    try:
        kernel.rebind(A=as_b, B=as_a)       # slot 1 bears B, slot 2 A
        assert kernel.bind_plan(("A", "B")).slots == (("A", 2), ("B", 1))
        output.set(0.0)
        kernel.run(A=b1)
        assert output.value == pytest.approx(
            float(as_b.to_numpy() @ b1.to_numpy()))
        assert kernel.tensors == [C, as_b, as_a]
    finally:
        kernel.rebind([C, A, B])


def test_repeat_override_recomputes_no_signature(dot64):
    kernel, _, operands = dot64
    stats, _ = profile_repeats(kernel, operands)
    called = {name for _, _, name in stats.stats}
    assert "format_signature" in called     # consulted, from the memo
    assert "_normalize_fill" not in called
    assert "__str__" not in called          # numpy.dtype.__str__
    assert "_name_get" not in called


# -- every binding error, through the incremental path --------------------

def message(call):
    with pytest.raises(BindingError) as info:
        call()
    return str(info.value)


def test_signature_mismatch_on_the_replaced_slot(dot64):
    kernel, _, operands = dot64
    C, A, B = kernel.tensors
    wrong = fl.from_numpy(np.zeros(65), ("sparse",), name="A")
    full = message(lambda: kernel.rebind([C, wrong, B]))
    assert full.startswith("slot 1 (A): format signature")
    for _ in range(2):
        assert message(lambda: kernel.run(A=wrong)) == full
        assert message(lambda: kernel.rebind(A=wrong)) == full
        assert message(lambda: kernel.run(A=A, B=wrong)).startswith(
            "slot 2 (A): format signature")
    assert kernel.tensors == [C, A, B]      # a refused rebind binds nothing


def test_a_changed_signature_over_memoized_buffers_is_refused(dot64):
    """The memo key names each replacement's signature tuple: the same
    buffers under another signature are a new key, checked again."""
    kernel, _, operands = dot64
    a = copy.deepcopy(operands[1][0])
    kernel.run(A=a)
    kernel.run(A=a)                         # a memo hit
    a.format_signature = lambda: ("tensor", (), "float64", None)
    assert message(lambda: kernel.run(A=a)).startswith(
        "slot 1 (A): format signature ('tensor', (), 'float64', None)")


def test_new_aliasing_with_an_untouched_slot(dot64):
    """``run(A=B_tensor)``: the replaced slot alone is fine; the
    aliasing check has to see the whole argument list."""
    kernel, _, _ = dot64
    C, A, B = kernel.tensors
    full = message(lambda: kernel.rebind([C, B, B]))
    assert "bind one array" in full
    for _ in range(2):
        assert message(lambda: kernel.run(A=B)) == full
        assert message(lambda: kernel.rebind(A=B)) == full


def test_unknown_and_ambiguous_names(dot64):
    kernel, _, operands = dot64
    for _ in range(2):
        assert message(lambda: kernel.run(Z=operands[0][0])) == (
            "no tensor named 'Z' bound by this kernel (have: A, B, C)")
    # A name map is per binding: give two slots one name and the name
    # stops resolving, for run and rebind alike.
    twin = copy.deepcopy(operands[0][1])
    twin.name = "A"
    kernel.rebind(B=twin)
    try:
        expected = ("tensor name 'A' is bound to 2 slots; rebind with "
                    "a full tensor sequence instead")
        for _ in range(2):
            assert message(
                lambda: kernel.run(A=operands[1][0])) == expected
            assert message(
                lambda: kernel.rebind(A=operands[1][0])) == expected
    finally:
        C, A, _ = kernel.tensors
        kernel.rebind([C, A, operands[0][1]])
    kernel.run(B=operands[1][1])            # and resolves again


def test_broken_compile_time_alias_group():
    """A and B were one storage at compile time: replacing B alone by
    a tensor with its own arrays breaks the group, whichever path."""
    data = np.zeros((4, 5))
    data[1, 2] = 2.0
    A = fl.from_numpy(data, ("dense", "sparse"), name="A")
    B = fl.Tensor(A.levels, A.element, name="B")
    C = fl.Scalar(name="C")
    i, j = fl.indices("i", "j")
    kernel = fl.compile_kernel(fl.forall(i, fl.forall(
        j, fl.increment(C[()], A[i, j] * B[i, j]))), cache=False)
    distinct = fl.from_numpy(data, ("dense", "sparse"), name="B")
    full = message(lambda: kernel.rebind([C, A, distinct]))
    assert "shared one array at compile time" in full
    for _ in range(2):
        assert message(lambda: kernel.run(B=distinct)) == full
        assert message(lambda: kernel.rebind(B=distinct)) == full
    A2 = fl.from_numpy(data * 3.0, ("dense", "sparse"), name="A")
    B2 = fl.Tensor(A2.levels, A2.element, name="B")
    for _ in range(2):
        C.set(0.0)
        kernel.run(A=A2, B=B2)
        assert C.value == pytest.approx(36.0)
    # The memo holds A2's arrays with B2's: B alone over them is new.
    full = message(lambda: kernel.rebind([C, A2, distinct]))
    for _ in range(2):
        assert message(lambda: kernel.run(A=A2, B=distinct)) == full
