"""One walk over a program, four answers.

``program_walk`` is the only pass ``compile_kernel`` makes over a CIN
tree: the structural key, the slot-ordered tensors, the output slots
and each tensor's one read (``tensor_pins``: its signature, then its
buffers).  Each answer is held here to what the
separate walks compute — ``program_tensors``, ``output_tensors``,
``buffer_alias_groups`` and, for the key, the two-pass derivation the
compiler used before the walks were merged (kept below as the oracle)
— on the six figure kernels, the fuzz corpus and 120 generated cases.
"""

import os

import numpy as np
import pytest

import repro.lang as fl
from repro.bench.figures import warm_start_programs
from repro.cin.analyze import (
    buffer_alias_groups,
    output_tensors,
    program_tensors,
    program_walk,
    structural_key,
    tensor_pins,
)
from repro.cin.nodes import Access, Assign, Forall, Multi, Pass, Sieve, Where
from repro.fuzz.corpus import corpus_entries, load_entry
from repro.fuzz.gen import build_case, generate_spec
from repro.ir.nodes import Call

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "..", "..",
                          "fuzz_corpus")


def reference_key(stmt):
    """The structural key as two walks derived it: number every tensor
    while hashing the tree, then take signatures and alias groups."""
    slots = []

    def slot(tensor):
        for position, seen in enumerate(slots):
            if seen is tensor:
                return position
        slots.append(tensor)
        return len(slots) - 1

    def expr_key(expr):
        if isinstance(expr, Access):
            return (("access", slot(expr.tensor), expr.protocols)
                    + tuple(expr_key(idx) for idx in expr.idxs))
        children = expr.children()
        if not children:
            return expr.key()
        head = (("call", expr.op.name) if isinstance(expr, Call)
                else (type(expr).__name__,))
        return head + tuple(expr_key(child) for child in children)

    def stmt_key(stmt):
        if isinstance(stmt, Assign):
            return ("assign", stmt.op and stmt.op.name,
                    expr_key(stmt.lhs), expr_key(stmt.rhs))
        if isinstance(stmt, Forall):
            ext = stmt.ext and ("extent", expr_key(stmt.ext.start),
                                expr_key(stmt.ext.stop))
            return ("forall", stmt.index.name, ext, stmt_key(stmt.body))
        if isinstance(stmt, Sieve):
            return ("sieve", expr_key(stmt.cond), stmt_key(stmt.body))
        if isinstance(stmt, Where):
            return ("where", stmt_key(stmt.consumer),
                    stmt_key(stmt.producer))
        if isinstance(stmt, Multi):
            return ("multi",) + tuple(stmt_key(s) for s in stmt.stmts)
        assert isinstance(stmt, Pass)
        return ("pass",) + tuple(slot(t) for t in stmt.tensors)

    body = stmt_key(stmt)
    return ("cin", body, tuple(tensor_pins(t)[0] for t in slots),
            buffer_alias_groups(slots))


def programs():
    """``(label, program)``: figures, corpus, generated cases."""
    for figure, _, make_program, _ in warm_start_programs():
        yield figure, make_program()
    paths = corpus_entries(CORPUS_DIR)
    assert paths, "the fuzz corpus is missing"
    for path in paths:
        yield os.path.basename(path), build_case(
            load_entry(path)["spec"]).program
    for seed in range(120):
        yield "seed %d" % seed, build_case(generate_spec(seed)).program


def assert_walk_agrees(program):
    walk = program_walk(program)
    assert walk.key == reference_key(program)
    assert structural_key(program) == walk.key
    tensors = program_tensors(program)
    assert len(walk.tensors) == len(tensors)
    assert all(a is b for a, b in zip(walk.tensors, tensors))
    outputs = output_tensors(program)
    assert [walk.tensors[slot] for slot in walk.output_slots] == outputs
    assert all(walk.tensors[slot] is out
               for slot, out in zip(walk.output_slots, outputs))
    assert len(walk.pins) == len(tensors)
    for read, tensor in zip(walk.pins, tensors):
        again = tensor_pins(tensor)
        assert read[0] == again[0]
        assert len(read) == len(again)
        assert all(a is b for a, b in zip(read[1:], again[1:]))
    assert walk.alias_groups == buffer_alias_groups(tensors)


def test_walk_agrees_with_the_separate_walks_everywhere():
    labels = []
    for label, program in programs():
        assert_walk_agrees(program)
        labels.append(label)
    assert len(labels) >= 6 + 120


def test_a_tensor_a_pass_names_first_keeps_both_orders():
    """The key numbers ``pass`` tensors; the kernel's slots count only
    accessed ones.  When a ``pass`` names a tensor first, both answers
    stay what their own walks say."""
    A = fl.from_numpy(np.arange(4.0), ("dense",), name="A")
    B = fl.from_numpy(np.ones(4), ("dense",), name="B")
    C = fl.Scalar(name="C")
    Y = fl.from_numpy(np.zeros(4), ("dense",), name="Y")
    i = fl.indices("i")
    program = fl.multi(
        fl.pass_(Y),
        fl.forall(i, fl.increment(C[()], A[i] * B[i])),
        fl.forall(i, fl.store(Y[i], A[i])))
    assert_walk_agrees(program)
    walk = program_walk(program)
    assert [t.name for t in walk.tensors] == ["C", "A", "B", "Y"]
    assert walk.key[1][1] == ("pass", 0)  # Y is the key's slot 0


def test_shared_storage_is_one_alias_group():
    data = np.eye(3)
    A = fl.from_numpy(data, ("dense", "sparse"), name="A")
    B = fl.Tensor(A.levels, A.element, name="B")
    C = fl.Scalar(name="C")
    i, j = fl.indices("i", "j")
    program = fl.forall(i, fl.forall(
        j, fl.increment(C[()], A[i, j] * B[i, j])))
    assert_walk_agrees(program)
    assert program_walk(program).alias_groups


@pytest.mark.parametrize("opts", [{}, {"backend": "c"}])
def test_compile_kernel_binds_from_the_walk(opts):
    program = warm_start_programs()[0][2]()
    kernel = fl.compile_kernel(program, cache=False, **opts)
    assert kernel.tensors == program_tensors(program)
    assert kernel.outputs == output_tensors(program)
