"""A two-list intersection step is a three-way stride compare.

When a stepper loop has exactly two leaders, both lists of spikes
(sparse lists walked), its step is unclipped, and the body annihilates
either list's fill, each merge step prints as

    if s1 < s2:   advance list 1; cur = s1
    elif s2 < s1: advance list 2; cur = s2
    else:         the body once; advance both; cur = s1

with no ``min`` of the strides and no landing test
(docs/compilation.md, "What a merge step knows").  Every other step
keeps the landing form: RLE runs and VBL blocks (a block reaches below
a lesser stride), a union, three leaders.

The edge cases check the new step against the reference interpreter
on both backends, bit for bit, with the op count the two-finger step
has always made: a seek per list, a step per coordinate of either list
up to the shorter list's last, and a unit per product.
"""

import re

import numpy as np
import pytest

import repro.lang as fl
from repro import codegen
from repro.baselines.reference import interpret
from repro.bench.figures import fig7_suite, warm_start_programs
from repro.bench.kernels import spmspv_program

BACKENDS = ("python", "c") if codegen.have_toolchain() else ("python",)
PROGRAMS = {figure: make for figure, _, make, _ in warm_start_programs()}
N = 16


def _vector(coords, scale):
    vec = np.zeros(N)
    for rank, coord in enumerate(coords):
        vec[coord] = scale * (rank + 1) + 0.1
    return vec


def _dot(a, b, *rest):
    """``C[] += A[i] * B[i] * ...`` over sparse vectors ``a, b, ...``."""
    tensors = [fl.from_numpy(vec, ("sparse",), name=name)
               for vec, name in zip((a, b, *rest), "ABDE")]
    C = fl.Scalar(name="C")
    i = fl.indices("i")
    product = tensors[0][i]
    for tensor in tensors[1:]:
        product = product * tensor[i]
    return fl.forall(i, fl.increment(C[()], product)), C


def _steps(kernel):
    """The printed body of each merge loop of ``kernel``, python and C:
    the lines below a ``while`` line, more indented than it."""
    source = kernel.source if kernel.effective_backend == "python" \
        else kernel.c_source.split("FL_EXPORT int64_t", 1)[1]
    lines = source.splitlines()
    loops = []
    for at, line in enumerate(lines):
        if line.lstrip().startswith("while"):
            depth = len(line) - len(line.lstrip())
            body = []
            for inner in lines[at + 1:]:
                if inner.strip() and len(inner) - len(inner.lstrip()) <= depth:
                    break
                body.append(inner.strip())
            loops.append(body)
    return loops


def _three_way(step):
    """Whether ``step`` is the three-way compare: two strides named,
    compared both ways, an ``else``, and no stop taken as their least
    nor any landing test."""
    text = "\n".join(step)
    strides = re.findall(r"^(\w+_stride(?:_\d+)?) = ", text, re.M)
    if len(strides) != 2:
        return False
    first, second = strides
    branches = [re.escape("%s < %s" % (first, second)),
                re.escape("%s < %s" % (second, first))]
    return all(re.search(r"\b(?:el)?if \(?%s\)?" % branch, text)
               for branch in branches) \
        and re.search(r"^(\} )?else( \{)?:?$", text, re.M) is not None \
        and "==" not in text and "fl_min" not in text \
        and not re.search(r"_stop\w* = ", text)


def _landing_form(step):
    """Whether ``step`` takes its stop as the least stride and tests
    which strides it landed on."""
    text = "\n".join(step)
    return re.search(r"_stop\w* = ", text) is not None \
        and re.search(r"== \w+_stride", text) is not None


def _compile(program, backend):
    return fl.compile_kernel(program, backend=backend, cache=False)


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_sparse_dot_steps_three_ways(backend):
    program, _ = _dot(_vector((1, 4, 9), 1.0), _vector((4, 5, 9), 2.0))
    kernel = _compile(program, backend)
    assert kernel.effective_backend == backend
    steps = _steps(kernel)
    assert len(steps) == 1 and _three_way(steps[0])


@pytest.mark.parametrize("backend", BACKENDS)
def test_fig7_walk_walk_steps_three_ways(backend):
    # fig7's output is a dense vector, so a C request runs its python.
    kernel = _compile(PROGRAMS["fig7_spmspv"](), backend)
    steps = _steps(kernel)
    assert len(steps) == 1 and _three_way(steps[0])


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("figure", ["fig10_alpha", "fig11_allpairs"])
def test_runs_and_blocks_keep_the_landing_form(figure, backend):
    # RLE ∩ RLE and VBL ∩ VBL: a run is no spike, and a block can
    # reach below the other list's lesser stride.
    steps = _steps(_compile(PROGRAMS[figure](), backend))
    two_leader = [step for step in steps
                  if len(re.findall(r"^\w+_stride(?:_\d+)? = ",
                                    "\n".join(step), re.M)) == 2]
    assert two_leader
    assert all(_landing_form(step) and not _three_way(step)
               for step in two_leader)


def test_the_vbl_strategy_keeps_the_landing_form():
    mat = next(iter(fig7_suite().values()))
    vec = np.zeros(mat.shape[1])
    vec[::7] = 1.5
    program, _ = spmspv_program(mat, vec, "vbl")
    steps = _steps(_compile(program, "python"))
    assert steps and _landing_form(steps[0]) and not _three_way(steps[0])


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_union_and_three_lists_keep_the_landing_form(backend):
    a, b, d = _vector((1, 4), 1.0), _vector((4, 6), 2.0), _vector((4,), 3.0)
    A = fl.from_numpy(a, ("sparse",), name="A")
    B = fl.from_numpy(b, ("sparse",), name="B")
    C = fl.Scalar(name="C")
    i = fl.indices("i")
    # A + B does not vanish where one list holds its fill.
    union = fl.forall(i, fl.increment(C[()], A[i] + B[i]))
    three, _ = _dot(a, b, d)
    for program in (union, three):
        steps = _steps(_compile(program, backend))
        assert steps and not any(_three_way(step) for step in steps)


EDGES = {
    "empty": ((), (1, 3)),
    "both-empty": ((), ()),
    "disjoint": ((0, 2, 4), (1, 3, 5)),
    "identical": ((1, 5, 9), (1, 5, 9)),
    "one-element-equal": ((7,), (7,)),
    "one-element-apart": ((3,), (7,)),
    "shared-last": ((0, 4, 15), (2, 15)),
    "prefix": ((1, 3, 5), (1, 3, 5, 8, 12)),
}
EDGE_CASES = [(name, swapped) for name in EDGES for swapped in (False, True)]


def _two_finger_ops(left, right):
    if not (left and right):
        return 0
    last = min(max(left), max(right))
    steps = {coord for coord in (*left, *right) if coord <= last}
    return 2 + len(steps) + len(set(left) & set(right))


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "name, swapped", EDGE_CASES,
    ids=["%s%s" % (name, "-swapped" if swapped else "")
         for name, swapped in EDGE_CASES])
def test_edge_cases_agree_with_the_interpreter(name, swapped, backend):
    left, right = EDGES[name]
    if swapped:
        left, right = right, left
    a, b = _vector(left, 0.3), _vector(right, 0.7)
    program, C = _dot(a, b)
    want = interpret(program).result_for(C)
    for instrument in (False, True):
        program, C = _dot(a, b)
        kernel = fl.compile_kernel(program, backend=backend,
                                   instrument=instrument, cache=False)
        assert kernel.effective_backend == backend
        ops = kernel.run()
        assert np.float64(C.value).tobytes() == np.float64(want).tobytes()
        if instrument:
            assert ops == _two_finger_ops(left, right)
