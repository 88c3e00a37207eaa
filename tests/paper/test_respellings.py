"""Protocols change the strategy, never the math: every spelling of
every headline figure kernel computes the answer the kernel computes
as written.

A *spelling* picks ``walk`` or ``gallop`` for each read access mode
whose level format accepts both (sparse list and VBL); writes and
single-protocol formats keep theirs.  The figures have 2, 4, 8, 4, 1
and 16 spellings.  Each one is its own structural key and so its own
kernel; it must agree exactly with the as-written kernel, whose
answer and op count ``test_pinned_op_counts.py`` and
``test_figures.py`` pin.  docs/compilation.md ("Choosing protocols")
names two spellings measured faster; they are checked on the backend
they were measured on.
"""

import functools
import itertools

import numpy as np
import pytest

from repro import codegen
from repro.bench.figures import warm_start_programs
from repro.cin.analyze import output_tensors
from repro.cin.nodes import Assign, collect_accesses, index_base, walk_stmts
from repro.compiler.kernel import compile_kernel
from repro.ir.nodes import Var

PROGRAMS = {figure: make_program
            for figure, _, make_program, _ in warm_start_programs()}


def spelling_sites(program):
    """``(access, mode, protocols)`` for each read access mode whose
    level format accepts more than one protocol, in preorder."""
    writes = {id(stmt.lhs) for stmt in walk_stmts(program)
              if isinstance(stmt, Assign)}
    sites = []
    for access in collect_accesses(program):
        levels = getattr(access.tensor, "levels", None) or ()
        if id(access) in writes:
            continue
        for mode, idx in enumerate(access.idxs[:len(levels)]):
            options = levels[mode].PROTOCOLS
            if isinstance(index_base(idx), Var) and len(options) > 1:
                sites.append((access, mode, options))
    return sites


def spelled(figure, spelling):
    """A fresh ``figure`` program with its sites spelled ``spelling``.

    Each call builds new tensors and nodes, so setting the protocols
    in place touches no other program."""
    program = PROGRAMS[figure]()
    sites = spelling_sites(program)
    assert len(sites) == len(spelling)
    for (access, mode, options), protocol in zip(sites, spelling):
        assert protocol in options
        protocols = list(access.protocols)
        protocols[mode] = protocol
        access.protocols = tuple(protocols)
    return program


def as_written(figure):
    return tuple(access.protocols[mode] for access, mode, _
                 in spelling_sites(PROGRAMS[figure]()))


def run(program, backend="python"):
    kernel = compile_kernel(program, backend=backend, cache=False)
    kernel.run()
    outputs = [np.asarray(out.to_numpy()) for out in output_tensors(program)]
    return kernel, outputs


@functools.lru_cache(maxsize=None)
def written_run(figure):
    return run(PROGRAMS[figure]())


SPELLINGS = [
    (figure, spelling)
    for figure, make_program in PROGRAMS.items()
    for spelling in itertools.product(
        *(options for _, _, options in spelling_sites(make_program())))]


def test_spelling_counts():
    counts = {figure: sum(1 for name, _ in SPELLINGS if name == figure)
              for figure in PROGRAMS}
    assert counts == {"fig1_dot": 2, "fig7_spmspv": 4, "fig8_triangles": 8,
                      "fig9_convolution": 4, "fig10_alpha": 1,
                      "fig11_allpairs": 16}


@pytest.mark.parametrize(
    "figure, spelling", SPELLINGS,
    ids=["%s-%s" % (figure, ",".join(spelling) or "none")
         for figure, spelling in SPELLINGS])
def test_every_spelling_computes_the_as_written_answer(figure, spelling):
    written_kernel, want = written_run(figure)
    kernel, got = run(spelled(figure, spelling))
    assert len(got) == len(want)
    for have, expect in zip(got, want):
        np.testing.assert_array_equal(have, expect)
    # A spelling is its own kernel: only the as-written one shares the
    # as-written source.
    assert (kernel.source == written_kernel.source) \
        == (spelling == as_written(figure))


#: docs/compilation.md's faster spellings, with the backend each was
#: measured on and the backend that really ran it.
DOCUMENTED = {
    "fig7_spmspv": (("walk", "walk"), ("gallop", "gallop"), "python"),
    "fig8_triangles": (("walk", "gallop", "gallop"),
                       ("gallop", "walk", "walk"), "c"),
}


@pytest.mark.skipif(not codegen.have_toolchain(),
                    reason="no C compiler on PATH")
@pytest.mark.parametrize("figure", sorted(DOCUMENTED))
def test_documented_faster_spelling_under_c(figure):
    written, faster, effective = DOCUMENTED[figure]
    assert as_written(figure) == written
    _, want = written_run(figure)
    kernel, got = run(spelled(figure, faster), backend="c")
    assert kernel.effective_backend == effective
    for have, expect in zip(got, want):
        np.testing.assert_array_equal(have, expect)
