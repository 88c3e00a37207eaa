"""Work may not grow: the exact instrumented op count of the six
headline figure kernels, at every opt level and on both backends.

The counts are the machine-independent half of a performance
regression gate — a lowering or optimizer change that makes a kernel
do more (or, unannounced, less) work fails here, on any box.  They
equal ``perf/``'s ``run.ops.*`` leaves.  A change that moves one on
purpose updates the number in the same commit and says why.
"""

import pytest

from repro.bench.figures import warm_start_programs
from repro.compiler.kernel import compile_kernel
from repro.ir.runtime import kernel_globals

PINNED_OPS = {
    "fig1_dot": 12,
    "fig7_spmspv": 7399,
    # 50702 until a galloping step whose widest stride passes the loop's
    # stop ended the loop: it used to seek both rows and walk the rest
    # of the shorter one, whose products are all zero.
    "fig8_triangles": 48990,
    "fig9_convolution": 930,
    "fig10_alpha": 388,
    "fig11_allpairs": 2526,
}


PROGRAMS = {figure: (make_program, opts)
            for figure, _, make_program, opts in warm_start_programs()}


def test_every_figure_is_pinned():
    assert list(PROGRAMS) == list(PINNED_OPS)


#: The lowered tree, and the default level's python and C kernels (C
#: prints the hoisted tree before ``vectorize``).
@pytest.mark.parametrize("opt_level,backend",
                         [(0, "python"), (2, "python"), (2, "c")])
@pytest.mark.parametrize("figure", list(PINNED_OPS))
def test_pinned_op_count(figure, opt_level, backend):
    make_program, opts = PROGRAMS[figure]
    kernel = compile_kernel(make_program(), instrument=True,
                            opt_level=opt_level, backend=backend, **opts)
    assert kernel.run() == PINNED_OPS[figure]


@pytest.mark.parametrize("figure", list(PINNED_OPS))
def test_the_step_calls_no_builtin(figure):
    # The coiteration step's min/max, the padding's coalesce and fig10's
    # round_u8 print as conditional expressions: no kernel calls them,
    # and the kernel namespace binds none of them.
    assert not {"min", "max", "_coalesce", "_round_u8"} & set(kernel_globals())
    make_program, opts = PROGRAMS[figure]
    for opt_level in (0, 2):
        kernel = compile_kernel(make_program(), instrument=True,
                                opt_level=opt_level, cache=False, **opts)
        for call in ("min(", "max(", "_coalesce(", "_round_u8("):
            assert call not in kernel.source
        assert kernel.run() == PINNED_OPS[figure]
