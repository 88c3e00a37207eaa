"""The canonical figure registry: one source of truth for the inputs
and programs of the six reproduced figures.

The persistent kernel store addresses kernels by structural key, and
structural keys embed tensor *shapes* — so ahead-of-time compilation
only pays off if the store warmer and everything that later compiles
a figure construct bit-for-bit the same program structures.  This
module is that single source: the input sizes, seeds, and program
builders live here; ``tests/paper/`` and ``perf/`` build their inputs
from them, and :func:`warm_start_programs` is the headline kernel per
figure that ``python -m repro.store warm`` compiles into the store
directory CI ships between jobs.

Suites (matrices, graphs, images) are memoized at module level: the
registry is consulted by the store warmer, tests and ``perf/`` alike,
and workload construction must not dominate any of them.
"""

import numpy as np

import repro.lang as fl
from repro.bench.kernels import (
    all_pairs_similarity_program,
    alpha_blend_program,
    masked_convolution_program,
    spmspv_program,
    triangle_count_program,
)
from repro.workloads import graphs, images, matrices

#: The six reproduced figures, in paper order.
FIGURES = ("fig1_dot", "fig7_spmspv", "fig8_triangles",
           "fig9_convolution", "fig10_alpha", "fig11_allpairs")

# -- Figure 1: list x band dot product ------------------------------------
FIG1_N = 4000
FIG1_BAND = (1700, 1780)
FIG1_LIST_NNZ = 400

# -- Figure 7: SpMSpV ------------------------------------------------------
FIG7_N = 250

# -- Figure 9: masked convolution -----------------------------------------
FIG9_GRID = 36
FIG9_FILTER = np.ones((5, 5)) / 25.0
FIG9_DENSITIES = (0.01, 0.02, 0.05, 0.10, 0.20)

# -- Figure 10: alpha blending --------------------------------------------
FIG10_ALPHA, FIG10_BETA = 0.4, 0.6
FIG10_FORMATS = ("dense", "sparse", "rle")
FIG10_KINDS = ("digit", "character", "sketch")

# -- Figure 11: all-pairs similarity --------------------------------------
FIG11_FORMATS = ("dense", "sparse", "vbl", "rle")
FIG11_COUNT = 6


def fig1_inputs(seed=0):
    """The list x band operand pair of Figure 1."""
    rng = np.random.default_rng(seed)
    a = np.zeros(FIG1_N)
    support = rng.choice(FIG1_N, FIG1_LIST_NNZ, replace=False)
    a[support] = rng.random(FIG1_LIST_NNZ) + 0.1
    b = np.zeros(FIG1_N)
    b[FIG1_BAND[0]:FIG1_BAND[1]] = \
        rng.random(FIG1_BAND[1] - FIG1_BAND[0]) + 0.1
    return a, b


def fig1_looplet_program(a, b):
    """``C[] += A[i] * B[i]`` over sparse-list x sparse-band."""
    A = fl.from_numpy(a, ("sparse",), name="A")
    B = fl.from_numpy(b, ("band",), name="B")
    C = fl.Scalar(name="C")
    i = fl.indices("i")
    return fl.forall(i, fl.increment(C[()], A[i] * B[i])), C


_SUITES = {}


def fig7_suite():
    """The Harwell-Boeing-like matrix suite (memoized)."""
    if "fig7" not in _SUITES:
        _SUITES["fig7"] = matrices.harwell_boeing_like_suite(FIG7_N,
                                                            seed=0)
    return _SUITES["fig7"]


def fig7_vector(regime, seed=0):
    """The x regimes of Figure 7a/7b."""
    if regime == "dense10pct":
        return matrices.sparse_vector(FIG7_N, density=0.10, seed=seed)
    return matrices.sparse_vector(FIG7_N, count=10, seed=seed)


def fig8_suite():
    """The SNAP-like graph suite (memoized)."""
    if "fig8" not in _SUITES:
        _SUITES["fig8"] = graphs.snap_like_suite(seed=0)
    return _SUITES["fig8"]


def fig9_grid(density, seed=0):
    return matrices.random_sparse_matrix(FIG9_GRID, FIG9_GRID, density,
                                         seed=seed)


def fig10_image_pair(kind, seed):
    first = images.image_batch(kind, 1, seed=seed)[0]
    second = images.image_batch(kind, 1, seed=seed + 100)[0]
    return first, second


def fig11_batch(kind, size, seed=3):
    return images.linearized_batch(kind, FIG11_COUNT, size=size,
                                   seed=seed)


def warm_start_programs():
    """One headline kernel per figure: the warm-start proof set.

    Each item is ``(figure, label, make_program, compile_opts)``;
    ``make_program`` builds a structurally-canonical program over
    fresh tensors on every call.  A warmed store carries exactly these
    figure kernels, and a fresh process compiling them against a
    warmed store (or a warmed kernel service) must see a 100% hit
    rate — zero kernels compiled
    (``tests/store/test_warm_start_figures.py``,
    ``tests/service/test_remote_warm_start.py``).
    """
    a, b = fig1_inputs()
    mat = fig7_suite()["pores_like_clustered"]
    vec = fig7_vector("dense10pct", seed=7)
    adj = fig8_suite()["ca_like_powerlaw"]
    grid = fig9_grid(0.05, seed=3)
    img_b, img_c = fig10_image_pair("digit", seed=1)
    batch = fig11_batch("digit", 20)
    return [
        ("fig1_dot", "list x band dot",
         lambda: fig1_looplet_program(a, b)[0], {}),
        ("fig7_spmspv", "spmspv walk_walk",
         lambda: spmspv_program(mat, vec, "walk_walk")[0], {}),
        ("fig8_triangles", "triangle count (gallop)",
         lambda: triangle_count_program(adj, "gallop")[0], {}),
        ("fig9_convolution", "masked convolution",
         lambda: masked_convolution_program(grid, FIG9_FILTER)[0], {}),
        ("fig10_alpha", "rle alpha blend",
         lambda: alpha_blend_program(img_b, img_c, FIG10_ALPHA,
                                     FIG10_BETA, "rle")[0], {}),
        ("fig11_allpairs", "all-pairs (vbl)",
         lambda: all_pairs_similarity_program(batch, "vbl")[0], {}),
    ]
