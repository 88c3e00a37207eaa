"""The paper's figures as instrumented operation counts.

Every claim here is about *work*, counted by ``instrument=True``
kernels and by the step counters of the hand-written two-finger
baselines (:mod:`repro.baselines.twofinger`), so nothing depends on
the machine.  ``python -m pytest tests/paper -s`` prints the tables;
wall-clock is ``perf/``'s job (docs/benchmarks.md).
"""

import numpy as np
import pytest

import repro.lang as fl
from repro.baselines import dense_ref, twofinger
from repro.bench.figures import (
    FIG9_DENSITIES,
    FIG9_FILTER,
    FIG9_GRID,
    FIG10_ALPHA,
    FIG10_BETA,
    FIG10_FORMATS,
    FIG10_KINDS,
    FIG11_COUNT,
    FIG11_FORMATS,
    fig1_inputs,
    fig1_looplet_program,
    fig7_suite,
    fig7_vector,
    fig8_suite,
    fig9_grid,
    fig10_image_pair,
    fig11_batch,
)
from repro.bench.harness import Table, summarize
from repro.bench.kernels import (
    SPMSPV_STRATEGIES,
    all_pairs_similarity,
    alpha_blend,
    dense_convolution,
    masked_convolution,
    spmspv,
    triangle_count,
)
from repro.workloads import graphs


def test_fig1():
    """Figure 1: an iterator-over-nonzeros two-finger merge visits
    every nonzero of both operands; the looplet kernel skips to the
    band and randomly accesses it."""
    a, b = fig1_inputs()
    program, C = fig1_looplet_program(a, b)
    looplet_ops = fl.compile_kernel(program, instrument=True).run()
    assert C.value == pytest.approx(float(a @ b))
    a_idx, a_val = twofinger.coords_of(a)
    b_idx, b_val = twofinger.coords_of(b)
    _, merge_steps = twofinger.dot_merge(a_idx, a_val, b_idx, b_val)

    table = Table("Figure 1: list x band dot product (work counts)",
                  ["strategy", "ops", "vs merge"])
    table.add("two-finger merge (TACO model)", merge_steps, 1.0)
    table.add("looplets (skip + random access)", looplet_ops,
              merge_steps / max(looplet_ops, 1))
    table.show()
    # The looplet kernel's work tracks the band overlap, not total nnz.
    assert looplet_ops < merge_steps


@pytest.mark.parametrize("regime", ["dense10pct", "count10"])
def test_fig7(regime):
    """Figure 7a/7b: SpMSpV work speedups over the TACO-model merge,
    across the Harwell-Boeing-like suite (the figure's boxes as
    min/median/max), with x 10% dense and with exactly 10 nonzeros."""
    vec = fig7_vector(regime, seed=7)
    speedups = {s: [] for s in SPMSPV_STRATEGIES}
    for mat in fig7_suite().values():
        pos, idx, val = twofinger.csr_of(mat)
        x_idx, x_val = twofinger.coords_of(vec)
        ref, merge_steps = twofinger.spmspv_merge(
            pos, idx, val, x_idx, x_val, mat.shape[0])
        for strategy in SPMSPV_STRATEGIES:
            kernel, y = spmspv(mat, vec, strategy, instrument=True)
            ops = kernel.run()
            np.testing.assert_allclose(y.to_numpy(), ref)
            speedups[strategy].append(merge_steps / max(ops, 1))
    table = Table("Figure 7 (%s): SpMSpV work speedup vs two-finger "
                  "merge over HB-like suite" % regime,
                  ["strategy", "min", "median", "max"])
    for strategy, values in speedups.items():
        table.add(strategy, *summarize(values))
    table.show()
    if regime == "count10":
        # With a very sparse x, skipping strategies beat plain walking
        # somewhere in the suite (the paper's big-win regime).
        best_skip = max(max(speedups["follow_A"]),
                        max(speedups["vbl"]))
        assert best_skip > max(speedups["walk_walk"])


def test_fig8():
    """Figure 8: galloping intersections beat merge-based triangle
    counting on skewed degree distributions."""
    table = Table("Figure 8: triangle counting work (merge steps / ops)",
                  ["graph", "taco merge", "finch walk", "finch gallop",
                   "gallop speedup"])
    gallop_wins = []
    for name, adj in fig8_suite().items():
        expected = graphs.triangle_count_reference(adj)
        pos, idx = graphs.adjacency_to_csr(adj)
        count, merge_steps = twofinger.triangle_count_merge(
            pos, idx, adj.shape[0])
        assert count == expected
        ops = {}
        for protocol in ("walk", "gallop"):
            kernel, C = triangle_count(adj, protocol, instrument=True)
            ops[protocol] = kernel.run()
            assert C.value == expected
        gallop_wins.append(merge_steps / max(ops["gallop"], 1))
        table.add(name, merge_steps, ops["walk"], ops["gallop"],
                  gallop_wins[-1])
    table.show()
    # Galloping beats the merge model on the skewed graphs.
    assert max(gallop_wins) > 1.0


def test_fig9():
    """Figure 9: the masked (sparse) convolution's work scales with
    density and overtakes the dense kernel at low density."""
    table = Table("Figure 9: convolution work vs density "
                  "(5x5 filter, %dx%d grid)" % (FIG9_GRID, FIG9_GRID),
                  ["density", "dense ops", "sparse ops",
                   "sparse speedup"])
    speedup_at = {}
    for density in FIG9_DENSITIES:
        grid = fig9_grid(density, seed=3)
        dense_kernel, _ = dense_convolution(grid, FIG9_FILTER,
                                            instrument=True)
        dense_ops = dense_kernel.run()
        sparse_kernel, C = masked_convolution(grid, FIG9_FILTER,
                                              instrument=True)
        sparse_ops = sparse_kernel.run()
        np.testing.assert_allclose(
            C.to_numpy(),
            dense_ref.masked_convolve2d_numpy(grid, FIG9_FILTER),
            atol=1e-12)
        speedup_at[density] = dense_ops / max(sparse_ops, 1)
        table.add(density, dense_ops, sparse_ops, speedup_at[density])
    table.show()
    # The paper's shape: sparse wins at low density, and the advantage
    # shrinks as density rises.
    assert speedup_at[0.01] > speedup_at[0.20]
    assert speedup_at[0.01] > 2.0


def test_fig10():
    """Figure 10: RLE alpha blending does work per run, so it wins
    whenever background runs dominate the image."""
    shapes = {}
    pairs = 4
    for kind in FIG10_KINDS:
        table = Table("Figure 10 (%s-like images): alpha blending work, "
                      "mean of %d pairs" % (kind, pairs),
                      ["format", "mean ops", "vs dense"])
        totals = {fmt: 0 for fmt in FIG10_FORMATS}
        for pair in range(pairs):
            img_b, img_c = fig10_image_pair(kind, seed=10 + pair)
            expected = dense_ref.alpha_blend_numpy(
                img_b, img_c, FIG10_ALPHA, FIG10_BETA)
            for fmt in FIG10_FORMATS:
                kernel, out = alpha_blend(img_b, img_c, FIG10_ALPHA,
                                          FIG10_BETA, fmt,
                                          instrument=True)
                totals[fmt] += kernel.run()
                np.testing.assert_array_equal(out.to_numpy(), expected)
        for fmt in FIG10_FORMATS:
            table.add(fmt, totals[fmt] / pairs,
                      totals["dense"] / max(totals[fmt], 1))
        table.show()
        shapes[kind] = totals
    assert shapes["sketch"]["rle"] < shapes["sketch"]["dense"]
    assert shapes["digit"]["rle"] < shapes["digit"]["dense"]


def test_fig11():
    """Figure 11: all-pairs image similarity.  VBL exploits the white
    background and clustered ink of digit images; RLE is better on
    noisier Omniglot-like backgrounds; dense does the most work."""
    results = {}
    for kind, size in (("digit", 20), ("character", 24)):
        table = Table("Figure 11 (%s-like images, %d images of %dx%d)"
                      % (kind, FIG11_COUNT, size, size),
                      ["format", "ops", "vs dense"])
        data = fig11_batch(kind, size)
        expected = dense_ref.all_pairs_numpy(data)
        ops = {}
        for fmt in FIG11_FORMATS:
            kernel, O = all_pairs_similarity(data, fmt,
                                             instrument=True)
            ops[fmt] = kernel.run()
            np.testing.assert_allclose(O.to_numpy(), expected,
                                       atol=1e-9)
            table.add(fmt, ops[fmt], ops["dense"] / max(ops[fmt], 1))
        table.show()
        results[kind] = ops
    # Structured formats beat dense on white-background images, with
    # VBL the strongest on clustered digit ink (the paper's shape).
    assert results["digit"]["vbl"] < results["digit"]["dense"]
    assert results["digit"]["vbl"] < results["digit"]["sparse"]
    # On Omniglot-like images the uniform nonzero paper tone defeats
    # sparse and VBL, while RLE still sees long runs (the paper's
    # Figure 11 inversion).
    assert results["character"]["rle"] < results["character"]["sparse"]
    assert results["character"]["rle"] < results["character"]["vbl"]
