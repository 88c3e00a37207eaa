"""Design ablations as instrumented operation counts: galloping vs
stepping, locate vs bitmap-switch, and the run-summation rewrite."""

import numpy as np
import pytest

import repro.lang as fl
from repro.bench.harness import Table


def _intersect_ops(a, b, proto):
    A = fl.from_numpy(a, ("sparse",), name="A")
    B = fl.from_numpy(b, ("sparse",), name="B")
    C = fl.Scalar(name="C")
    i = fl.indices("i")
    marker = {"walk": fl.walk, "gallop": fl.gallop}[proto]
    prog = fl.forall(i, fl.increment(
        C[()], fl.access(A, marker(i)) * fl.access(B, marker(i))))
    ops = fl.compile_kernel(prog, instrument=True).run()
    assert C.value == pytest.approx(float(a @ b))
    return ops


def test_gallop_crossover():
    """A1: intersect two sparse vectors whose nonzero counts differ by
    a swept ratio.  Stepping costs O(nnz_a + nnz_b); galloping costs
    O(min * log(max/min)).  The crossover is the design rationale for
    jumper-before-stepper priority in Section 6.2."""
    n, small = 20000, 12
    table = Table("Ablation A1: stepping vs galloping intersection work",
                  ["nnz ratio", "walk ops", "gallop ops",
                   "gallop speedup"])
    speedups = {}
    for ratio in (1, 4, 16, 64, 256):
        rng = np.random.default_rng(5)
        a = np.zeros(n)
        a[rng.choice(n, small, replace=False)] = 1.0
        b = np.zeros(n)
        b[rng.choice(n, small * ratio, replace=False)] = 1.0
        walk_ops = _intersect_ops(a, b, "walk")
        gallop_ops = _intersect_ops(a, b, "gallop")
        speedups[ratio] = walk_ops / max(gallop_ops, 1)
        table.add(ratio, walk_ops, gallop_ops, speedups[ratio])
    table.show()
    # Galloping must win increasingly as the skew grows, and by a lot
    # at the extreme.
    assert speedups[256] > speedups[1]
    assert speedups[256] > 10.0


def _dot_ops(sparse_side, dense_side, fmt):
    A = fl.from_numpy(sparse_side, (fmt,), name="A")
    B = fl.from_numpy(dense_side, ("dense",), name="B")
    C = fl.Scalar(name="C")
    i = fl.indices("i")
    prog = fl.forall(i, fl.increment(C[()], A[i] * B[i]))
    ops = fl.compile_kernel(prog, instrument=True).run()
    assert C.value == pytest.approx(float(sparse_side @ dense_side))
    return ops


def test_locate_ablation():
    """A3 (Fig. 6b/6c): random access into dense storage treats every
    slot as a potential nonzero; the bitmap protocol wraps each access
    in a switch on the occupancy table, letting zero-annihilation skip
    the multiply."""
    n = 6000
    table = Table("Ablation A3: locate (dense) vs bitmap-switch work",
                  ["density", "dense ops", "bitmap ops", "bitmap gain"])
    gains = {}
    for density in (0.01, 0.1, 0.5, 1.0):
        rng = np.random.default_rng(4)
        sparse_side = np.zeros(n)
        support = rng.choice(n, max(1, int(n * density)), replace=False)
        sparse_side[support] = rng.random(len(support)) + 0.1
        dense_side = rng.random(n)
        dense_ops = _dot_ops(sparse_side, dense_side, "dense")
        bitmap_ops = _dot_ops(sparse_side, dense_side, "bitmap")
        gains[density] = dense_ops / max(bitmap_ops, 1)
        table.add(density, dense_ops, bitmap_ops, gains[density])
    table.show()
    # The bitmap's update skipping pays off only in sparse regimes —
    # at full density the extra branch is pure overhead.
    assert gains[0.01] > gains[1.0]


def _rle_sum_ops(vec, rewrite):
    R = fl.from_numpy(vec, ("rle",), name="R")
    S = fl.Scalar(name="S")
    i = fl.indices("i")
    prog = fl.forall(i, fl.increment(S[()], R[i]))
    ops = fl.compile_kernel(prog, instrument=True,
                            constant_loop_rewrite=rewrite).run()
    assert S.value == pytest.approx(vec.sum())
    return ops


def test_rewrite_ablation():
    """A2: Figure 5's last rule turns ``@loop i ∈ a:b C[] += v`` into
    one scaled update.  With the rewrite off, summing run-length-
    encoded data degenerates to per-element work; with it on, work is
    O(runs) — what makes RLE reductions (Figures 10/11) viable."""
    total = 12000
    table = Table("Ablation A2: run-summation rewrite on RLE reductions",
                  ["run length", "ops (rewrite off)", "ops (rewrite on)",
                   "speedup"])
    gains = {}
    for run_length in (1, 10, 100, 1000):
        rng = np.random.default_rng(2)
        vec = np.repeat(
            rng.integers(1, 9, size=total // run_length).astype(float),
            run_length)
        off_ops = _rle_sum_ops(vec, rewrite=False)
        on_ops = _rle_sum_ops(vec, rewrite=True)
        gains[run_length] = off_ops / max(on_ops, 1)
        table.add(run_length, off_ops, on_ops, gains[run_length])
    table.show()
    # The rewrite's win scales with run length.
    assert gains[1000] > gains[10] > gains[1] * 0.99
    assert gains[1000] > 50
