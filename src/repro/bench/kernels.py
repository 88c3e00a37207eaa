"""Kernel builders shared by the figure registry, tests and examples.

Each experiment has a *program* builder (``*_program``) constructing
the paper's CIN program over fresh tensors, plus a compiling wrapper
that hands callers a :class:`~repro.compiler.kernel.Kernel` and the
output tensor(s).  The split keeps compilation and execution
separable: calling a program builder twice yields
structurally-identical programs over distinct tensors, so the second
compile is a kernel-cache hit.
All wrappers accept ``instrument=True`` to compile the op-counting
variant used for asymptotic comparisons.
"""

import numpy as np

import repro.lang as fl
from repro.tensors.output import RunOutput

#: SpMSpV coiteration strategies from Figure 7 (plus a VBL-leader
#: variant showing protocols and formats compose freely).
SPMSPV_STRATEGIES = ("walk_walk", "lead_A", "follow_A", "gallop_both",
                     "vbl", "vbl_gallop")


def spmspv_program(mat, vec, strategy="walk_walk"):
    """The CIN program for ``y[i] += A[i, j] * x[j]`` (Figure 7)."""
    n_rows, n_cols = mat.shape
    fmt = ("dense", "vbl") if strategy.startswith("vbl") \
        else ("dense", "sparse")
    A = fl.from_numpy(mat, fmt, name="A")
    x = fl.from_numpy(vec, ("sparse",), name="x")
    y = fl.zeros(n_rows, name="y")
    i, j = fl.indices("i", "j")
    proto_a, proto_x = {
        "walk_walk": (fl.walk, fl.walk),
        "lead_A": (fl.gallop, fl.walk),
        "follow_A": (fl.walk, fl.gallop),
        "gallop_both": (fl.gallop, fl.gallop),
        "vbl": (fl.walk, fl.walk),
        "vbl_gallop": (fl.gallop, fl.gallop),
    }[strategy]
    prog = fl.forall(i, fl.forall(j, fl.increment(
        y[i], fl.access(A, i, proto_a(j)) * fl.access(x, proto_x(j)))))
    return prog, y


def spmspv(mat, vec, strategy="walk_walk", instrument=False):
    """``y[i] += A[i, j] * x[j]`` with the inner loop coiterating row
    and vector (the paper's Figure 7 kernel)."""
    prog, y = spmspv_program(mat, vec, strategy)
    kernel = fl.compile_kernel(prog, instrument=instrument)
    return kernel, y


def triangle_count_program(adj, protocol="walk"):
    """The CIN program for ``C[] += A[i,j] * A[j,k] * AT[i,k]``."""
    A = fl.from_numpy(adj, ("dense", "sparse"), name="A")
    AT = fl.from_numpy(adj, ("dense", "sparse"), name="AT")
    C = fl.Scalar(name="C")
    proto = {"walk": fl.walk, "gallop": fl.gallop}[protocol]
    i, j, k = fl.indices("i", "j", "k")
    # Only the innermost loop intersects two lists (rows j and i), so
    # that is where the protocol choice matters; j simply walks row i.
    prog = fl.forall(i, fl.forall(j, fl.forall(k, fl.increment(
        C[()],
        fl.access(A, i, fl.walk(j)) * fl.access(A, j, proto(k)) *
        fl.access(AT, i, proto(k))))))
    return prog, C


def triangle_count(adj, protocol="walk", instrument=False):
    """``C[] += A[i,j] * A[j,k] * AT[i,k]`` (Figure 8).

    The third operand is the transpose; adjacency matrices are
    symmetric so it shares the same dense data.
    """
    prog, C = triangle_count_program(adj, protocol)
    kernel = fl.compile_kernel(prog, instrument=instrument)
    return kernel, C


def masked_convolution_program(grid, filt):
    """The CIN program for the masked 2D convolution (Figure 9)."""
    n, m = grid.shape
    kh, kw = filt.shape
    ch, cw = kh // 2, kw // 2
    A = fl.from_numpy(grid, ("dense", "sparse"), name="A")
    Awin = fl.from_numpy(grid, ("dense", "sparse"), name="Awin")
    F = fl.from_numpy(filt, ("dense", "dense"), name="F")
    C = fl.zeros((n, m), name="C")
    i, k, j, l = fl.indices("i", "k", "j", "l")
    padded_a = fl.coalesce(fl.access(
        Awin,
        fl.permit(fl.offset(j, ch - i)),
        fl.permit(fl.offset(l, cw - k))), 0.0)
    padded_f = fl.coalesce(fl.access(F, fl.permit(j), fl.permit(l)), 0.0)
    mask = fl.ne(A[i, k], 0.0)
    body = fl.increment(C[i, k], mask * padded_a * padded_f)
    prog = fl.forall(i, fl.forall(k, fl.forall(
        j, fl.forall(l, body, ext=(0, kw)), ext=(0, kh))))
    return prog, C


def masked_convolution(grid, filt, instrument=False):
    """Masked 2D convolution over a sparse grid (Figure 9).

    ``C[i,k] += (A[i,k] != 0) * coalesce(A[...window...], 0)
    * coalesce(F[...], 0)`` — output positions restricted to the
    nonzeros of A, with permit/offset index modifiers forming the
    sliding window.
    """
    prog, C = masked_convolution_program(grid, filt)
    kernel = fl.compile_kernel(prog, instrument=instrument)
    return kernel, C


def dense_convolution_program(grid, filt):
    """The dense-baseline convolution program over all-dense formats."""
    n, m = grid.shape
    kh, kw = filt.shape
    ch, cw = kh // 2, kw // 2
    A = fl.from_numpy(grid, ("dense", "dense"), name="A")
    F = fl.from_numpy(filt, ("dense", "dense"), name="F")
    C = fl.zeros((n, m), name="C")
    i, k, j, l = fl.indices("i", "k", "j", "l")
    padded_a = fl.coalesce(fl.access(
        A, fl.permit(fl.offset(j, ch - i)),
        fl.permit(fl.offset(l, cw - k))), 0.0)
    padded_f = fl.coalesce(fl.access(F, fl.permit(j), fl.permit(l)), 0.0)
    body = fl.increment(C[i, k], padded_a * padded_f)
    prog = fl.forall(i, fl.forall(k, fl.forall(
        j, fl.forall(l, body, ext=(0, kw)), ext=(0, kh))))
    return prog, C


def dense_convolution(grid, filt, instrument=False):
    """The dense baseline: same program over all-dense formats."""
    prog, C = dense_convolution_program(grid, filt)
    kernel = fl.compile_kernel(prog, instrument=instrument)
    return kernel, C


def alpha_blend_program(img_b, img_c, alpha=0.5, beta=0.5, fmt="rle"):
    """The CIN program for the Figure 10 alpha blend."""
    n, m = img_b.shape
    row_fmt = {"rle": "rle", "sparse": "sparse", "dense": "dense"}[fmt]
    B = fl.from_numpy(img_b, ("dense", row_fmt), name="B", fill=0)
    C = fl.from_numpy(img_c, ("dense", row_fmt), name="C", fill=0)
    if fmt == "dense":
        A = fl.zeros((n, m), dtype=np.uint8, name="A")
    else:
        A = RunOutput((n, m), fill=0, dtype=np.uint8, name="A")
    i, j = fl.indices("i", "j")
    prog = fl.forall(i, fl.forall(j, fl.store(A[i, j], fl.call(
        fl.ops.ROUND_U8, alpha * B[i, j] + beta * C[i, j]))))
    return prog, A


def alpha_blend(img_b, img_c, alpha=0.5, beta=0.5, fmt="rle",
                instrument=False):
    """``A[i,j] = round_u8(alpha * B[i,j] + beta * C[i,j])`` (Figure 10).

    ``fmt`` selects the input row format; "rle" and "sparse" assemble
    the output as runs (RunOutput), "dense" writes a dense image.
    """
    prog, A = alpha_blend_program(img_b, img_c, alpha, beta, fmt)
    kernel = fl.compile_kernel(prog, instrument=instrument)
    return kernel, A


def all_pairs_similarity_program(images, fmt="vbl"):
    """The CIN program for Figure 11's pairwise distances."""
    count, pixels = images.shape
    data = images.astype(float)
    A = fl.from_numpy(data, ("dense", fmt), name="A")
    R = fl.zeros(count, name="R")
    O = fl.zeros((count, count), name="O")
    o = fl.Scalar(name="o")
    k, l, ij, ij2 = fl.indices("k", "l", "ij", "ij2")
    norms = fl.forall(k, fl.forall(ij2, fl.increment(
        R[k], A[k, ij2] * A[k, ij2])))
    inner = fl.forall(ij, fl.increment(o[()], A[k, ij] * A[l, ij]))
    distances = fl.forall(k, fl.forall(l, fl.where(
        fl.store(O[k, l], fl.call(fl.ops.SQRT, fl.maximum(
            R[k] + R[l] - 2.0 * o[()], 0.0))),
        inner)))
    prog = fl.multi(norms, distances)
    return prog, O


def all_pairs_similarity(images, fmt="vbl", instrument=False):
    """Pairwise Euclidean distances between linearized images
    (Figure 11): norms first, then
    ``O[k,l] = sqrt(R[k] + R[l] - 2*o[]) where (∀ij o[] += A[k,ij] *
    A[l,ij])``."""
    prog, O = all_pairs_similarity_program(images, fmt)
    kernel = fl.compile_kernel(prog, instrument=instrument)
    return kernel, O
