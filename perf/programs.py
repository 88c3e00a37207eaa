"""Inputs, ingest and program builders for the benchmark's kernels.

Three steps, kept apart so each workload pays only for what it times:

* :func:`raw_inputs` makes the numpy operands of one kernel from a
  seed.  The *sparsity structure* and every shape come from the
  paper-figure registry (:mod:`repro.bench.figures`), so the programs
  have the structural keys the AOT pack ships; the seed redraws the
  stored *values* only.  Run time of a coiteration kernel is a
  function of the structure, so two seeds do the same work and the
  benchmark compares commits, not datasets.
* :func:`ingest` is the ``fl.from_numpy`` calls and nothing else.
* :func:`build` constructs a fresh program object (and fresh output
  tensors) over already ingested operands.

:func:`reference` computes the expected output from the raw numpy
operands with :mod:`repro.baselines.dense_ref`-style numpy — never
with the compiler under test.
"""

import numpy as np

import repro.lang as fl
from repro.baselines import dense_ref
from repro.bench import figures
from repro.tensors.output import RunOutput

#: The six reproduced figure kernels, in paper order.
FIGS = ("fig1", "fig7", "fig8", "fig9", "fig10", "fig11")

#: Length of the small sparse x sparse dot (the dispatch workload).
DOT64_N = 64
DOT64_NNZ = 12


def _revalue(arr, rng):
    """``arr`` with its nonzeros redrawn, support unchanged.

    Floats are redrawn from [0.1, 1.1); uint8 images get a seeded
    bijection of the gray levels 1..255, which keeps every run of
    equal pixels a run."""
    arr = np.asarray(arr)
    if arr.dtype == np.uint8:
        palette = np.concatenate(
            [[0], rng.permutation(255) + 1]).astype(np.uint8)
        return palette[arr]
    out = arr.astype(float)
    support = out != 0
    out[support] = rng.random(int(support.sum())) + 0.1
    return out


def _revalue_symmetric(adj, rng):
    """Seeded symmetric weights on a symmetric 0/1 adjacency."""
    upper = np.triu(_revalue(adj, rng), 1)
    return upper + upper.T


def _sparse_vector(n, nnz, rng):
    vec = np.zeros(n)
    vec[rng.choice(n, nnz, replace=False)] = 1.0
    return vec


def raw_inputs(name, seed):
    """The numpy operands of kernel ``name`` (a dict, by role)."""
    rng = np.random.default_rng([seed, sum(map(ord, name))])
    if name == "fig1":
        a, b = figures.fig1_inputs()
        return {"a": _revalue(a, rng), "b": _revalue(b, rng)}
    if name == "fig7":
        mat = figures.fig7_suite()["pores_like_clustered"]
        vec = figures.fig7_vector("dense10pct", seed=7)
        return {"mat": _revalue(mat, rng), "vec": _revalue(vec, rng)}
    if name == "fig8":
        adj = figures.fig8_suite()["ca_like_powerlaw"]
        return {"adj": _revalue_symmetric(adj, rng)}
    if name == "fig9":
        grid = figures.fig9_grid(0.05, seed=3)
        return {"grid": _revalue(grid, rng),
                "filt": figures.FIG9_FILTER}
    if name == "fig10":
        img_b, img_c = figures.fig10_image_pair("digit", seed=1)
        return {"img_b": _revalue(img_b, rng),
                "img_c": _revalue(img_c, rng)}
    if name == "fig11":
        return {"images": _revalue(figures.fig11_batch("digit", 20),
                                   rng)}
    if name == "dot64":
        structure = np.random.default_rng(64)
        return {"a": _revalue(_sparse_vector(DOT64_N, DOT64_NNZ,
                                             structure), rng),
                "b": _revalue(_sparse_vector(DOT64_N, DOT64_NNZ,
                                             structure), rng)}
    raise KeyError(name)


def ingest(name, raw):
    """The ingested operand tensors of kernel ``name`` (a dict by
    tensor name): exactly the ``fl.from_numpy`` calls a user makes."""
    if name == "fig1":
        return {"A": fl.from_numpy(raw["a"], ("sparse",), name="A"),
                "B": fl.from_numpy(raw["b"], ("band",), name="B")}
    if name == "fig7":
        return {"A": fl.from_numpy(raw["mat"], ("dense", "sparse"),
                                   name="A"),
                "x": fl.from_numpy(raw["vec"], ("sparse",), name="x")}
    if name == "fig8":
        return {"A": fl.from_numpy(raw["adj"], ("dense", "sparse"),
                                   name="A"),
                "AT": fl.from_numpy(raw["adj"], ("dense", "sparse"),
                                    name="AT")}
    if name == "fig9":
        return {"A": fl.from_numpy(raw["grid"], ("dense", "sparse"),
                                   name="A"),
                "Awin": fl.from_numpy(raw["grid"], ("dense", "sparse"),
                                      name="Awin"),
                "F": fl.from_numpy(raw["filt"], ("dense", "dense"),
                                   name="F")}
    if name == "fig10":
        return {"B": fl.from_numpy(raw["img_b"], ("dense", "rle"),
                                   name="B", fill=0),
                "C": fl.from_numpy(raw["img_c"], ("dense", "rle"),
                                   name="C", fill=0)}
    if name == "fig11":
        return {"A": fl.from_numpy(raw["images"].astype(float),
                                   ("dense", "vbl"), name="A")}
    if name == "dot64":
        return {"A": fl.from_numpy(raw["a"], ("sparse",), name="A"),
                "B": fl.from_numpy(raw["b"], ("sparse",), name="B")}
    raise KeyError(name)


def build(name, t):
    """``(program, output)``: a fresh program over ingested operands
    ``t``, writing a fresh output tensor."""
    if name in ("fig1", "dot64"):
        C = fl.Scalar(name="C")
        i = fl.indices("i")
        return fl.forall(i, fl.increment(C[()], t["A"][i] * t["B"][i])), C
    if name == "fig7":
        A, x = t["A"], t["x"]
        y = fl.zeros(A.shape[0], name="y")
        i, j = fl.indices("i", "j")
        return fl.forall(i, fl.forall(j, fl.increment(
            y[i], fl.access(A, i, fl.walk(j))
            * fl.access(x, fl.walk(j))))), y
    if name == "fig8":
        A, AT = t["A"], t["AT"]
        C = fl.Scalar(name="C")
        i, j, k = fl.indices("i", "j", "k")
        return fl.forall(i, fl.forall(j, fl.forall(k, fl.increment(
            C[()],
            fl.access(A, i, fl.walk(j)) * fl.access(A, j, fl.gallop(k))
            * fl.access(AT, i, fl.gallop(k)))))), C
    if name == "fig9":
        A, Awin, F = t["A"], t["Awin"], t["F"]
        kh, kw = F.shape
        ch, cw = kh // 2, kw // 2
        C = fl.zeros(A.shape, name="C")
        i, k, j, l = fl.indices("i", "k", "j", "l")
        padded_a = fl.coalesce(fl.access(
            Awin, fl.permit(fl.offset(j, ch - i)),
            fl.permit(fl.offset(l, cw - k))), 0.0)
        padded_f = fl.coalesce(
            fl.access(F, fl.permit(j), fl.permit(l)), 0.0)
        body = fl.increment(
            C[i, k], fl.ne(A[i, k], 0.0) * padded_a * padded_f)
        return fl.forall(i, fl.forall(k, fl.forall(
            j, fl.forall(l, body, ext=(0, kw)), ext=(0, kh)))), C
    if name == "fig10":
        B, C = t["B"], t["C"]
        A = RunOutput(B.shape, fill=0, dtype=np.uint8, name="A")
        i, j = fl.indices("i", "j")
        return fl.forall(i, fl.forall(j, fl.store(A[i, j], fl.call(
            fl.ops.ROUND_U8, figures.FIG10_ALPHA * B[i, j]
            + figures.FIG10_BETA * C[i, j])))), A
    if name == "fig11":
        A = t["A"]
        count = A.shape[0]
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
        return fl.multi(norms, distances), O
    raise KeyError(name)


def reference(name, raw):
    """The expected output of kernel ``name``, from numpy alone."""
    if name in ("fig1", "dot64"):
        return dense_ref.dot_numpy(raw["a"], raw["b"])
    if name == "fig7":
        return dense_ref.spmv_numpy(raw["mat"], raw["vec"])
    if name == "fig8":
        adj = raw["adj"]
        return float(((adj @ adj) * adj).sum())
    if name == "fig9":
        return dense_ref.masked_convolve2d_numpy(raw["grid"],
                                                 raw["filt"])
    if name == "fig10":
        return dense_ref.alpha_blend_numpy(
            raw["img_b"], raw["img_c"], figures.FIG10_ALPHA,
            figures.FIG10_BETA)
    if name == "fig11":
        return dense_ref.all_pairs_numpy(raw["images"])
    raise KeyError(name)


def value_of(output):
    """The numpy value a kernel left in ``output``."""
    if isinstance(output, fl.Scalar):
        return float(output.value)
    return output.to_numpy()


def matches(name, got, expected):
    """Whether a kernel output equals its reference: bit-identical
    for the integer image blend, ``rtol=1e-9`` where the reference
    sums floats in another order."""
    got, expected = np.asarray(got), np.asarray(expected)
    if got.shape != expected.shape:
        return False
    if name == "fig10":
        return got.dtype == expected.dtype and bool(
            np.array_equal(got, expected))
    return bool(np.allclose(got, expected, rtol=1e-9, atol=1e-12))


# -- ingest workload inputs ---------------------------------------------

#: kind -> (formats, fill) of the ``ingest`` workload.
INGEST_KINDS = {
    "vec_sparse": (("sparse",), 0.0),
    "vec_band": (("band",), 0.0),
    "mat_sparse": (("dense", "sparse"), 0.0),
    "mat_vbl": (("dense", "vbl"), 0.0),
    "img_rle": (("dense", "rle"), 0),
    "img_packbits": (("dense", "packbits"), 0),
}


def ingest_arrays(seed):
    """kind -> numpy array for the ``ingest`` workload: the fig1
    vectors, the fig7 matrix, and a character-like image (nonzero
    paper tone, so runs matter and sparsity does not)."""
    from repro.workloads import images

    rng = np.random.default_rng([seed, 1])
    fig1 = raw_inputs("fig1", seed)
    mat = raw_inputs("fig7", seed)["mat"]
    image = _revalue(images.character_like(32, seed=0), rng)
    return {"vec_sparse": fig1["a"], "vec_band": fig1["b"],
            "mat_sparse": mat, "mat_vbl": mat,
            "img_rle": image, "img_packbits": image}


# -- batch workload inputs ------------------------------------------------

def batch_matrices(seed):
    """The seven HB-like matrices of the ``batch_map`` workload."""
    rng = np.random.default_rng([seed, 2])
    return [_revalue(mat, rng) for mat in figures.fig7_suite().values()]


def batch_vector(seed):
    rng = np.random.default_rng([seed, 3])
    return _revalue(figures.fig7_vector("dense10pct", seed=7), rng)
