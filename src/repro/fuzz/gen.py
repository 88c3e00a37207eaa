"""Seeded random CIN program generation.

The generator draws a *case spec* — a plain JSON-safe dict — from a
``random.Random(seed)`` stream, and :func:`build_case` turns a spec
into fresh tensors plus a CIN program.  The split matters twice over:

* a spec is reproducible (the same seed always yields the same spec,
  and a spec round-trips through JSON), so every failure the
  conformance runner finds can be replayed from a few bytes; and
* a spec is *shrinkable*: the delta-debugging shrinker
  (:mod:`repro.fuzz.shrink`) edits specs, never programs, so every
  reduction step stays inside the grammar the generator defines.

The grammar composes the full registered surface: every level format
(dense / sparse / band / vbl / rle / bitmap / ragged / packbits, with
rle and packbits restricted to the innermost mode), every access
protocol a format supports (walk, and gallop where offered), and the
index-modifier chains whose domain semantics the reference interpreter
pins down (offset with or without permit, nested offsets, windows, and
offset-of-window — the shift-of-truncate composition).  Data is
integer-valued floats, so every oracle comparison can demand
bit-identical results (see :mod:`repro.fuzz.conform`).

Loop extents are always explicit, computed as the intersection of each
operand chain's valid index range; an empty intersection is kept (a
zero-trip loop is a legitimate — and historically bug-prone — case).
"""

import random

import numpy as np

import repro.lang as fl
from repro.formats import FORMATS, format_names

# The format lists are the registry's (``repro.formats.FORMATS``), in
# its order: the seeded draws below index into them.
#: Formats legal in any mode.
FORMATS_ANY = format_names(leaf_only=False)
#: Formats legal only in the innermost mode (value-compressing leaves).
FORMATS_LEAF_ONLY = format_names(leaf_only=True)
#: Formats legal in the innermost mode.
FORMATS_INNER = FORMATS_ANY + FORMATS_LEAF_ONLY

#: Program templates.  ``arity`` is the operand rank, ``outputs`` the
#: kind of result tensor.  ``outer`` nests ``T1``'s loops under a loop
#: the output omits: ``OUT[j] += T0[i] * T1[j]`` for a vector ``T1``,
#: ``OUT[i, k] += T0[j] * T1[i, k]`` for a matrix.
TEMPLATES = ("reduce", "map", "reduce2d", "map2d", "spmv", "copy_out",
             "outer")

#: Templates looping ``i`` then ``j`` over rank-2 operands.
_MATRIX_TEMPLATES = ("reduce2d", "map2d", "copy_out")

#: The append outputs ``copy_out`` stores into, by their spec name.
APPEND_OUTPUTS = {"run": fl.RunOutput, "sparse": fl.SparseOutput}

#: Reduction operators drawn for ``increment``/``reduce_into``.
ACCUM_OPS = ("add", "min", "max")
#: Operators combining multiple operand accesses into one expression.
COMBINE_OPS = ("mul", "add", "min", "max")

#: Index-modifier chain kinds (see :func:`chain_extent` for domains).
CHAIN_KINDS = ("plain", "offset", "offset_exact", "offset2", "window",
               "offset_of_window")

_MARKERS = {"walk": fl.walk, "gallop": fl.gallop}


class GenError(ValueError):
    """A spec violates the generator grammar."""


# ---------------------------------------------------------------------------
# Spec drawing
# ---------------------------------------------------------------------------
def _draw_values(rng, n, lo=-3, hi=3):
    """Integer-valued floats with one of several structural shapes, so
    every format's stored/absent paths get exercised."""
    shape = rng.choice(("scatter", "band", "runs", "dense", "empty"))
    values = [float(rng.randint(lo, hi)) for _ in range(n)]
    if shape == "scatter":
        values = [v if rng.random() < 0.5 else 0.0 for v in values]
    elif shape == "band":
        b_lo = rng.randrange(n) if n else 0
        b_hi = rng.randint(b_lo, n)
        values = [v if b_lo <= k < b_hi else 0.0
                  for k, v in enumerate(values)]
    elif shape == "runs":
        pool = [float(rng.randint(0, 2)) for _ in range(3)]
        values = sorted(rng.choice(pool) for _ in range(n))
    elif shape == "empty":
        values = [0.0] * n
    return values


def _draw_chain(rng, n, profile):
    """One index-modifier chain valid for a dimension of size ``n``."""
    weights = (("plain",) * 6 + ("offset", "offset_exact", "window") * 2
               + ("offset2", "offset_of_window"))
    kind = rng.choice(weights)
    if kind == "plain" or n == 0:
        return {"kind": "plain"}
    if kind == "offset":
        return {"kind": "offset", "delta": rng.randint(-n - 2, n + 2)}
    if kind == "offset_exact":
        return {"kind": "offset_exact", "delta": rng.randint(-n, n)}
    if kind == "offset2":
        return {"kind": "offset2", "d1": rng.randint(-n, n),
                "d2": rng.randint(-n, n)}
    lo = rng.randrange(n)
    hi = rng.randint(lo, n)
    if kind == "window":
        return {"kind": "window", "lo": lo, "hi": hi}
    return {"kind": "offset_of_window", "lo": lo, "hi": hi,
            "delta": rng.randint(-2, 2)}


def chain_extent(chain, n):
    """The loop-index range ``[lo, hi)`` a chain accepts for an operand
    dimension of size ``n`` (the reference interpreter's domain rules).
    """
    kind = chain["kind"]
    if kind == "plain":
        return 0, n
    if kind == "offset":
        return 0, n  # permit-wrapped: out-of-bounds reads are missing
    if kind == "offset_exact":
        delta = chain["delta"]
        return max(0, delta), min(n, n + delta)
    if kind == "offset2":
        return 0, n  # permit-wrapped
    if kind == "window":
        return 0, chain["hi"] - chain["lo"]
    if kind == "offset_of_window":
        # offset(window(i, lo, hi), d) reads coordinate lo + i - d;
        # the window clips the reachable range to [lo, hi) inside the
        # offset-translated tensor domain [d, n + d).
        lo, hi, delta = chain["lo"], chain["hi"], chain["delta"]
        ext_lo = max(0, delta - lo)
        ext_hi = min(hi - lo, n + delta - lo)
        return ext_lo, max(ext_lo, ext_hi)
    raise GenError("unknown chain kind %r" % (kind,))


def chain_needs_coalesce(chain):
    """Whether the chain can evaluate to ``missing`` (permit inside)."""
    return chain["kind"] in ("offset", "offset2")


def _chain_expr(chain, idx):
    """The index expression for ``chain`` over loop variable ``idx``."""
    kind = chain["kind"]
    if kind == "plain":
        return idx
    if kind == "offset":
        return fl.permit(fl.offset(idx, chain["delta"]))
    if kind == "offset_exact":
        return fl.offset(idx, chain["delta"])
    if kind == "offset2":
        return fl.permit(fl.offset(fl.offset(idx, chain["d1"]),
                                   chain["d2"]))
    if kind == "window":
        return fl.window(idx, chain["lo"], chain["hi"])
    if kind == "offset_of_window":
        # Shift-of-truncate: the looplet-level composition the paper's
        # Section 6.1 combinators implement.  No permit — the compiler
        # cannot window an unbounded access — so the loop extent is
        # clipped exactly instead (see :func:`chain_extent`).
        return fl.offset(fl.window(idx, chain["lo"], chain["hi"]),
                         chain["delta"])
    raise GenError("unknown chain kind %r" % (kind,))


def _draw_operand(rng, name, dims, profile, leaf_ok=True):
    """One operand spec: data, per-mode formats/protocols/chains."""
    ndim = len(dims)
    formats = []
    protocols = []
    chains = []
    for mode, n in enumerate(dims):
        innermost = mode == ndim - 1
        pool = FORMATS_INNER if (innermost and leaf_ok) else FORMATS_ANY
        fmt = rng.choice(pool)
        formats.append(fmt)
        protocols.append(rng.choice(FORMATS[fmt].PROTOCOLS))
        chains.append(_draw_chain(rng, n, profile))
    if ndim == 1:
        data = _draw_values(rng, dims[0])
    else:
        data = [_draw_values(rng, dims[1]) for _ in range(dims[0])]
    return {"name": name, "data": data, "formats": formats,
            "protocols": protocols, "chains": chains}


def _max_len(profile):
    return {"quick": 10, "deep": 24}.get(profile, 10)


#: The share of ``quick`` and ``deep`` seeds drawn as a *meet*: two
#: plain walked sparse lists multiplied and summed, the shape the
#: lowerer steps by a three-way stride compare
#: (``Lowerer._three_way_step``), which the other templates rarely
#: draw.  The ``narrow`` profile draws none.
MEET_SHARE = 0.1


def _draw_meet(seed, profile):
    """The meet spec of ``seed``, from a stream of its own, or None
    for the seeds (all but :data:`MEET_SHARE`) that draw no meet."""
    rng = random.Random("meet:%d" % seed)
    if rng.random() >= MEET_SHARE:
        return None
    template = rng.choice(("reduce", "map"))
    n = rng.randint(2, _max_len(profile))
    spec = {"seed": seed, "template": template, "combine": "mul",
            "operands": [{"name": "T%d" % k, "data": _draw_values(rng, n),
                          "formats": ["sparse"], "protocols": ["walk"],
                          "chains": [{"kind": "plain"}]}
                         for k in range(2)]}
    if template == "map":
        spec["store"] = False
    else:
        spec["accum"] = "add"
    return spec


#: The element dtypes the ``narrow`` profile draws per operand: each
#: one's range for the drawn values (-3..3), and the factor they are
#: scaled by in the templates that store each output element once.
#: There ``uint8`` sums and products wrap and ``float32`` products
#: round; an accumulation over a loop keeps the small values, whose
#: results are exact in every width.
DTYPES = {"float64": (-3, 3, 1), "int64": (-3, 3, 1), "uint8": (0, 3, 85),
          "float32": (-3, 3, 4099), "bool": (0, 1, 1)}


def _draw_dtypes(seed, spec):
    """Give every operand of ``spec`` a ``dtype``, drawn from a stream of
    its own so that the rest of the spec is the ``quick`` one (unless
    that is a meet), and bring its values into the dtype's range."""
    rng = random.Random("dtype:%d" % seed)
    stores_once = spec["template"] in ("map", "map2d", "copy_out")
    dtype = rng.choice(sorted(DTYPES))
    for operand in spec["operands"]:
        # Half the operands keep the previous one's dtype: two
        # ``uint8`` operands are what wraps.
        if rng.random() < 0.5:
            dtype = rng.choice(sorted(DTYPES))
        operand["dtype"] = dtype
        lo, hi, scale = DTYPES[dtype]
        scale = scale if stores_once else 1

        def fit(value):
            return float(min(max(value, lo), hi) * scale)

        data = operand["data"]
        operand["data"] = [list(map(fit, row)) for row in data] \
            if data and isinstance(data[0], list) else list(map(fit, data))


def generate_spec(seed, profile="quick"):
    """Draw one case spec from ``seed``; deterministic per seed."""
    if profile != "narrow":
        meet = _draw_meet(seed, profile)
        if meet is not None:
            return meet
    rng = random.Random(seed)
    template = rng.choice(TEMPLATES)
    max_len = _max_len(profile)
    spec = {"seed": seed, "template": template,
            "combine": rng.choice(COMBINE_OPS)}
    if template in ("reduce", "map"):
        n = rng.randint(1, max_len)
        count = rng.randint(1, 3 if profile == "deep" else 2)
        spec["operands"] = [
            _draw_operand(rng, "T%d" % k, (n,), profile)
            for k in range(count)]
    elif template in _MATRIX_TEMPLATES:
        rows = rng.randint(1, max(2, max_len // 2))
        cols = rng.randint(1, max_len)
        count = rng.randint(1, 2)
        spec["operands"] = [
            _draw_operand(rng, "T%d" % k, (rows, cols), profile)
            for k in range(count)]
    elif template == "outer":
        dims = (rng.randint(1, max(2, max_len // 2)), rng.randint(1, max_len))
        if rng.random() < 0.5:
            dims = dims[1:]
        spec["operands"] = [
            _draw_operand(rng, "T0", (rng.randint(1, 4),), profile),
            _draw_operand(rng, "T1", dims, profile)]
        if rng.random() < 0.5:
            # The shape the vectoriser takes: a dense innermost loop.
            spec["operands"][1]["formats"][-1] = "dense"
            spec["operands"][1]["protocols"][-1] = "walk"
        # T0's loop sits directly around T1's innermost one.
        spec["operands"][0]["indices"] = [len(dims) - 1]
        spec["operands"][1]["indices"] = [
            pos for pos in range(len(dims) + 1) if pos != len(dims) - 1]
    else:  # spmv: matrix times optional vector, indexed A[i, j] * x[j]
        rows = rng.randint(1, max(2, max_len // 2))
        cols = rng.randint(1, max_len)
        operands = [_draw_operand(rng, "T0", (rows, cols), profile)]
        if rng.random() < 0.8:
            operands.append(_draw_operand(rng, "T1", (cols,), profile))
        spec["operands"] = operands
    if template == "copy_out":
        # Append outputs are overwrite-only.
        spec["store"] = True
        spec["output"] = rng.choice(sorted(APPEND_OUTPUTS))
    elif template in ("map", "map2d"):
        spec["store"] = rng.random() < 0.6
    else:
        spec["accum"] = rng.choice(ACCUM_OPS)
    if profile == "narrow":
        _draw_dtypes(seed, spec)
    return spec


def _loop_count(spec):
    """How many nested loop indices (``i``, ``j``, ``k``) ``spec`` has."""
    template = spec["template"]
    if template == "outer":
        return 1 + len(spec["operands"][1]["formats"])
    return 2 if template in _MATRIX_TEMPLATES + ("spmv",) else 1


def _operand_indices(template, operand):
    """The loop-index position driving each mode of ``operand``: its
    ``indices`` when the spec spells them (``outer``), else mode ``m``
    is index ``m`` — but spmv's vector runs along ``j``."""
    if "indices" in operand:
        return operand["indices"]
    ndim = len(operand["formats"])
    if template == "spmv" and ndim == 1:
        return [1]
    return list(range(ndim))


def _index_mode(template, index_pos, operand):
    """Which mode of ``operand`` the loop index ``index_pos`` drives,
    or None when the operand does not use that index."""
    indices = _operand_indices(template, operand)
    return indices.index(index_pos) if index_pos in indices else None


# ---------------------------------------------------------------------------
# Building programs from specs
# ---------------------------------------------------------------------------
class BuiltCase:
    """A spec realized as fresh tensors plus a CIN program."""

    __slots__ = ("spec", "program", "operands", "output", "extents")

    def __init__(self, spec, program, operands, output, extents):
        self.spec = spec
        self.program = program
        self.operands = operands
        self.output = output
        self.extents = extents

    @property
    def tensors(self):
        return list(self.operands) + [self.output]

    def slot_tensors(self):
        """The case's tensors in the compiler's slot (first-use)
        order, as :meth:`CompiledKernel.bind` expects them."""
        from repro.cin.analyze import program_tensors

        return program_tensors(self.program)

    def output_array(self):
        """The output's current value as a numpy array (0-d for
        scalars)."""
        return np.asarray(self.output.to_numpy())


def _operand_dims(operand):
    data = operand["data"]
    if data and isinstance(data[0], list):
        return (len(data), len(data[0]))
    return (len(data),)


def _operand_tensor(operand):
    dims = _operand_dims(operand)
    arr = np.array(operand["data"], dtype=float).reshape(dims).astype(
        operand.get("dtype", "float64"))
    return fl.from_numpy(arr, tuple(operand["formats"]),
                         name=operand["name"])


def _operand_access(operand, template, idx_vars):
    """The (possibly marked, possibly coalesced) access expression."""
    idx_exprs = []
    needs_coalesce = False
    for mode, index_pos in enumerate(_operand_indices(template, operand)):
        chain = operand["chains"][mode]
        expr = _chain_expr(chain, idx_vars[index_pos])
        needs_coalesce = needs_coalesce or chain_needs_coalesce(chain)
        proto = operand["protocols"][mode]
        if proto is not None:
            expr = _MARKERS[proto](expr)
        idx_exprs.append(expr)
    tensor = _operand_tensor(operand)
    expr = fl.access(tensor, *idx_exprs)
    if needs_coalesce:
        expr = fl.coalesce(expr, 0.0)
    return tensor, expr


def _combine(op_name, exprs):
    if len(exprs) == 1:
        return exprs[0]
    if op_name == "mul":
        out = exprs[0]
        for expr in exprs[1:]:
            out = out * expr
        return out
    if op_name == "add":
        out = exprs[0]
        for expr in exprs[1:]:
            out = out + expr
        return out
    return fl.call(fl.ops.get_op(op_name), *exprs)


def _index_extent(spec, index_pos):
    """Intersection of every operand chain's valid range for one loop
    index; may be empty (a zero-trip loop)."""
    lo, hi = 0, None
    for operand in spec["operands"]:
        mode = _index_mode(spec["template"], index_pos, operand)
        if mode is None:
            continue
        n = _operand_dims(operand)[mode]
        c_lo, c_hi = chain_extent(operand["chains"][mode], n)
        lo = max(lo, c_lo)
        hi = c_hi if hi is None else min(hi, c_hi)
    hi = lo if hi is None else max(lo, hi)
    return lo, hi


def _output_dims(spec):
    """Dense output dims per template (None for a scalar result)."""
    template = spec["template"]
    if template in ("reduce", "reduce2d"):
        return None
    dims = [_operand_dims(op) for op in spec["operands"]]
    if template == "map":
        return (max(d[0] for d in dims),)
    if template in ("map2d", "copy_out"):
        return (max(d[0] for d in dims), max(d[1] for d in dims))
    if template == "outer":
        return dims[1]
    return (dims[0][0],)  # spmv: one entry per matrix row


def build_case(spec):
    """Realize ``spec``: fresh tensors, program, explicit extents."""
    template = spec["template"]
    loops = _loop_count(spec)
    idx_vars = [fl.indices(name) for name in "ijk"[:loops]]
    operands = []
    exprs = []
    for operand in spec["operands"]:
        tensor, expr = _operand_access(operand, template, idx_vars)
        operands.append(tensor)
        exprs.append(expr)
    rhs = _combine(spec["combine"], exprs)

    out_dims = _output_dims(spec)
    if out_dims is None:
        output = fl.Scalar(name="OUT")
        lhs = output[()]
    else:
        make_output = APPEND_OUTPUTS.get(spec.get("output"), fl.zeros)
        output = make_output(out_dims, name="OUT")
        out_indices = spec["operands"][1]["indices"] \
            if template == "outer" else range(len(out_dims))
        lhs = output[tuple(idx_vars[pos] for pos in out_indices)]

    if spec.get("store"):
        body = fl.store(lhs, rhs)
    else:
        accum = spec.get("accum", "add")
        body = fl.reduce_into(lhs, fl.ops.get_op(accum), rhs)

    extents = {idx.name: _index_extent(spec, pos)
               for pos, idx in enumerate(idx_vars)}
    program = body
    for idx in reversed(idx_vars):
        program = fl.forall(idx, program, ext=extents[idx.name])
    return BuiltCase(spec, program, operands, output, extents)


def describe_spec(spec):
    """A one-line human description of a spec (logs, corpus metadata)."""
    parts = []
    for operand in spec["operands"]:
        bits = []
        for fmt, proto, chain in zip(operand["formats"],
                                     operand["protocols"],
                                     operand["chains"]):
            bit = fmt
            if proto:
                bit += ":" + proto
            if chain["kind"] != "plain":
                bit += "+" + chain["kind"]
            bits.append(bit)
        parts.append("%s[%s]" % (operand["name"], ",".join(bits)))
    verb = "store" if spec.get("store") else spec.get("accum", "add")
    if spec.get("output"):
        verb += " into a %s output" % spec["output"]
    return "%s %s(%s) via %s" % (spec["template"], spec["combine"],
                                 " ".join(parts), verb)
