"""Delta-debugging shrinker: reduce a failing spec to a minimal one.

Given a spec on which :func:`repro.fuzz.conform.conform_spec` reports
divergences, the shrinker greedily applies grammar-preserving
reductions — drop an operand, truncate or zero the data, demote a
format to dense, strip a protocol or modifier chain, pull parameters
toward zero — keeping each candidate only if it *still fails*.  The
loop runs to a fixpoint, so the result is 1-minimal with respect to
the reduction set: no single remaining reduction can be applied
without losing the failure.

Shrinking edits spec dicts, never programs, so every intermediate
candidate is a legal generator output and can itself be replayed.
The final spec is rendered as a standalone repro script (a dozen
lines: the spec as JSON plus one ``conform_spec`` call) by
:func:`repro_script`.
"""

import copy
import json

from repro.fuzz.conform import conform_spec
from repro.fuzz.gen import _operand_dims


def spec_size(spec):
    """A well-founded size metric; every reduction strictly lowers it."""
    size = 0
    for operand in spec["operands"]:
        dims = _operand_dims(operand)
        count = dims[0] if len(dims) == 1 else dims[0] * dims[1]
        size += 8 * count
        size += sum(abs(v) for row in _rows(operand) for v in row)
        size += 4 * sum(1 for fmt in operand["formats"]
                        if fmt != "dense")
        size += 4 * sum(1 for proto in operand["protocols"]
                        if proto is not None)
        for chain in operand["chains"]:
            size += 16 * _chain_weight(chain)
        size += 64  # the operand itself
    return size


def _chain_weight(chain):
    return {"plain": 0, "offset": 2, "offset_exact": 2, "window": 2,
            "offset2": 3, "offset_of_window": 4}[chain["kind"]] \
        + sum(abs(chain.get(k, 0)) for k in ("delta", "d1", "d2"))


def _rows(operand):
    data = operand["data"]
    if data and isinstance(data[0], list):
        return data
    return [data]


def _candidates(spec):
    """Every one-step reduction of ``spec``, most aggressive first."""
    # Drop whole operands (keep at least one; ``outer`` is its pair).
    if len(spec["operands"]) > 1 and spec["template"] != "outer":
        for pos in range(len(spec["operands"])):
            if spec["template"] == "spmv" and pos == 0:
                continue  # the matrix operand anchors the template
            out = copy.deepcopy(spec)
            del out["operands"][pos]
            yield out
    for pos, operand in enumerate(spec["operands"]):
        dims = _operand_dims(operand)
        # Halve then decrement the trailing dimension.
        for new_len in {dims[-1] // 2, dims[-1] - 1}:
            if 0 < new_len < dims[-1]:
                yield _with_length(spec, pos, new_len)
        if len(dims) == 2:
            for new_rows in {dims[0] // 2, dims[0] - 1}:
                if 0 < new_rows < dims[0]:
                    out = copy.deepcopy(spec)
                    trimmed = out["operands"][pos]
                    trimmed["data"] = trimmed["data"][:new_rows]
                    # The mode-0 chain's parameters may reference rows
                    # that no longer exist; clamp to stay in grammar.
                    _clamp_chain(trimmed["chains"][0], new_rows)
                    yield out
        # Zero halves, then single nonzero entries, then shrink to 1.
        rows = _rows(operand)
        nonzero = [(r, c) for r, row in enumerate(rows)
                   for c, v in enumerate(row) if v]
        if nonzero:
            half = nonzero[:max(1, len(nonzero) // 2)]
            yield _with_zeroed(spec, pos, half)
            if len(nonzero) > 1:
                yield _with_zeroed(spec, pos, nonzero[:1])
                yield _with_zeroed(spec, pos, nonzero[-1:])
        for r, c in nonzero:
            if abs(rows[r][c]) > 1:
                out = copy.deepcopy(spec)
                _rows(out["operands"][pos])[r][c] = \
                    1.0 if rows[r][c] > 0 else -1.0
                yield out
        # Demote formats, strip protocols, simplify chains.
        for mode, fmt in enumerate(operand["formats"]):
            if fmt != "dense":
                out = copy.deepcopy(spec)
                out["operands"][pos]["formats"][mode] = "dense"
                yield out
        for mode, proto in enumerate(operand["protocols"]):
            if proto is not None:
                out = copy.deepcopy(spec)
                out["operands"][pos]["protocols"][mode] = None
                yield out
        for mode, chain in enumerate(operand["chains"]):
            yield from _chain_candidates(spec, pos, mode, chain)


def _with_length(spec, pos, new_len):
    out = copy.deepcopy(spec)
    operand = out["operands"][pos]
    data = operand["data"]
    if data and isinstance(data[0], list):
        operand["data"] = [row[:new_len] for row in data]
        mode = 1
    else:
        operand["data"] = data[:new_len]
        mode = 0
    _clamp_chain(operand["chains"][mode], new_len)
    return out


def _clamp_chain(chain, n):
    for key in ("delta", "d1", "d2"):
        if key in chain:
            chain[key] = max(-n, min(n, chain[key]))
    if "lo" in chain:
        chain["lo"] = min(chain["lo"], max(0, n - 1))
        chain["hi"] = min(chain["hi"], n)
        if chain["hi"] < chain["lo"]:
            chain["hi"] = chain["lo"]


def _with_zeroed(spec, pos, coords):
    out = copy.deepcopy(spec)
    rows = _rows(out["operands"][pos])
    for r, c in coords:
        rows[r][c] = 0.0
    return out


def _chain_candidates(spec, pos, mode, chain):
    kind = chain["kind"]
    if kind == "plain":
        return

    def with_chain(new_chain):
        out = copy.deepcopy(spec)
        out["operands"][pos]["chains"][mode] = new_chain
        return out

    yield with_chain({"kind": "plain"})
    if kind == "offset_of_window":
        yield with_chain({"kind": "window", "lo": chain["lo"],
                          "hi": chain["hi"]})
        yield with_chain({"kind": "offset", "delta": chain["delta"]})
    if kind == "offset2":
        yield with_chain({"kind": "offset",
                          "delta": chain["d1"] + chain["d2"]})
    for key in ("delta", "d1", "d2"):
        value = chain.get(key)
        if value:
            out = with_chain(dict(chain))
            out["operands"][pos]["chains"][mode][key] = \
                value - 1 if value > 0 else value + 1
            yield out
    n = _operand_dims(spec["operands"][pos])[mode]
    if kind in ("window", "offset_of_window"):
        if chain["lo"] > 0:
            out = with_chain(dict(chain))
            out["operands"][pos]["chains"][mode]["lo"] -= 1
            yield out
        if chain["hi"] < n:
            out = with_chain(dict(chain))
            out["operands"][pos]["chains"][mode]["hi"] += 1
            yield out


def shrink_spec(spec, still_fails=None, max_steps=400):
    """The smallest failing spec reachable by greedy reduction.

    ``still_fails`` decides whether a candidate keeps the failure
    (default: :func:`conform_spec` reports any divergence).  Returns
    ``(shrunk_spec, steps_taken)``; the input is returned unchanged
    when it does not fail at all.
    """
    if still_fails is None:
        def still_fails(candidate):
            return not conform_spec(candidate).ok
    if not still_fails(spec):
        return copy.deepcopy(spec), 0
    current = copy.deepcopy(spec)
    steps = 0
    progress = True
    while progress and steps < max_steps:
        progress = False
        current_size = spec_size(current)
        for candidate in _candidates(current):
            if steps >= max_steps:
                break
            if spec_size(candidate) >= current_size:
                continue
            steps += 1
            try:
                failing = still_fails(candidate)
            except Exception:
                failing = False  # a broken candidate is not a repro
            if failing:
                current = candidate
                progress = True
                break
    return current, steps


def repro_script(spec, note=""):
    """A standalone script (well under 15 lines) replaying ``spec``.

    The script asserts zero divergences, so committed to the corpus it
    documents a *fixed* bug: it fails while the bug lives and passes
    forever after.
    """
    payload = json.dumps(spec, separators=(",", ":"), sort_keys=True)
    header = "# repro-looplets fuzz repro"
    if note:
        header += " — " + note
    return "\n".join([
        header,
        "# replay: python this file (or repro.fuzz corpus replay)",
        "import json",
        "",
        "from repro.fuzz import conform_spec",
        "",
        "SPEC = json.loads(%r)" % payload,
        "report = conform_spec(SPEC)",
        'assert report.ok, "\\n".join(str(d) for d in report.divergences)',
        'print("ok:", __file__)',
        "",
    ])
