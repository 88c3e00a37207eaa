"""The spec generator: determinism, grammar validity, reconstruction."""

import json

import numpy as np

from repro.fuzz import build_case, describe_spec, generate_spec
from repro.fuzz.gen import (
    APPEND_OUTPUTS,
    FORMATS_ANY,
    FORMATS_LEAF_ONLY,
    LEADER_PROTOCOLS,
    PROTOCOLS_BY_FORMAT,
    _index_mode,
    _operand_dims,
    chain_extent,
)

SEEDS = range(60)


def test_same_seed_same_spec():
    for seed in SEEDS:
        assert generate_spec(seed) == generate_spec(seed)


def test_specs_are_json_round_trippable():
    for seed in SEEDS:
        spec = generate_spec(seed)
        assert json.loads(json.dumps(spec)) == spec


def test_distinct_seeds_explore_the_grammar():
    templates = set()
    outputs = set()
    formats = set()
    chain_kinds = set()
    protocols = set()
    for seed in range(200):
        spec = generate_spec(seed)
        templates.add(spec["template"])
        outputs.add(spec.get("output"))
        for operand in spec["operands"]:
            formats.update(operand["formats"])
            protocols.update(p for p in operand["protocols"] if p)
            chain_kinds.update(c["kind"] for c in operand["chains"])
    assert templates == {"reduce", "map", "reduce2d", "map2d", "spmv",
                         "copy_out"}
    assert outputs == {None, "run", "sparse"}
    assert formats == set(FORMATS_ANY) | set(FORMATS_LEAF_ONLY)
    assert {"walk", "gallop", "locate", "follow"} <= protocols
    assert {"plain", "offset", "offset_exact", "offset2", "window",
            "offset_of_window"} <= chain_kinds


def test_leaf_only_formats_stay_innermost():
    for seed in range(200):
        for operand in generate_spec(seed)["operands"]:
            for fmt in operand["formats"][:-1]:
                assert fmt not in FORMATS_LEAF_ONLY


def test_protocols_respect_format_support():
    for seed in range(200):
        for operand in generate_spec(seed)["operands"]:
            for fmt, proto in zip(operand["formats"],
                                  operand["protocols"]):
                assert proto in PROTOCOLS_BY_FORMAT[fmt]


def test_seeded_specs_are_pinned():
    """The protocol table is derived from the level classes; every
    seeded campaign, the corpus and the AOT pack population draw from
    it, so the stream must not move unnoticed (digests re-taken when
    the ``copy_out`` template joined ``TEMPLATES``, which shifts every
    seed's first draw)."""
    import hashlib
    import json

    expected = {
        "quick": "a4b8e23df1f87ece8e8d666e7d55358c5e2b1efba76acd1c"
                 "350e8cb8419e543f",
        "deep": "ca28a3232500506745f712a44b62a1d3d10a3cbae8822c892"
                "763c041ad0f1767",
    }
    for profile, digest in expected.items():
        stream = hashlib.sha256()
        for seed in range(200):
            stream.update(json.dumps(generate_spec(seed, profile),
                                     sort_keys=True).encode())
        assert stream.hexdigest() == digest, profile


def test_every_loop_index_has_a_leader():
    for seed in range(200):
        spec = generate_spec(seed)
        index_count = 1 if spec["template"] in ("reduce", "map") else 2
        for index_pos in range(index_count):
            leaders = 0
            for operand in spec["operands"]:
                mode = _index_mode(spec["template"], index_pos, operand)
                if mode is not None \
                        and operand["protocols"][mode] in \
                        LEADER_PROTOCOLS:
                    leaders += 1
            assert leaders >= 1, (seed, index_pos, spec)


def test_built_cases_have_valid_extents():
    for seed in SEEDS:
        spec = generate_spec(seed)
        case = build_case(spec)
        for lo, hi in case.extents.values():
            assert 0 <= lo <= hi
        for operand, tensor in zip(spec["operands"], case.operands):
            dims = _operand_dims(operand)
            assert tensor.shape == dims
            np.testing.assert_array_equal(
                tensor.to_numpy(),
                np.array(operand["data"], dtype=float).reshape(dims))


def test_copy_out_cases_store_into_an_append_output():
    seen = set()
    for seed in range(200):
        spec = generate_spec(seed)
        if spec["template"] != "copy_out":
            continue
        case = build_case(spec)
        assert spec["store"]
        assert type(case.output) is APPEND_OUTPUTS[spec["output"]]
        assert case.output.shape == _operand_dims(spec["operands"][0])
        assert "into a %s output" % spec["output"] in describe_spec(spec)
        seen.add(spec["output"])
    assert seen == set(APPEND_OUTPUTS)


def test_chain_extent_window_is_its_width():
    assert chain_extent({"kind": "window", "lo": 2, "hi": 7}, 10) \
        == (0, 5)
    assert chain_extent({"kind": "offset_exact", "delta": 3}, 8) \
        == (3, 8)
    assert chain_extent({"kind": "offset_exact", "delta": -3}, 8) \
        == (0, 5)


def test_describe_spec_is_one_line():
    for seed in SEEDS:
        description = describe_spec(generate_spec(seed))
        assert "\n" not in description
        assert description
