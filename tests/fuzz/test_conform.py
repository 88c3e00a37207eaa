"""The conformance runner: oracle battery, reports, public API."""

import numpy as np

import repro.lang as fl
from repro.fuzz import ORACLES, conform_spec, fuzz_one, generate_spec


def test_fuzz_one_passes_on_fixed_seeds():
    for seed in (0, 1, 7, 23):
        report = fuzz_one(seed)
        assert report.ok, report.summary()
        assert report.oracles_run == ORACLES
        assert report.seconds >= 0


def test_fuzz_one_is_the_lang_surface_api():
    assert fl.fuzz_one is fuzz_one
    report = fl.fuzz_one(3)
    assert report.ok, report.summary()


def test_compare_flags_value_and_shape_mismatches():
    from repro.fuzz.conform import Divergence, _compare

    divergences = []
    _compare(divergences, "a", "b", np.array([1.0, 2.0]),
             np.array([1.0, 2.0]))
    assert divergences == []
    _compare(divergences, "a", "b", np.array([1.0, 2.0]),
             np.array([1.0, 3.0]))
    _compare(divergences, "a", "b", np.array([1.0, 2.0]),
             np.array([1.0]))
    assert len(divergences) == 2
    assert all(isinstance(d, Divergence) for d in divergences)
    assert divergences[0].pair == "a vs b"
    assert "max|delta|=1.0" in str(divergences[0])
    assert "shape" in str(divergences[1])


def test_report_summary_mentions_the_shape():
    report = fuzz_one(11)
    assert report.summary().startswith("ok: ")


def test_zero_trip_loops_conform():
    """An empty extent intersection is legal and must agree too."""
    spec = {
        "seed": -1, "template": "map", "combine": "mul",
        "operands": [{
            "name": "T0", "data": [1.0, 2.0, 3.0],
            "formats": ["sparse"], "protocols": [None],
            "chains": [{"kind": "window", "lo": 1, "hi": 1}],
        }],
        "store": True,
    }
    report = conform_spec(spec)
    assert report.ok, report.summary()


def test_scalar_and_vector_outputs_both_snapshot():
    for seed in range(20):
        spec = generate_spec(seed)
        if spec["template"] in ("reduce", "reduce2d"):
            report = conform_spec(spec)
            assert report.ok, report.summary()
            break
    else:  # pragma: no cover - seed range always contains a reduce
        raise AssertionError("no reduce template in the seed range")


def test_campaign_counts_the_cases_that_ran_native_c():
    """The summary's ``c_backend`` count is the number of cases whose
    C-requesting compile really ran C, case by case."""
    from repro import codegen
    from repro.compiler.kernel import compile_kernel
    from repro.fuzz import build_case, case_seed, run_fuzz
    from repro.fuzz.conform import ORACLE_COMPILE_OPTS

    seed, budget = 2, 6
    result = run_fuzz(seed=seed, budget=budget, profile="quick",
                      corpus_dir=None)
    assert result.ok, result.summary()
    ran = [compile_kernel(build_case(generate_spec(
        case_seed(seed, step), "quick")).program, cache=False,
        **ORACLE_COMPILE_OPTS[-1]).effective_backend
        for step in range(budget)]
    assert result.native_c == ran.count("c")
    assert "c_backend: %d/%d cases native C" % (ran.count("c"), budget) \
        in result.summary().splitlines()
    if codegen.have_toolchain():
        # These six cases draw both kinds; at least one runs C.
        assert result.native_c > 0


def test_campaign_tallies_each_c_fallback_by_reason():
    """Every case either ran native C or counts under one fallback
    reason: the ledger's, or the cache label when a cache tier served
    the compile and so filed no event."""
    from repro import codegen
    from repro.compiler.kernel import kernel_cache
    from repro.fuzz import run_fuzz
    from repro.fuzz.conform import CACHED_FALLBACK

    kernel_cache().clear()
    first = run_fuzz(seed=2, budget=6, profile="quick", corpus_dir=None)
    again = run_fuzz(seed=2, budget=6, profile="quick", corpus_dir=None)
    for result in (first, again):
        assert result.ok, result.summary()
        assert result.native_c + sum(result.c_fallbacks.values()) == 6
        lines = result.summary().splitlines()
        for reason, count in result.c_fallbacks.items():
            assert "  %d fell back: %s" % (count, reason) in lines
    filed = {reason for _, reason in codegen.fallback_events()}
    assert first.c_fallbacks and set(first.c_fallbacks) <= filed
    # The second campaign's compiles are memory hits.
    assert again.native_c == first.native_c
    assert again.c_fallbacks == {
        CACHED_FALLBACK: sum(first.c_fallbacks.values())}
