"""The chaos engine itself: plans, firing rules, scoping, hygiene.

The engine is test infrastructure, so it gets the same rigor as the
code it attacks: a chaos layer that silently injects nothing (typo'd
fault name, stale environment, non-deterministic probability draws)
would turn every fault-tolerance test into a vacuous pass.
"""

import os

import pytest

from repro import chaos
from repro.chaos.campaign import POLICIES, expected_status, run_campaign


def test_plan_parse_encode_roundtrip():
    text = "slow_chunk:p=0.5,seed=3,delay_s=0.01;worker_crash:nth=1"
    plan = chaos.parse_plan(text)
    assert set(plan) == {"slow_chunk", "worker_crash"}
    assert plan["slow_chunk"].p == 0.5
    assert plan["slow_chunk"].seed == 3
    assert plan["slow_chunk"].params == {"delay_s": 0.01}
    assert plan["worker_crash"].nth == 1
    again = chaos.parse_plan(chaos.encode_plan(plan))
    assert chaos.encode_plan(again) == chaos.encode_plan(plan)


def test_unknown_fault_name_rejected():
    """A typo'd fault point must raise, not silently inject nothing."""
    with pytest.raises(ValueError, match="unknown fault point"):
        chaos.parse_plan("definately_a_fault:nth=1")
    with pytest.raises(ValueError, match="unknown fault point"):
        chaos.Fault("definately_a_fault")


def test_p_and_nth_are_mutually_exclusive():
    with pytest.raises(ValueError, match="mutually exclusive"):
        chaos.Fault("slow_chunk", p=0.5, nth=1)


def test_nth_fires_exactly_once():
    with chaos.chaos("slow_chunk", nth=2, delay_s=0.0):
        fired = [chaos.should_fire("slow_chunk") is not None
                 for _ in range(5)]
    assert fired == [False, True, False, False, False]


def test_index_rule_scopes_eligibility():
    """Hits carrying the wrong dataset index are not even counted."""
    with chaos.chaos("worker_stall", index=3, nth=1, stall_s=0.0):
        assert chaos.should_fire("worker_stall", index=1) is None
        assert chaos.should_fire("worker_stall", index=None) is None
        params = chaos.should_fire("worker_stall", index=3)
        assert params == {"stall_s": 0.0}


def test_probability_draws_are_seed_deterministic():
    def draws(seed):
        with chaos.chaos("slow_chunk", p=0.5, seed=seed, delay_s=0.0):
            return [chaos.should_fire("slow_chunk") is not None
                    for _ in range(32)]

    assert draws(7) == draws(7)
    assert draws(7) != draws(8)
    assert any(draws(7)) and not all(draws(7))


def test_context_manager_restores_env_and_removes_state():
    assert not chaos.active()
    with chaos.chaos("worker_crash", nth=1):
        assert chaos.active()
        state = os.environ[chaos.ENV_STATE]
        assert os.path.isdir(state)
        assert "worker_crash" in os.environ[chaos.ENV_PLAN]
    assert not chaos.active()
    assert chaos.ENV_PLAN not in os.environ
    assert not os.path.isdir(state)


def test_chaos_accepts_plan_string_and_mapping():
    with chaos.chaos("worker_crash:nth=1;slow_chunk:p=0.25") as plan:
        assert set(plan) == {"worker_crash", "slow_chunk"}
    with chaos.chaos({"worker_stall": {"index": 2, "stall_s": 1}}) as plan:
        assert plan["worker_stall"].index == 2
    with pytest.raises(ValueError):
        with chaos.chaos():
            pass


def test_apply_env_makes_sender_authoritative():
    """apply_env both arms and disarms — the disarm half is what keeps
    a fork-inherited plan from outliving the sender's with-block."""
    pair = None
    with chaos.chaos("worker_crash", nth=1):
        pair = chaos.current_env()
    chaos.apply_env(pair)
    try:
        assert chaos.active()
    finally:
        chaos.apply_env((None, None))
    assert not chaos.active()


def test_mangle_corrupts_only_when_armed():
    payload = '{"ok": true}'
    assert chaos.mangle("store_corrupt_entry", payload) == payload
    with chaos.chaos("store_corrupt_entry", nth=1):
        garbled = chaos.mangle("store_corrupt_entry", payload)
        untouched = chaos.mangle("store_corrupt_entry", payload)
    assert garbled != payload and garbled.endswith("#chaos#")
    assert untouched == payload  # nth=1 already consumed


def test_inject_is_noop_when_inactive():
    assert chaos.inject("worker_stall") is False
    assert chaos.inject("slow_chunk") is False


def test_fault_points_registry_is_exported():
    points = chaos.fault_points()
    assert set(points) == {
        "worker_crash", "worker_stall", "shm_attach_fail",
        "store_read_error", "store_corrupt_entry", "slow_chunk",
        "service_unreachable"}
    assert all(points.values())


def test_expected_status_matrix():
    assert POLICIES == ("raise", "skip")
    pinned = {"raise": "typed-error", "skip": "skip-partial"}
    for policy in POLICIES:
        for fault in ("worker_crash", "worker_stall"):
            assert expected_status(fault, "processes",
                                   policy) == pinned[policy]
            assert expected_status(fault, "threads",
                                   policy) == "identical"
            assert expected_status(fault, "serial",
                                   policy) == "identical"
        assert expected_status("store_read_error", "processes",
                               policy) == "identical"


def test_reduced_campaign_is_clean():
    """A slice of the real campaign — one worker fault, one store
    fault, serial + processes, two policies — must hold every
    invariant end to end."""
    report = run_campaign(seed=3,
                          faults=["worker_crash", "store_read_error"],
                          executors=["serial", "processes"],
                          policies=["raise", "skip"], count=4)
    assert report["violations"] == 0, [
        case for case in report["cases"] if case["violations"]]
    assert len(report["cases"]) == 8
    by_key = {(case["fault"], case["executor"], case["policy"]): case
              for case in report["cases"]}
    assert by_key[("worker_crash", "processes",
                   "raise")]["status"] == "typed-error"
    assert by_key[("worker_crash", "processes",
                   "raise")]["faults"]["crashes"] >= 1
    assert by_key[("worker_crash", "processes",
                   "skip")]["status"] == "skip-partial"
