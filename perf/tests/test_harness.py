"""Sampling, statistics, the recorder, and the correctness gate."""

import pytest

import harness as H


def tally_of(latencies, wall_ns):
    tally = H.Tally()
    tally.latencies = latencies
    tally.wall_ns = tally.reference_wall_ns = wall_ns
    return tally


def test_summary_weighs_kinds_equally_and_counts_every_slow_op():
    # One kind with many samples must not drown one with few.
    lat = {"fast": [1_000_000] * 1000, "slow": [100_000_000] * 10}
    summary = H.summarize(tally_of(lat, 4_000_000_000))
    assert summary["op_ms_p50"] == pytest.approx(10.0)
    assert summary["op_ms_p90"] == pytest.approx(10.0)
    # Throughput is ops over the wall, not over the latencies.
    assert summary["ops_per_s"] == pytest.approx(1010 / 4.0)
    # Every second op of a kind slowed 1.5x (a cache missed on
    # alternate ops): the median and the tail both move, and the wall
    # takes the throughput with it.
    lat["fast"] = [1_000_000, 1_500_000] * 500
    slowed = H.summarize(tally_of(lat, 4_250_000_000))
    assert slowed["op_ms_p50"] > 10.0
    assert slowed["op_ms_p90"] > slowed["op_ms_p50"]
    assert slowed["ops_per_s"] < summary["ops_per_s"]
    # A quarter of one kind's ops slowed 3x (an eighth of the pooled
    # mass): the median stays, the tail moves.
    lat["fast"] = [1_000_000] * 750 + [3_000_000] * 250
    paused = H.summarize(tally_of(lat, 4_500_000_000))
    assert paused["op_ms_p50"] == pytest.approx(10.0)
    assert paused["op_ms_p90"] > 1.5 * paused["op_ms_p50"]


def test_summary_of_a_kind_that_never_succeeded():
    lat = {"dead": [], "live": [2_000_000] * 10}
    summary = H.summarize(tally_of(lat, 1_000_000_000))
    assert summary["op_ms_p50"] == pytest.approx(2.0)
    assert summary["ops_per_s"] == pytest.approx(10.0)
    nothing = H.summarize(tally_of({"dead": []}, 1_000_000_000))
    assert nothing == {"op_ms_p50": 0.0, "op_ms_p90": 0.0,
                       "ops_per_s": 0.0}


def test_a_slice_is_scaled_to_the_reference_speed():
    tally = H.Tally()
    tally.add("k", [100, 200], 400, 0.5)
    tally.add("k", [300], 300, 1.0)
    assert tally.latencies["k"] == [50.0, 100.0, 300.0]
    assert (tally.wall_ns, tally.reference_wall_ns) == (700, 500.0)
    # Throughput is over the wall at the reference speed.
    assert H.summarize(tally)["ops_per_s"] == pytest.approx(3e9 / 500)
    assert 0.05 < H.machine_speed() < 20.0


def test_weighted_quantile():
    pairs = [(1.0, 0.5), (2.0, 0.25), (3.0, 0.25)]
    assert H.weighted_quantile(pairs, 0.5) == 1.0
    assert H.weighted_quantile(pairs, 0.7) == 2.0
    assert H.weighted_quantile(pairs, 0.9) == 3.0


def test_sample_takes_fixed_counts_in_rounds():
    order = []
    kinds = [H.Kind("a", 20, lambda: order.append("a")),
             H.Kind("b", 10, lambda: order.append("b")),
             H.Kind("c", 7, lambda: order.append("c"))]
    tally = H.Tally()
    H.sample(kinds, 1.0, [(tally, None)], rounds=5)
    assert len(tally.latencies["a"]) == 20
    assert len(tally.latencies["b"]) == 10
    # A count the rounds do not divide is still taken exactly.
    assert len(tally.latencies["c"]) == 7
    assert order[:7] == ["a"] * 4 + ["b"] * 2 + ["c"]
    assert tally.attempted == 37 and tally.failed == 0
    assert 0 < tally.wall_ns and 0 < tally.reference_wall_ns


def test_failures_count_and_carry_no_latency(capsys):
    def boom():
        raise RuntimeError("refused")

    kinds = [H.Kind("raises", 4, boom),
             H.Kind("wrong", 4, lambda: 1,
                    verify=lambda arg, result: result == 2),
             H.Kind("checked", 4, lambda: 1, check=lambda: (3, 2))]
    tally = H.Tally()
    H.sample(kinds, 1.0, [(tally, None)], rounds=2)
    H.run_checks(kinds, tally)
    assert tally.attempted == 12 + 3
    assert tally.failed == 4 + 4 + 2
    assert tally.latencies["raises"] == []
    assert len(tally.latencies["checked"]) == 4
    assert "refused" in capsys.readouterr().err


def test_recorder_self_time_subtracts_attributed_replays():
    rec = H.Recorder()
    with rec.span("op"):
        with rec.span("compile") as compile_span:
            pass
        with rec.span("cc", parent=compile_span.index):
            pass
    name, start, end, parent, op = rec.spans[2]
    assert (name, parent, op) == ("cc", 1, 0)
    rec.spans[1][1:3] = [0, 100]
    rec.spans[2][1:3] = [100, 160]
    assert rec.self_times()["compile"] == [40]
    assert rec.dump()["summary"]["cc"]["median_ns"] == 60


def test_traced_rounds_alternate_with_untraced():
    seen = []

    def decompose(rec, parent, arg, result):
        seen.append(rec.spans[parent][0])

    kind = H.Kind("k", 4, lambda: None, span="layer.k_us",
                  decompose=decompose)
    rec = H.Recorder()
    plain, traced = H.Tally(), H.Tally()
    H.sample([kind], 1.0, [(plain, None), (traced, rec)], rounds=4)
    assert len(plain.latencies["k"]) == 2
    assert len(traced.latencies["k"]) == 2
    assert seen == ["layer.k_us"] * 2
    assert [row[0] for row in rec.spans] == ["op:k", "layer.k_us"] * 2
