"""perf/compare.py applies each metric's bound."""

import compare

SPEC = {
    "workloads": [{"name": "w", "why": ""}],
    "end_to_end": [
        {"name": "lat", "unit": "ms", "better": "lower", "bound": 0.1},
        {"name": "rate", "unit": "1/s", "better": "higher",
         "bound": 0.1},
    ],
}


def run(lat, rate, failed=0):
    return {"w": {"metrics": {"lat": lat, "rate": rate},
                  "attempted": 100, "failed": failed}}


def verdicts(runs_a, runs_b):
    return {row[1]: row[-1]
            for row in compare.compare(SPEC, runs_a, runs_b)}


def test_ok_worse_and_direction():
    assert verdicts([run(10, 100)], [run(10.9, 91)]) == {
        "lat": "ok", "rate": "ok", "failed_share": "ok"}
    assert verdicts([run(10, 100)], [run(11.5, 100)])["lat"] == "worse"
    assert verdicts([run(10, 100)], [run(10, 85)])["rate"] == "worse"
    # Better is never worse.
    assert verdicts([run(10, 100)], [run(5, 200)]) == {
        "lat": "ok", "rate": "ok", "failed_share": "ok"}


def test_wide_spread_is_unresolved_not_unchanged():
    noisy = [run(v, 100) for v in (8, 9, 10, 11, 12, 13)]
    steady = [run(10, 100)] * 6
    assert verdicts(noisy, steady)["lat"] == "unresolved"
    assert verdicts(steady, noisy)["lat"] == "unresolved"


def test_more_failures_is_worse():
    assert verdicts([run(10, 100)],
                    [run(10, 100, failed=1)])["failed_share"] == "worse"


def test_main_exit_code(tmp_path, monkeypatch, capsys):
    import json

    monkeypatch.setattr(compare, "load_spec", lambda: SPEC)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps({"runs": [run(10, 100)]}))
    b.write_text(json.dumps({"runs": [run(12, 100)]}))
    assert compare.main([str(a), str(a)]) == 0
    assert compare.main([str(a), str(b)]) == 1
    assert "worse" in capsys.readouterr().out
