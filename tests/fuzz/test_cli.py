"""The ``python -m repro.fuzz`` command-line interface."""

import pytest

from repro.fuzz.__main__ import main


def test_small_campaign_passes(capsys, tmp_path):
    code = main(["--seed", "0", "--budget", "5", "--quiet",
                 "--corpus", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "result: PASS" in out
    assert not list(tmp_path.iterdir())  # nothing failed, no corpus


def test_list_bugs(capsys):
    code = main(["--list-bugs"])
    out = capsys.readouterr().out
    assert code == 0
    for name in ("literal-if-wrong-arm", "vector-slice-short",
                 "view-slice-bare", "seek-overshoot", "batch-drops-last"):
        assert name in out


def test_injected_campaign_succeeds_by_failing(capsys, tmp_path):
    code = main(["--seed", "0", "--budget", "30", "--quiet",
                 "--max-failures", "1", "--no-shrink",
                 "--corpus", str(tmp_path),
                 "--inject", "batch-drops-last"])
    out = capsys.readouterr().out
    assert code == 0
    assert "caught and shrunk as intended" in out
    assert list(tmp_path.glob("*.json")), "repro was not persisted"


def test_replay_mode(capsys, tmp_path):
    from repro.fuzz import generate_spec, save_entry

    save_entry(generate_spec(2), corpus_dir=str(tmp_path))
    code = main(["--replay", "--corpus", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "result: PASS" in out


def test_replay_mode_fails_on_divergent_entry(capsys, tmp_path,
                                              monkeypatch):
    from repro.fuzz import generate_spec, save_entry
    from repro.fuzz import corpus as corpus_mod
    from repro.fuzz.conform import CaseReport, Divergence

    spec = generate_spec(2)
    save_entry(spec, corpus_dir=str(tmp_path))

    def fake_conform(spec, profile="quick"):
        return CaseReport(spec, [Divergence("a", "b", "output", "x")],
                          ("a", "b"), 0.0)

    monkeypatch.setattr(corpus_mod, "conform_spec", fake_conform)
    code = main(["--replay", "--corpus", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out


def test_unknown_profile_rejected():
    with pytest.raises(SystemExit):
        main(["--profile", "nope"])
