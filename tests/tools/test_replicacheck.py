"""replicacheck: the real-SIGKILL failover golden gate, as a test."""

from __future__ import annotations

from repro.tools import replicacheck, scenarios


def test_sigkilled_primary_promotes_to_goldens():
    """Two figures mid-stream, the primary process SIGKILLed, the
    promoted standby serves both screens byte-identical to the pinned
    goldens with zero acknowledged writes lost."""
    assert replicacheck.run_check(figures=2, seed=1) == 0


def test_split_points_leave_every_figure_mid_stream():
    names = [name for name, _, _ in scenarios.FIGURES]
    scripts = scenarios.record_figures()
    points = replicacheck._split_points(7, names, scripts)
    for name in names:
        total = len(scripts[name]["lines"])
        assert 1 <= points[name] <= total
        if total > 1:
            assert points[name] < total  # something left to resume

    # seeded: the same seed picks the same kill points
    assert points == replicacheck._split_points(7, names, scripts)


def test_main_usage_errors(capsys):
    assert replicacheck.main(["--bogus"]) == 2
    assert replicacheck.main(["--figures", "99"]) == 2
    assert replicacheck.main(["--primary"]) == 2
    err = capsys.readouterr().err
    assert "usage" in err and "--standby" in err


def test_missing_golden_is_reported_before_any_child_is_spawned(
        tmp_path, monkeypatch, capsys):
    """No golden, no kill: the check refuses before it spawns the
    primary."""
    monkeypatch.setattr(scenarios, "GOLDENS", tmp_path)

    def spawn(*args, **kwargs):
        raise AssertionError("the primary was spawned")

    monkeypatch.setattr(replicacheck.subprocess, "Popen", spawn)
    assert replicacheck.run_check(figures=1, seed=1) == 1
    assert capsys.readouterr().err == (
        f"replicacheck: fig05_headers: no golden at "
        f"{tmp_path / 'fig05_headers.txt'}\n")
