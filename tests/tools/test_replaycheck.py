"""The replaycheck CLI: figures replay byte-identical, crashes recover."""

import pytest

from repro.core.render import render_screen
from repro.journal.recorder import divergence
from repro.tools import replaycheck, scenarios


class TestRecordReplay:
    def test_fig05_round_trips(self):
        recorded, text = scenarios.record(scenarios.fig05_headers)
        replayed, shadow, scan = replaycheck.replay_journal(text)
        assert render_screen(replayed.help) == render_screen(recorded.help)
        assert divergence(scan.records, shadow.records) is None

    def test_intermediate_screens_traced_on_request(self):
        _, text = scenarios.record(scenarios.fig05_headers,
                                   trace_screens=True)
        assert "+screen" in text

    def test_torn_journal_is_refused(self):
        _, text = scenarios.record(scenarios.fig05_headers)
        with pytest.raises(ValueError, match="torn"):
            replaycheck.replay_journal(text[:-4])


class TestCheckFigure:
    def test_clean_figure_reports_nothing(self):
        assert replaycheck.check_figure("fig05_headers",
                                        scenarios.fig05_headers) == []

    def test_missing_golden_reported(self):
        problems = replaycheck.check_figure("fig99_nope",
                                            scenarios.fig05_headers)
        assert problems and "no golden" in problems[0]

    def test_divergence_saves_the_journal(self, tmp_path, monkeypatch):
        monkeypatch.setattr(replaycheck, "ARTIFACTS", tmp_path)

        def wanders(system):
            scenarios.fig05_headers(system)
            system.help.open_path("/usr/rob/lib/profile")  # not in golden

        problems = replaycheck.check_figure("fig05_headers", wanders)
        assert any("differs from golden" in p for p in problems)
        assert (tmp_path / "fig05_headers.journal").exists()


class TestCheckRecovery:
    def test_crash_recovery_round_trips(self):
        assert replaycheck.check_recovery() == []


class TestCli:
    def test_usage_error(self, capsys):
        assert replaycheck.main(["--bogus"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_figure_list_matches_servecheck(self):
        names = [name for name, _, _ in scenarios.FIGURES]
        assert names[0].startswith("fig05")
        assert len(names) == 8
