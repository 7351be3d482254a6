"""The servecheck CLI: figures replayed over the wire match goldens.

The full Figures 5-12 sweep over both transports is the CLI's job
(and CI's); these tests pin the machinery on a single figure so the
tier-1 suite stays fast while still proving the remote mount is
transparent end to end.
"""

import pytest

from repro.tools import scenarios, servecheck


class TestCheckFigure:
    @pytest.mark.parametrize("transport", ["socket", "pipe"])
    def test_fig05_is_byte_identical_over_the_wire(self, transport):
        assert servecheck.check_figure(
            "fig05_headers", scenarios.fig05_headers, transport) == []

    def test_wireless_figure_skips_the_traffic_check(self):
        # fig08 never touches /mnt/help; uses_wire=False must exempt it
        assert servecheck.check_figure(
            "fig08_openline", scenarios.fig08_openline, "pipe",
            uses_wire=False) == []

    def test_missing_golden_is_reported(self):
        problems = servecheck.check_figure(
            "fig99_nonesuch", scenarios.fig05_headers, "pipe")
        assert problems == [f"fig99_nonesuch: no golden at "
                            f"{scenarios.GOLDENS / 'fig99_nonesuch.txt'}"]

    def test_divergence_points_at_the_first_bad_line(self):
        # replay fig06's scenario against fig05's golden: must differ
        problems = servecheck.check_figure(
            "fig05_headers", scenarios.fig06_messages, "pipe")
        assert len(problems) == 1
        assert "differs from golden" in problems[0]


class TestFigureTable:
    def test_covers_figures_5_through_12(self):
        names = [name for name, _, _ in scenarios.FIGURES]
        assert names == [
            "fig05_headers", "fig06_messages", "fig07_stack",
            "fig08_openline", "fig09_openline2", "fig10_uses",
            "fig11_culprit", "fig12_mk"]

    def test_builtin_open_figures_are_marked_wireless(self):
        wireless = {name for name, _, uses_wire in scenarios.FIGURES
                    if not uses_wire}
        assert wireless == {"fig08_openline", "fig09_openline2",
                            "fig11_culprit"}


class TestCli:
    def test_usage_error(self, capsys):
        assert servecheck.main(["--bogus"]) == 2
        assert "usage" in capsys.readouterr().err
