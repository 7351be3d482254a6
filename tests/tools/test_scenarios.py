"""The shared figure harness: golden compare, recorder, goldens."""

from __future__ import annotations

import pytest

from repro.metrics.counter import MetricsRegistry
from repro.tools import scenarios


class TestFirstDivergentLine:
    def test_a_prefix_diverges_one_past_its_end(self):
        assert scenarios.first_divergent_line("a\nb\nc\n", "a\nb\n") == 3

    def test_a_missing_trailing_newline_is_the_last_line(self):
        assert scenarios.first_divergent_line("a\nb\n", "a\nb") == 2

    def test_equal_texts_point_one_past_the_end(self):
        assert scenarios.first_divergent_line("a\nb\n", "a\nb\n") == 3

    def test_a_changed_line_is_found(self):
        assert scenarios.first_divergent_line("a\nb\nc\n", "a\nX\nc\n") == 2


class TestGoldens:
    def test_every_figure_has_a_golden(self):
        names = [name for name, _, _ in scenarios.FIGURES]
        assert list(scenarios.load_goldens(names)) == names

    def test_missing_golden_names_its_figure_and_path(self):
        with pytest.raises(scenarios.MissingGolden) as caught:
            scenarios.load_goldens(["fig05_headers", "fig99_nope"])
        assert caught.value.name == "fig99_nope"
        assert str(caught.value) == (
            f"no golden at {scenarios.GOLDENS / 'fig99_nope.txt'}")


class TestRecordFigures:
    def test_books_nothing_into_the_callers_registry(self):
        caller = MetricsRegistry("caller")
        with caller.activate():
            scenarios.record_figures()
        assert caller.counters() == {}
        assert caller.histograms() == {}

    def test_lines_join_back_to_the_input_text(self):
        scripts = scenarios.record_figures()
        assert list(scripts) == [name for name, _, _ in scenarios.FIGURES]
        for name, script in scripts.items():
            assert script["lines"], name
            assert "".join(script["lines"]) == script["input"], name
            assert all(line.endswith("\n") and line.count("\n") == 1
                       for line in script["lines"]), name
