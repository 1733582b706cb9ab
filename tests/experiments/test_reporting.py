"""Tests for plain-text table and series rendering."""

from __future__ import annotations

from repro.experiments.reporting import format_multi_series, format_table


class TestFormatTable:
    def test_empty_rows(self):
        assert format_table([]) == "(empty)"
        assert format_table([], title="Table X") == "Table X\n(empty)"

    def test_basic_alignment(self):
        rows = [{"name": "karate", "n": 34}, {"name": "ba_d", "n": 1000}]
        text = format_table(rows)
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert "karate" in lines[2]
        assert "1,000" in lines[3]

    def test_title_printed_first(self):
        text = format_table([{"a": 1}], title="Table 8")
        assert text.splitlines()[0] == "Table 8"

    def test_missing_keys_render_dash(self):
        text = format_table([{"a": 1, "b": 2}, {"a": 3}])
        assert "-" in text.splitlines()[-1]

    def test_column_selection_and_order(self):
        text = format_table([{"a": 1, "b": 2, "c": 3}], columns=["c", "a"])
        header = text.splitlines()[0]
        assert header.index("c") < header.index("a")
        assert "b" not in header

    def test_float_formatting(self):
        text = format_table([{"x": 0.000123456, "y": 1234567.0, "z": float("nan")}])
        assert "0.000123" in text
        assert "1.23e+06" in text
        assert "nan" in text

    def test_none_renders_dash(self):
        assert "-" in format_table([{"x": None}]).splitlines()[-1]


class TestFormatMultiSeries:
    def test_columns_per_algorithm(self):
        text = format_multi_series(
            {"oneshot": {1: 5.0, 2: 4.0}, "ris": {2: 3.0, 4: 1.0}},
            title="Figure 1",
        )
        header = text.splitlines()[1]
        assert "oneshot" in header
        assert "ris" in header
        # Sample number 1 exists only for oneshot; ris column shows "-".
        first_data_row = text.splitlines()[3]
        assert "-" in first_data_row
