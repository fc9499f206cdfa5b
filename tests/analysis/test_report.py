"""Unit tests for the plain-text report renderer."""

from __future__ import annotations

import pytest

from repro.analysis.report import format_table


class TestFormatTable:
    def test_alignment_and_header(self):
        text = format_table(["name", "value"], [["alpha", 1], ["b", 22]])
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert "-+-" in lines[1]
        assert len(lines) == 4
        # Columns are aligned: every row has the separator at the same index.
        assert lines[2].index("|") == lines[3].index("|")

    def test_title_is_prepended(self):
        text = format_table(["a"], [["x"]], title="Table 1")
        assert text.splitlines()[0] == "Table 1"

    def test_row_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [["only one"]])
