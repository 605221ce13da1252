"""Tests for table rendering."""

import pytest

from repro.analysis import render_table


class TestRenderTable:
    def test_alignment_and_content(self):
        text = render_table(
            ["name", "gain"],
            [["drop", 1.5], ["spoof", -0.25]],
            float_digits=2,
        )
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert "1.50" in text
        assert "-0.25" in text
        # Column alignment: every line equally long or shorter header.
        assert lines[2].index("1.50") == lines[3].index("-0.2")

    def test_title_rendering(self):
        text = render_table(["a"], [[1]], title="E1")
        assert text.splitlines()[0] == "E1"
        assert text.splitlines()[1] == "=="

    def test_row_arity_checked(self):
        with pytest.raises(ValueError):
            render_table(["a", "b"], [[1]])

