"""Text table rendering."""

import pytest

from repro.analysis.reporting import format_table


def test_alignment():
    table = format_table(["a", "b"], [[1, "x"], [22, "yy"]])
    lines = table.splitlines()
    assert lines[0].startswith("a")
    assert "---" in lines[1]
    assert lines[2].startswith("1")
    assert lines[3].startswith("22 | yy")


def test_width_from_headers():
    table = format_table(["long-header", "b"], [["x", "y"]])
    assert "long-header" in table.splitlines()[0]


def test_row_length_validation():
    with pytest.raises(ValueError, match="cells"):
        format_table(["a", "b"], [[1]])


def test_empty_rows_ok():
    table = format_table(["a"], [])
    assert len(table.splitlines()) == 2
