"""Tests for the result-table renderer."""

import pytest

from repro.metrics.tables import Table, format_comparison


def test_renders_title_and_rows():
    table = Table("My Results", ["size", "value"])
    table.add_row([16, 1.234])
    table.add_row([1024, 567.8])
    text = table.render()
    assert "My Results" in text
    assert "1024" in text
    assert "567.8" in text


def test_floats_formatted_one_decimal():
    table = Table("t", ["a"])
    table.add_row([3.14159])
    assert "3.1" in table.render()


def test_column_count_enforced():
    table = Table("t", ["a", "b"])
    with pytest.raises(ValueError):
        table.add_row([1])


def test_alignment_is_consistent():
    table = Table("t", ["name", "v"])
    table.add_row(["x", 1])
    table.add_row(["longer-name", 100])
    lines = table.render().splitlines()
    assert len(lines[-1]) == len(lines[-2])


def test_empty_table_renders():
    table = Table("empty", ["col"])
    assert "col" in table.render()


def test_format_comparison():
    text = format_comparison(
        "cmp",
        "size",
        [16, 32],
        {"clean": [1.0, 2.0], "ft": [0.5, 1.5]},
        note="a note",
    )
    assert "clean" in text and "ft" in text
    assert "a note" in text
    assert "16" in text and "32" in text
