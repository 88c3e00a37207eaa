"""Unit tests for the benchmark harness utilities."""

import pytest

from repro.bench.harness import Table, summarize


class TestTable:
    def test_render_alignment(self):
        table = Table("demo", ["name", "value"])
        table.add("short", 1)
        table.add("a-much-longer-name", 123456)
        rendered = table.render()
        lines = rendered.splitlines()
        assert lines[0] == "== demo =="
        assert "name" in lines[1] and "value" in lines[1]
        # All data rows align to the same column start.
        first_col_width = lines[3].index("1")
        assert lines[4].index("123456") >= first_col_width

    def test_arity_checked(self):
        table = Table("demo", ["a", "b"])
        with pytest.raises(ValueError):
            table.add(1)

    def test_float_formatting(self):
        table = Table("demo", ["v"])
        table.add(0.0)
        table.add(1234567.0)
        table.add(0.001234)
        table.add(1.5)
        cells = [row[0] for row in table.rows]
        assert cells[0] == "0"
        assert cells[1] == "1.23e+06"
        assert cells[2] == "0.00123"
        assert cells[3] == "1.500"


class TestHelpers:
    def test_summarize(self):
        assert summarize([3, 1, 2]) == (1, 2, 3)
        assert summarize([]) == (0.0, 0.0, 0.0)
        assert summarize([7]) == (7, 7, 7)
