"""Unit tests for measurement utilities (repro.stats)."""

import pytest

from repro.stats import (
    Distribution,
    cdf_points,
    count_instrumentation,
    format_series,
    format_table,
    integration_table,
    percentile,
)


class TestPercentile:
    def test_median_odd(self):
        assert percentile([1, 2, 3], 0.5) == 2

    def test_p0_and_p100(self):
        assert percentile([5, 1, 9], 0.0) == 1
        assert percentile([5, 1, 9], 1.0) == 9

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)

    def test_fraction_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([1], 1.5)


class TestCdf:
    def test_steps(self):
        points = cdf_points([1, 2, 2, 4])
        assert points == [(1, 0.25), (2, 0.75), (4, 1.0)]

    def test_empty(self):
        assert cdf_points([]) == []

    def test_monotone(self):
        points = cdf_points([3, 1, 4, 1, 5, 9, 2, 6])
        values = [v for v, __ in points]
        fractions = [f for __, f in points]
        assert values == sorted(values)
        assert fractions == sorted(fractions)
        assert fractions[-1] == 1.0


class TestDistribution:
    def test_summary(self):
        dist = Distribution([1, 2, 3, 4, 5])
        assert dist.mean == 3
        assert dist.p50 == 3
        assert dist.minimum == 1
        assert dist.maximum == 5
        assert len(dist) == 5

    def test_add_extend(self):
        dist = Distribution()
        dist.add(1)
        dist.extend([2, 3])
        assert len(dist) == 3

    def test_empty_mean_raises(self):
        with pytest.raises(ValueError):
            Distribution().mean

    def test_stdev(self):
        dist = Distribution([2, 4, 4, 4, 5, 5, 7, 9])
        assert dist.stdev() == pytest.approx(2.138, rel=0.01)

    def test_stdev_single_value_zero(self):
        assert Distribution([5]).stdev() == 0.0


class TestTables:
    def test_format_table_aligns(self):
        text = format_table(["name", "value"], [["a", 1], ["bbbb", 22.5]])
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert "----" in lines[1]
        assert "bbbb" in lines[2] or "bbbb" in lines[3]

    def test_title_included(self):
        text = format_table(["x"], [[1]], title="My Table")
        assert text.splitlines()[0] == "My Table"

    def test_float_rendering(self):
        text = format_table(["v"], [[1234.5], [0.333333]])
        assert "1,234" in text or "1,235" in text
        assert "0.333" in text

    def test_format_series(self):
        text = format_series("fig", [(1, 2.0), (2, 4.0)], x_label="n", y_label="us")
        assert "series: fig" in text
        assert "n" in text


class TestInstrumentationLoc:
    def test_counts_api_lines(self):
        source = '''
def process(self, packet, api):
    fid = api.nf_extract_fid(packet)
    self.count(packet)
    api.add_header_action(fid, Forward())
    api.add_state_function(
        fid,
        self.count,
        PayloadClass.IGNORE,
    )
'''
        report = count_instrumentation(source, name="test")
        assert report.added_loc == 7  # 1 + 1 + 5 multi-line call
        assert report.core_loc == 2  # def + self.count line

    def test_docstrings_and_comments_excluded(self):
        source = '''
def f(api):
    """Docstring
    spanning lines."""
    # a comment
    api.register_event(1, cond, update_action=None)
'''
        report = count_instrumentation(source)
        assert report.added_loc == 1
        assert report.core_loc == 1

    def test_non_api_attribute_calls_are_core(self):
        source = "def f(x):\n    x.add_header_action(1, 2)\n"
        report = count_instrumentation(source)
        assert report.added_loc == 0
        assert report.core_loc == 2

    def test_integration_table_has_five_nfs(self):
        rows = integration_table()
        names = [report.name for report in rows]
        assert names == ["Snort", "Maglev", "IPFilter", "Monitor", "MazuNAT"]
        for report in rows:
            # Every paper NF records behaviour through the API...
            assert report.added_loc > 0
            # ...and the integration is small relative to the NF itself
            # (Table II's point: a few dozen lines, single-digit to low
            # double-digit percent overhead).
            assert report.added_loc < 40
            assert report.core_loc > report.added_loc

    def test_committed_table2_matches_integration_table(self):
        from pathlib import Path

        from benchmarks.test_table2_integration_loc import render_table2

        committed = Path(__file__).resolve().parents[2] / (
            "benchmarks/results/table2_integration_loc.txt"
        )
        assert committed.read_text() == render_table2(integration_table()) + "\n"

    def test_overhead_percent(self):
        from repro.stats.loc import InstrumentationReport

        report = InstrumentationReport("x", core_loc=100, added_loc=20)
        assert report.overhead_percent == 20.0
        assert "20" in report.as_row()[2]
