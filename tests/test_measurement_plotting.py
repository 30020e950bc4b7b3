"""Tests for the ASCII CDF renderer."""

from repro.measurement.plotting import HEIGHT, WIDTH, render_cdfs
from repro.measurement.stats import Cdf


class TestRenderCdfs:
    def test_empty(self):
        assert render_cdfs({}) == "(no data)"
        assert render_cdfs({"x": Cdf([])}) == "(no data)"

    def test_fully_censored(self):
        out = render_cdfs({"x": Cdf([], censored=5)})
        assert out == "(all samples censored)"

    def test_contains_legend_and_axis(self):
        out = render_cdfs({"anycast": Cdf([1.0, 2.0, 5.0])})
        assert "o anycast" in out
        assert "time (s)" in out

    def test_multiple_series_distinct_glyphs(self):
        out = render_cdfs(
            {"fast": Cdf([1.0, 2.0]), "slow": Cdf([50.0, 100.0])}
        )
        assert "o fast" in out
        assert "x slow" in out
        assert "o" in out and "x" in out

    def test_faster_series_rises_left_of_slower(self):
        out = render_cdfs(
            {"fast": Cdf([1.0] * 10), "slow": Cdf([100.0] * 10)}
        )
        rows = [line for line in out.splitlines() if "|" in line]
        top_row = rows[0]
        assert "o" in top_row
        assert "x" in top_row
        assert top_row.index("o") < top_row.index("x")

    def test_censored_series_never_reaches_top(self):
        out = render_cdfs({"c": Cdf([1.0], censored=9)})
        rows = [line for line in out.splitlines() if "|" in line]
        # top rows (y near 1.0) must be empty of the glyph
        assert "o" not in rows[0]
        assert "o" not in rows[1]

    def test_log_ticks_present(self):
        out = render_cdfs({"s": Cdf([1.0, 10.0, 100.0])})
        assert out.splitlines()[HEIGHT + 1].split() == ["1", "10", "100"]

    def test_labels_the_ends_when_no_decade_falls_inside(self):
        """Failover times of a short run span 6.1-9.1 s: no decade tick
        lies inside, so the axis is labelled at its two ends."""
        out = render_cdfs({"s": Cdf([6.1, 7.6, 9.1])})
        ticks = out.splitlines()[HEIGHT + 1]
        assert ticks.split() == ["6.1", "9.1"]
        assert ticks.index("6.1") == 6
        assert ticks.index("9.1") == 6 + WIDTH - 1

    def test_dimensions(self):
        out = render_cdfs({"s": Cdf([1.0, 5.0])})
        rows = [line for line in out.splitlines() if "|" in line]
        assert len(rows) == HEIGHT
        assert all(len(line) == 6 + WIDTH for line in rows)
