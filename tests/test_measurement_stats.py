"""Tests for CDF/summary statistics with censoring."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.measurement.stats import Cdf, summarize
from tests import cdf_oracle


class TestCdf:
    def test_basic_quantiles(self):
        cdf = Cdf([1.0, 2.0, 3.0, 4.0])
        assert cdf.quantile(0.25) == 1.0
        assert cdf.median() == 2.0
        assert cdf.quantile(1.0) == 4.0

    def test_at(self):
        cdf = Cdf([1.0, 2.0, 3.0, 4.0])
        assert cdf.at(0.5) == 0.0
        assert cdf.at(2.0) == 0.5
        assert cdf.at(10.0) == 1.0

    def test_censored_mass_shifts_quantiles(self):
        """4 observed + 4 censored: the median is the 4th of 8 samples,
        but p90 falls into the censored tail."""
        cdf = Cdf([1.0, 2.0, 3.0, 4.0], censored=4)
        assert cdf.n == 8
        assert cdf.median() == 4.0
        assert cdf.quantile(0.9) == math.inf

    def test_at_with_censored(self):
        cdf = Cdf([1.0], censored=1)
        assert cdf.at(100.0) == 0.5

    def test_from_optional(self):
        cdf = Cdf.from_optional([1.0, None, 2.0, None])
        assert cdf.observed == 2
        assert cdf.censored == 2

    def test_empty_quantile_raises(self):
        with pytest.raises(ValueError):
            Cdf([]).median()

    def test_negative_samples_rejected(self):
        with pytest.raises(ValueError):
            Cdf([-1.0])

    @pytest.mark.parametrize("samples", [
        [math.nan], [1.0, math.nan, 2.0], [math.inf, math.nan], [-math.nan],
    ], ids=["alone", "between", "after-inf", "negative-nan"])
    def test_nan_samples_rejected(self, samples):
        """NaN compares false against everything, so a sort leaves it
        where it lands and every quantile past it would be wrong."""
        with pytest.raises(ValueError, match="samples must be non-negative"):
            Cdf(samples)

    def test_negative_censored_rejected(self):
        with pytest.raises(ValueError):
            Cdf([], censored=-1)

    def test_quantile_bounds(self):
        with pytest.raises(ValueError):
            Cdf([1.0]).quantile(1.1)

    def test_fully_censored(self):
        cdf = Cdf([], censored=5)
        assert cdf.median() == math.inf
        assert cdf.at(1e9) == 0.0

    def test_fully_censored_every_quantile_is_inf(self):
        """With zero observations every quantile falls in the censored
        tail: 'not yet reconnected' at any probability."""
        cdf = Cdf([], censored=3)
        for q in (0.01, 0.5, 0.9, 1.0):
            assert cdf.quantile(q) == math.inf

    def test_at_denominator_includes_censored_mass(self):
        """at() is P(X <= x) over *all* n samples; censored targets sit
        in the denominator even though they never produce a value."""
        cdf = Cdf([1.0, 2.0], censored=2)
        assert cdf.n == 4
        assert cdf.at(1.0) == 0.25
        assert cdf.at(2.0) == 0.5
        assert cdf.at(math.inf) == 0.5  # the censored half never arrives

    def test_series_monotone(self):
        xs, ys = Cdf([3.0, 1.0, 2.0]).series()
        assert xs == [1.0, 2.0, 3.0]
        assert ys == [pytest.approx(1 / 3), pytest.approx(2 / 3), pytest.approx(1.0)]

    def test_series_with_censoring_tops_below_one(self):
        xs, ys = Cdf([1.0], censored=1).series()
        assert ys == [0.5]

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=50))
    def test_quantile_monotone(self, samples):
        cdf = Cdf(samples)
        qs = [cdf.quantile(q / 10) for q in range(1, 11)]
        assert qs == sorted(qs)

    @given(
        st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=50),
        st.floats(min_value=0, max_value=1e6),
    )
    def test_at_and_quantile_consistent(self, samples, x):
        cdf = Cdf(samples)
        p = cdf.at(x)
        if p > 0:
            assert cdf.quantile(p) <= x

    #: every ⟨k, n⟩ up to n = 50 where k / n * n lands an ulp above k, so
    #: a rank of ceil(q * n) is one too high; (7, 25) is the shrunk
    #: example Hypothesis found for the property above
    ULP_ABOVE = [
        (7, 25), (14, 25), (15, 29), (29, 35), (21, 38), (25, 39), (7, 41),
        (14, 41), (23, 41), (28, 41), (23, 42), (27, 42), (7, 43), (14, 43),
        (28, 43), (25, 44), (29, 45), (27, 46), (27, 47), (7, 50), (14, 50),
        (28, 50),
    ]

    @pytest.mark.parametrize("k, n", ULP_ABOVE)
    def test_quantile_of_a_step_is_the_step(self, k, n):
        cdf = Cdf([0.0] * k + [1.0] * (n - k))
        assert cdf.at(0.0) == k / n
        assert cdf.quantile(k / n) == 0.0

    def test_ulp_above_cases_are_all_of_them(self):
        every = [
            (k, n) for n in range(1, 51) for k in range(1, n + 1)
            if math.ceil(k / n * n) != k
        ]
        assert every == sorted(self.ULP_ABOVE, key=lambda kn: (kn[1], kn[0]))
        for n in range(1, 51):
            for k in range(1, n + 1):
                cdf = Cdf([0.0] * k + [1.0] * (n - k))
                assert cdf.quantile(k / n) == 0.0
                if k < n:
                    assert cdf.quantile(math.nextafter(k / n, 1.0)) == 1.0


class TestSummarize:
    def test_summary_fields(self):
        summary = summarize([1.0, 2.0, 3.0, None])
        assert summary.n == 4
        assert summary.censored == 1
        assert summary.median == 2.0
        assert summary.p90 == math.inf
        assert summary.mean_observed == pytest.approx(2.0)

    def test_row_rendering(self):
        row = summarize([1.0, None]).row()
        assert "censored=1" in row

    def test_summarize_empty_list(self):
        """No samples at all: n=0 and NaN quantiles, never a crash
        (a sweep technique whose cells all failed hits this path)."""
        summary = summarize([])
        assert summary.n == 0
        assert summary.censored == 0
        assert math.isnan(summary.p10)
        assert math.isnan(summary.median)
        assert math.isnan(summary.p90)
        assert math.isnan(summary.mean_observed)
        assert "n=0" in summary.row()

    def test_summarize_refuses_nan(self):
        with pytest.raises(ValueError, match="samples must be non-negative"):
            summarize([1.0, None, math.nan])

    def test_mean_observed_skips_censored_and_goes_to_inf(self):
        """The mean of the observed samples; an inf sample, or finite
        samples whose sum overflows, give inf rather than raise."""
        assert summarize([1.0, 2.0, 6.0, None]).mean_observed == 3.0
        assert summarize([1.0, math.inf, None]).mean_observed == math.inf
        assert summarize([1e308, 1e308]).mean_observed == math.inf

    def test_summarize_all_censored(self):
        summary = summarize([None, None, None])
        assert summary.n == 3
        assert summary.censored == 3
        assert summary.median == math.inf
        assert math.isnan(summary.mean_observed)
        assert "p50=inf" in summary.row()


def same(a: float, b: float) -> bool:
    """Bit-equal floats: ``repr`` round-trips a float exactly and tells
    0.0 from -0.0."""
    return type(a) is type(b) is float and repr(a) == repr(b)


#: non-negative samples, with 0.0, inf and repeated values drawn often
SAMPLES = st.lists(
    st.one_of(
        st.sampled_from([0.0, 1.5, 1.5, 60.0, math.inf]),
        st.floats(min_value=0.0),
    ),
    max_size=40,
)


class TestOracle:
    """The list-backed :class:`Cdf` against the numpy one it replaced
    (``tests/cdf_oracle.py``): every answer bit for bit."""

    @given(
        SAMPLES,
        st.integers(min_value=0, max_value=20),
        st.lists(st.floats(), max_size=8),
        st.lists(st.one_of(st.sampled_from([0.0, 0.5, 0.9, 1.0]),
                           st.floats(min_value=0.0, max_value=1.0)), max_size=8),
    )
    def test_answers_equal_the_numpy_cdf(self, samples, censored, xs, qs):
        cdf, oracle = Cdf(samples, censored), cdf_oracle.Cdf(samples, censored)
        assert (cdf.n, cdf.observed) == (oracle.n, oracle.observed)
        for x in [*samples, *xs]:
            assert same(cdf.at(x), oracle.at(x)), x
        xs_new, ys_new = cdf.series()
        xs_old, ys_old = oracle.series()
        assert len(xs_new) == len(xs_old)
        assert all(map(same, xs_new, xs_old)) and all(map(same, ys_new, ys_old))
        if cdf.n == 0:
            return
        assert same(cdf.median(), oracle.median())
        for q in [*qs, *(k / cdf.n for k in range(cdf.n + 1))]:
            assert same(cdf.quantile(q), oracle.quantile(q)), q
        assert repr(cdf) == repr(oracle)
