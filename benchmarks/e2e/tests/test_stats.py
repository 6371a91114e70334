import statistics

import pytest

import stats


def test_tail_percentile_needs_ten_samples_beyond():
    # 40 samples: p90 leaves 4 beyond, p75 leaves 10 -> p75 is reported
    values = [float(i) for i in range(1, 41)]
    assert stats.tail_percentile(values) == (75, 30.0)
    # 100 samples: p90 leaves exactly 10 beyond
    values = [float(i) for i in range(1, 101)]
    assert stats.tail_percentile(values) == (90, 90.0)
    # 39 samples: even p75 has only 9 beyond -> no tail
    assert stats.tail_percentile([float(i) for i in range(39)]) is None


def test_summarize_reports_median_quartiles_and_count():
    values = [3.0, 1.0, 2.0, 5.0, 4.0]
    out = stats.summarize(values)
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert out == {"median": q2, "n": 5, "q1": q1, "q3": q3}
    assert stats.summarize([7.0]) == {"median": 7.0, "n": 1, "q1": 7.0, "q3": 7.0}
    with pytest.raises(ValueError):
        stats.summarize([])


def test_spread_is_iqr_over_median():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert stats.spread(values) == pytest.approx((q3 - q1) / q2)
