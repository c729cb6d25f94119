"""The percentile / "ten samples beyond" rule and the spread arithmetic."""

import statistics

from benchmarks.e2e import stats


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert stats.percentile(values, 0.50) == 50
    assert stats.percentile(values, 0.95) == 95
    assert stats.percentile(values, 1.0) == 100
    assert stats.percentile([], 0.5) == 0.0


def test_ten_samples_must_lie_beyond_a_reported_percentile():
    assert stats.samples_needed(0.95) == 200
    assert stats.samples_needed(0.99) == 1000


def test_unsupported_percentile_reads_zero_not_a_guess():
    values = [float(i) for i in range(999)]
    assert stats.supported_percentile(values, 0.99) == 0.0
    assert stats.supported_percentile(values + [999.0], 0.99) == 989.0   # 990..999 lie beyond


def test_spread_is_the_drivers_quartile_distance_over_median():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert stats.spread(values) == (q3 - q1) / q2
    assert stats.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_worsening_respects_direction():
    assert stats.worsening(100.0, 110.0, "lower") == 0.10
    assert stats.worsening(100.0, 110.0, "higher") == -0.10
    assert stats.worsening(100.0, 90.0, "higher") == 0.10


def test_aa_holds_the_gap_to_010_and_the_spread_to_the_manifest_bound():
    from benchmarks.e2e import metrics, report

    by_name = {m.name: m for m in metrics.END_TO_END}
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    wide = [100.0, 140.0, 70.0, 125.0, 80.0]       # spread 0.6

    quiet = report.compare_sets(steady, [v * 1.05 for v in steady],
                                by_name["op_p50_ms"])
    assert quiet["breaches"] == [] and not quiet["unresolved"]

    # 12% between the medians passes the manifest's 0.25 but not ISSUE's 0.10.
    apart = report.compare_sets(steady, [v * 1.12 for v in steady],
                                by_name["op_p50_ms"])
    assert apart["breaches"] == ["gap"] and apart["gap_bound"] == 0.10

    noisy = report.compare_sets(wide, wide, by_name["op_p50_ms"])
    assert noisy["breaches"] == ["spread"] and noisy["unresolved"]

    # The driver exempts setup_s from the spread rule; it is still reported.
    setup = report.compare_sets(wide, wide, by_name["setup_s"])
    assert setup["breaches"] == [] and setup["unresolved"]

    # A tighter bound of the metric's own wins over 0.10.
    stored = report.compare_sets([1.0] * 5, [1.03] * 5,
                                 by_name["stored_bytes_per_user_byte"])
    assert stored["breaches"] == ["gap"] and stored["gap_bound"] == 0.02
