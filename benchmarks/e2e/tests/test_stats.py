import pytest

from stats import highest_supported, knee, percentile, step_passes, summarize


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 0.50) == 50
    assert percentile(values, 0.95) == 95
    assert percentile(values, 0.99) == 99
    assert percentile(values, 1.0) == 100
    assert percentile([7.0], 0.95) == 7.0


def test_percentile_float_epsilon_does_not_report_the_maximum():
    # 0.95 * 20 == 19.000000000000004: a bare ceil would pick rank 20
    values = list(range(1, 21))
    assert percentile(values, 0.95) == 19


def test_percentile_rejects_empty_and_bad_q():
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1.0], 0.0)


@pytest.mark.parametrize(
    "n, expected",
    [(5, 0.50), (19, 0.50), (20, 0.50), (100, 0.90), (199, 0.90), (200, 0.95),
     (999, 0.95), (1000, 0.99), (9999, 0.99), (10000, 0.999)],
)
def test_highest_supported_needs_ten_samples_beyond(n, expected):
    assert highest_supported(n) == expected


def test_summarize_matches_statistics_quantiles():
    row = summarize([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0])
    assert row == {"median": 5.5, "q1": 2.75, "q3": 8.25, "n": 10}
    assert summarize([3.0]) == {"median": 3.0, "q1": 3.0, "q3": 3.0, "n": 1}


def _step(rate, scheduled, ok_in_limit, achieved_share=1.0):
    return {
        "rate_rps": rate,
        "offered_rps": float(rate),
        "achieved_rps": rate * achieved_share,
        "scheduled": scheduled,
        "ok_in_limit": ok_in_limit,
    }


def test_knee_is_the_last_step_before_the_first_failure():
    ladder = [
        _step(1500, 1500, 1500),
        _step(3000, 3000, 2990),
        _step(4500, 4500, 4400),  # 97.8 % in time: fails
        _step(6000, 6000, 6000),  # a later pass does not count
    ]
    assert knee(ladder) == 3000.0


def test_knee_rules():
    assert step_passes(_step(1500, 1000, 990))
    # a refused or late request misses
    assert not step_passes(_step(1500, 1000, 989))
    # achieved < 0.97 x offered: the backlog grows
    assert not step_passes(_step(1500, 1000, 1000, achieved_share=0.96))
    assert not step_passes(_step(1500, 0, 0))
    assert knee([_step(1500, 1000, 900)]) == 0.0
    assert knee([]) == 0.0
