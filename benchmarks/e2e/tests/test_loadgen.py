import numpy as np

from loadgen import poisson_schedule


def test_schedule_is_a_function_of_the_seed():
    a = poisson_schedule(1500.0, 2.0, seed=5, tag=2)
    b = poisson_schedule(1500.0, 2.0, seed=5, tag=2)
    assert np.array_equal(a, b)
    other_seed = poisson_schedule(1500.0, 2.0, seed=6, tag=2)
    other_leg = poisson_schedule(1500.0, 2.0, seed=5, tag=3)
    assert not np.array_equal(a, other_seed[: len(a)])
    assert not np.array_equal(a, other_leg[: len(a)])


def test_schedule_is_sorted_inside_the_leg_and_near_the_rate():
    times = poisson_schedule(3000.0, 3.0, seed=1, tag=0)
    assert (np.diff(times) > 0).all()
    assert 0.0 < times[0] and times[-1] < 3.0
    assert abs(len(times) - 9000) < 5 * 9000**0.5
