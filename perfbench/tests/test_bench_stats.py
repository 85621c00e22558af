import pytest

from stats import tail


def test_ten_or_fewer_samples_fall_back_to_the_maximum():
    assert tail([3.0]) == (100.0, 3.0, 0)
    assert tail([float(x) for x in range(10)]) == (100.0, 9.0, 0)


def test_eleven_samples_leave_ten_beyond_the_smallest():
    assert tail([float(x) for x in range(11)][::-1]) == (100.0 / 11, 0.0, 10)


def test_hundred_samples_give_the_90th_percentile():
    pct, value, beyond = tail([float(x) for x in range(1, 101)])
    assert (pct, value, beyond) == (90.0, 90.0, 10)


def test_thousand_samples_give_the_99th_percentile():
    pct, value, beyond = tail(range(1000))
    assert (pct, value, beyond) == (99.0, 989, 10)


def test_no_samples_is_an_error():
    with pytest.raises(ValueError):
        tail([])
