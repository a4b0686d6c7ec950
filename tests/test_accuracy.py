"""tests/accuracy.py's table, held to its bounds: on 200 rows of every
region, each kernel's largest error in ulps is within its entry in BOUNDS,
which README states."""

from accuracy import BOUNDS, measure


def test_each_kernel_is_within_its_bound():
    worst = {(name, region): ulps.max() for name, region, _, ulps in measure(200)}
    assert {name for name, _ in worst} == set(BOUNDS)
    assert {key: e for key, e in worst.items() if not e <= BOUNDS[key[0]]} == {}
