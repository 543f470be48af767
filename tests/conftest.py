import pytest

from haartest.dyadic import Grid
from haartest.measure import (
    lebesgue,
    near_point_mass,
    power_weight,
    random_dyadic_doubling,
)


@pytest.fixture(scope="session")
def grid1():
    return Grid(dimension=1, max_level=8)


@pytest.fixture(scope="session")
def grid1_full():
    return Grid(dimension=1)


@pytest.fixture(scope="session")
def grid2():
    return Grid(dimension=2)


@pytest.fixture(scope="session")
def corpus1(grid1):
    """Small measure corpus on the 1-D grid: smooth, rough, and peaked."""
    return [
        lebesgue(grid1),
        power_weight(grid1, 0.5),
        power_weight(grid1, -0.4),
        random_dyadic_doubling(grid1, 2.0, seed=1),
        random_dyadic_doubling(grid1, 3.0, seed=2),
        near_point_mass(grid1, 4.0),
    ]


@pytest.fixture(scope="session")
def doubling_pairs1(grid1):
    """Five seeded doubling measure pairs on the 1-D grid."""
    return [
        (random_dyadic_doubling(grid1, 1.5, seed=2 * i),
         random_dyadic_doubling(grid1, 2.0, seed=2 * i + 1))
        for i in range(5)
    ]


@pytest.fixture(scope="session")
def power_pair(grid1_full):
    return power_weight(grid1_full, 0.3), power_weight(grid1_full, -0.3)


def assert_close(a, b, tol=1e-12, rel=0.0):
    gap = abs(a - b)
    bound = tol + rel * max(abs(a), abs(b))
    assert gap <= bound, f"|{a} - {b}| = {gap} > {bound}"
