import numpy as np
import pytest
from hypothesis import settings

from sdom.grid import DyadicCube, GridFunction, GridSpec

# Every property draws the same examples on every run: a failure seen
# once is seen again, and no example database is read or written.  Each
# test's own ``@settings`` still sets its example count.
settings.register_profile("sdom", derandomize=True)
settings.load_profile("sdom")


@pytest.fixture
def grid8():
    return GridSpec(n=1, L=3, origin=(0.0,), side=1.0)


@pytest.fixture
def grid16():
    return GridSpec(n=1, L=4, origin=(0.0,), side=1.0)


@pytest.fixture
def grid2d():
    return GridSpec(n=2, L=2, origin=(0.0, 0.0), side=1.0)


def gf(grid, values):
    return GridFunction(grid=grid, values=np.asarray(values, dtype=float))


def unit_root(grid):
    return DyadicCube(level=0, index=(0,) * grid.n)
