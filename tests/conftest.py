import numpy as np
import pytest

from sdom.grid import DyadicCube, GridFunction, GridSpec


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
