import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdom.grid import (
    BoxSums,
    DyadicCube,
    GridCube,
    GridFunction,
    GridSpec,
    cell_box,
    cell_centers,
    cube_flat_indices,
    cube_values,
    local_average,
    support_in,
    triple_cube,
)

from conftest import gf, unit_root


def test_grid_spec_basic():
    g = GridSpec(n=1, L=3, origin=(0.0,), side=1.0)
    assert g.cells_per_side == 8
    assert g.num_cells == 8
    assert g.h == 0.125
    assert g.cell_volume() == 0.125
    g2 = GridSpec(n=2, L=2, origin=(-1.0, 1.0), side=4.0)
    assert g2.num_cells == 16
    assert g2.cell_volume() == 1.0


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(n=3, L=2, origin=(0.0, 0.0, 0.0), side=1.0)
    with pytest.raises(ValueError):
        GridSpec(n=1, L=0, origin=(0.0,), side=1.0)
    with pytest.raises(ValueError):
        GridSpec(n=1, L=15, origin=(0.0,), side=1.0)
    with pytest.raises(ValueError):
        GridSpec(n=2, L=9, origin=(0.0, 0.0), side=1.0)
    with pytest.raises(ValueError):
        GridSpec(n=1, L=2, origin=(0.0,), side=-1.0)
    with pytest.raises(ValueError):
        GridSpec(n=1, L=2, origin=(np.inf,), side=1.0)
    # n=2 upper depth is exactly 8
    GridSpec(n=2, L=8, origin=(0.0, 0.0), side=1.0)
    GridSpec(n=1, L=14, origin=(0.0,), side=1.0)


def test_cell_centers_row_major():
    g = GridSpec(n=2, L=3, origin=(-1.0, 2.0), side=4.0)
    pts = cell_centers(g)
    assert pts.shape == (g.num_cells, 2)
    for flat in range(g.num_cells):
        i0, i1 = divmod(flat, g.cells_per_side)  # flat = i0 * S + i1
        assert pts[flat].tolist() == [-1.0 + g.h * (i0 + 0.5), 2.0 + g.h * (i1 + 0.5)]
    some = np.array([5, 0, 63])
    assert np.array_equal(cell_centers(g, some), pts[some])
    g1 = GridSpec(n=1, L=3, origin=(0.5,), side=1.0)
    assert cell_centers(g1).tolist() == [[0.5 + 0.125 * (i + 0.5)] for i in range(8)]


def test_triple_cube_interior():
    g = GridSpec(n=1, L=4, origin=(0.0,), side=1.0)
    q = DyadicCube(level=2, index=(1,))  # [0.25, 0.5)
    t = triple_cube(g, q)
    lo, hi = cell_box(g, t)
    # concentric triple [0, 0.75), 12 cells of 1/16
    assert (lo[0], hi[0]) == (0, 12)
    assert not t.clipped


def test_triple_cube_clipped():
    g = GridSpec(n=1, L=4, origin=(0.0,), side=1.0)
    q = DyadicCube(level=2, index=(0,))  # [0, 0.25)
    t = triple_cube(g, q)
    lo, hi = cell_box(g, t)
    assert (lo[0], hi[0]) == (0, 8)  # clipped to [0, 0.5)
    assert t.clipped


def test_triple_cube_whole_domain(grid8):
    t = triple_cube(grid8, unit_root(grid8))
    lo, hi = cell_box(grid8, t)
    assert (lo[0], hi[0]) == (0, 8)
    assert t.clipped


def test_triple_contains_cube_2d(grid2d):
    for level in range(grid2d.L + 1):
        for ix in range(1 << level):
            for iy in range(1 << level):
                q = DyadicCube(level=level, index=(ix, iy))
                qc = set(cube_flat_indices(grid2d, q).tolist())
                tc = set(cube_flat_indices(grid2d, triple_cube(grid2d, q)).tolist())
                assert qc <= tc


def test_local_average_examples(grid8):
    q = DyadicCube(level=1, index=(0,))
    ones = gf(grid8, np.ones(8))
    assert local_average(ones, q, 1.0) == 1.0
    assert local_average(ones, q, 3.0) == 1.0
    half = gf(grid8, [1, 1, 0, 0, 0, 0, 0, 0])  # left half of [0, 0.5)
    assert local_average(half, q, 1.0) == 0.5
    assert local_average(half, q, 2.0) == pytest.approx(0.5 ** 0.5, rel=0, abs=1e-15)


def test_local_average_rejects_small_r(grid8):
    f = gf(grid8, np.ones(8))
    with pytest.raises(ValueError):
        local_average(f, unit_root(grid8), 0.5)


def test_average_power_mean_monotone(grid16):
    rng = np.random.default_rng(0)
    q = DyadicCube(level=1, index=(1,))
    for _ in range(20):
        f = gf(grid16, rng.uniform(0, 2, grid16.num_cells))
        vals = [local_average(f, q, r) for r in (1.0, 1.5, 2.0, 4.0)]
        assert all(vals[i] <= vals[i + 1] + 1e-14 for i in range(len(vals) - 1))


def test_grid_function_validation(grid8):
    with pytest.raises(ValueError):
        GridFunction(grid=grid8, values=np.ones(7))
    with pytest.raises(ValueError):
        GridFunction(grid=grid8, values=np.array([np.nan] + [0.0] * 7))
    f = gf(grid8, np.arange(8))
    with pytest.raises(ValueError):
        f.values[0] = 5.0  # read-only buffer


def test_grid_function_json_roundtrip(grid2d):
    rng = np.random.default_rng(1)
    f = gf(grid2d, rng.normal(size=grid2d.num_cells))
    d = json.loads(f.to_json())
    back = GridFunction(GridSpec(d["n"], d["L"], tuple(d["origin"]), d["side"]), np.asarray(d["values"]))
    assert back.grid == grid2d
    assert np.array_equal(back.values, f.values)  # exact, no tolerance


def test_dyadic_cube_contains_parent(grid16):
    q = DyadicCube(level=3, index=(5,))
    p = DyadicCube(level=2, index=(2,))
    assert p.contains(q)
    assert not q.contains(p)
    assert q.contains(q)
    r = DyadicCube(level=0, index=(0,))
    assert r.contains(q)


def test_grid_cube_flat_indices_sorted(grid2d):
    c = GridCube(corner=(1, 0), shape=(2, 3))
    idx = cube_flat_indices(grid2d, c)
    assert list(idx) == sorted(idx)
    assert len(idx) == 6


def test_support_and_masking(grid8):
    f = gf(grid8, [0, 0, 1.0, 2.0, 0, 0, 0, 0])
    q = DyadicCube(level=1, index=(0,))
    assert support_in(f, q)
    assert not support_in(f, DyadicCube(level=1, index=(1,)))
    assert list(cube_values(f, q)) == [0, 0, 1.0, 2.0]


# Prefix differences lose accuracy relative to the box's own sum when
# the box is small beside the prefix it is cut from, so float boxes are
# held to a tolerance relative to the total mass of the grid.
BOX_REL_TOL = 1e-13


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.sampled_from([1, 2]), integer=st.booleans())
def test_box_sums_match_direct_sums(data, n, integer):
    grid = GridSpec(n=n, L=data.draw(st.integers(1, 5 - n), label="L"), origin=(0.0,) * n, side=1.0)
    N = grid.cells_per_side
    cell = st.integers(-10**6, 10**6) if integer else st.floats(-1e6, 1e6, allow_nan=False)
    values = np.array(data.draw(st.lists(cell, min_size=grid.num_cells, max_size=grid.num_cells)), dtype=float)
    table = BoxSums(grid, values)
    boxes = [
        tuple(zip(*(sorted(data.draw(st.tuples(st.integers(0, N), st.integers(0, N)))) for _ in range(n))))
        for _ in range(4)
    ]
    los, his = (np.array(corners, dtype=np.intp) for corners in zip(*boxes))
    sums = table.box_sum(los, his)
    assert sums.shape == (4,)
    for (lo, hi), got in zip(boxes, sums.tolist()):
        want = float(np.sum(values.reshape((N,) * n)[tuple(slice(a, b) for a, b in zip(lo, hi))]))
        if integer:  # every partial sum is an integer below 2^53, so exact
            assert got == want
        else:
            assert abs(got - want) <= BOX_REL_TOL * float(np.sum(np.abs(values)))
